//! Runs every figure/table reproduction in sequence (the full evaluation).
//!
//! Usage: `cargo run --release -p tailors-bench --bin run_all --
//! [scale] [--threads N] [--mem-budget SPEC] [--grid MODE] [--auto-plan]
//! [--calibrate] [--no-gen-cache] [--serve]`
//!
//! At `scale = 1.0` (default) the workloads are generated at the paper's
//! full dimensions; expect a few minutes, dominated by tensor generation.
//!
//! The five knob flags are resolved here once by
//! [`Knobs`] (flag, then `TAILORS_*` variable, then
//! default) and handed to every child binary through the same variables
//! ([`Knobs::child_env`](tailors_sim::Knobs::child_env)):
//!
//! * `--threads N` pins the suite's worker threads (`--threads 1` is the
//!   fully serial, deterministic path); without it, all available cores.
//! * `--mem-budget SPEC` (e.g. `256MiB`, `1G`, `unbounded`) bounds
//!   per-thread scratch; the suite records the induced execution plans
//!   in its metrics.
//! * `--grid MODE` (`panels` or `2d`) picks the functional grid
//!   decomposition — `2d` fans functional runs out over `panels x blocks`
//!   work units with per-unit buffer drivers (results are bit-identical
//!   either way).
//! * `--auto-plan`: execution plans come from the budget-aware auto
//!   planner (panel height co-optimized against the scratch budget)
//!   instead of the variants' fixed heights; the suite records the chosen
//!   plans in its scratch stats.
//! * `--calibrate`: auto planners minimize measured per-term costs
//!   (`CostModel::calibrated`) instead of raw element touches; chosen
//!   tilings may differ, replayed results never do.
//!
//! Generated tensors are memoized on disk across the child binaries
//! (`TAILORS_GEN_CACHE`, defaulting to `target/gen-cache`) so the ten
//! children stop regenerating ten identical copies of the suite;
//! `--no-gen-cache` disables the disk layer.
//!
//! `--serve` appends the `tailors-serve` sweep driver (`serve` binary) to
//! the sequence: repeated suite × variant sweeps through the long-lived
//! [`SimService`](https://docs.rs/tailors-serve) with `--verify`, proving
//! plan-hot steady-state responses bit-identical to cold `Variant` runs.
//! All the knobs above reach it through the same variables.
//!
//! `--wire` appends the wire-transport smoke (`serve --wire-smoke`): the
//! same suite sweep driven through the fault-tolerant service runtime —
//! line-delimited JSON over a real TCP socket, bounded mailboxes, worker
//! pool — verified bit-identical against an in-process baseline and
//! fully accounted. Set `TAILORS_FAULTS` (e.g. `panic:7,latency:3`) to
//! run it under deterministic fault injection; it inherits the
//! environment.
//!
//! `--router` appends the sharded-router smoke (`serve --router-smoke`):
//! the suite batch consistent-hash-routed across three spawned wire
//! shard processes and proven bit-identical to an in-process baseline,
//! then replayed with one shard hard-killed mid-stream to prove failover
//! completes with the fleet accounting ledger intact.

use std::process::Command;

use tailors_sim::Knobs;

fn main() {
    let (knobs, args) = Knobs::from_args(Knobs::default());
    let mut scale: Option<String> = None;
    let mut gen_cache = true;
    let mut serve = false;
    let mut wire = false;
    let mut router = false;
    const USAGE: &str = "usage: run_all [scale] [--threads N] [--mem-budget SPEC] [--grid MODE] \
         [--auto-plan] [--calibrate] [--no-gen-cache] [--serve] [--wire] [--router]";
    for arg in args {
        if arg == "--no-gen-cache" {
            gen_cache = false;
        } else if arg == "--serve" {
            serve = true;
        } else if arg == "--wire" {
            wire = true;
        } else if arg == "--router" {
            router = true;
        } else if arg.starts_with('-') {
            panic!("unknown flag {arg:?}; {USAGE}");
        } else if scale.is_none() {
            scale = Some(arg);
        } else {
            panic!("unexpected extra argument {arg:?}; {USAGE}");
        }
    }
    let scale = scale.unwrap_or_else(|| "1.0".to_string());
    let cache_dir =
        std::env::var("TAILORS_GEN_CACHE").unwrap_or_else(|_| "target/gen-cache".to_string());
    let mut bins: Vec<(&str, &str, &[&str])> = vec![
        ("table2", "table2", &[]),
        ("fig1", "fig1", &[]),
        ("table1", "table1", &[]),
        ("fig7", "fig7", &[]),
        ("fig8", "fig8", &[]),
        ("fig9", "fig9", &[]),
        ("fig10", "fig10", &[]),
        ("fig11", "fig11", &[]),
        ("fig12", "fig12", &[]),
        ("fig13", "fig13", &[]),
    ];
    if serve {
        // The serving sweep rides at the end so its generation-cache hits
        // demonstrate the cross-binary disk tier too.
        bins.push(("serve", "serve", &["--sweeps", "3", "--verify"]));
    }
    if wire {
        // Late: the wire smoke exercises the full runtime stack (codec,
        // TCP, mailbox, workers) over the already-cached suite tensors.
        bins.push(("serve --wire-smoke", "serve", &["--wire-smoke"]));
    }
    if router {
        // Last: the sharded-router smoke spawns three wire shard
        // processes of its own and exercises ring placement + failover
        // on top of everything the wire smoke covers.
        bins.push(("serve --router-smoke", "serve", &["--router-smoke"]));
    }
    for (label, bin, extra) in bins {
        println!();
        println!("==================== {label} ====================");
        let mut cmd = Command::new(
            std::env::current_exe()
                .expect("self path")
                .parent()
                .expect("bin dir")
                .join(bin),
        );
        cmd.arg(&scale);
        cmd.args(extra);
        cmd.envs(knobs.child_env());
        if gen_cache {
            cmd.env("TAILORS_GEN_CACHE", &cache_dir);
        } else {
            cmd.env_remove("TAILORS_GEN_CACHE");
        }
        let status = cmd.status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => eprintln!("{label} exited with {s}"),
            Err(e) => eprintln!("failed to launch {label}: {e}"),
        }
    }
}

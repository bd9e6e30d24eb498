//! Drives repeated variant sweeps through the long-lived [`SimService`],
//! demonstrating plan-hot steady state: sweep 1 pays profile + plan
//! construction, every later sweep answers from the caches and is proven
//! bit-identical to the first.
//!
//! Usage: `cargo run --release -p tailors-serve --bin serve --
//! [scale] [--sweeps N] [--threads N] [--mem-budget SPEC] [--grid MODE]
//! [--auto-plan] [--calibrate] [--verify] [--smoke-functional]
//! [--wire ADDR | --wire-stdio | --wire-smoke]
//! [--router N | --shards ADDR,ADDR,... | --router-smoke]
//! [--replicas R] [--probe-ms MS]`
//!
//! The five knob flags (`--threads`, `--mem-budget`, `--grid`,
//! `--auto-plan`, `--calibrate`) are resolved by
//! [`Knobs`]: flag, then `TAILORS_*` variable (so `run_all --serve`
//! reaches this binary with the same knobs as every other child), then
//! default. `--calibrate` plans
//! auto-planned requests under the measured
//! [`CostModel::calibrated`](tailors_sim::CostModel::calibrated)
//! weights instead of the uniform element-touch model. Calibrated plans
//! are versioned in the plan tier by the model fingerprint.
//!
//! The three `--wire*` modes run the fault-tolerant service runtime
//! (bounded priority mailbox + worker pool + admission control, with
//! plan-hot analytical requests served inline on the session thread; see
//! `tailors_serve::runtime`) behind the line-delimited JSON wire
//! protocol instead of the sweep driver:
//!
//! * `--wire ADDR` — TCP server on `ADDR` (port 0 picks an ephemeral
//!   port; the bound address is printed). Serves until stdin reaches
//!   EOF, then drains and reports.
//! * `--wire-stdio` — serve requests from stdin, replies on stdout
//!   (diagnostics go to stderr; stdout carries only protocol lines).
//! * `--wire-smoke` — self-contained CI round trip: spawns the TCP
//!   server, drives the suite batch through wire clients, and asserts
//!   every completed reply is bit-identical to an in-process baseline
//!   and that `completed + faulted + rejected + timed_out` accounts for
//!   every submission. Honors `TAILORS_FAULTS` (e.g.
//!   `panic:7,latency:3`), under which completed replies must *still*
//!   be bit-identical and nothing may be lost.
//!
//! The three `--router*`/`--shards` modes put the consistent-hash
//! [`ShardRouter`] in front of N wire shard processes:
//!
//! * `--router N` — spawn N child `serve --wire 127.0.0.1:0` shard
//!   processes, route the suite sweeps through them, and assert every
//!   hot sweep is bit-identical to the first.
//! * `--shards ADDR,ADDR,...` — the same sweeps against an existing
//!   fleet of wire servers (no children spawned).
//! * `--router-smoke` — self-contained CI round trip, four legs: a
//!   3-shard suite batch proven bit-identical to an in-process
//!   baseline; a shard killed mid-stream with failover proven to
//!   complete; the victim restarted on its original port and proven
//!   re-admitted by health probes (with its keys warm-replayed) before
//!   serving again; and a fourth shard live-joined, driven, then
//!   retired again — with the fleet accounting ledger
//!   (`completed + rejected + timed_out + faulted == submitted`)
//!   proven intact across all four.
//!
//! `--replicas R` sets [`RouterConfig::replicas`] for the router modes
//! (default 1, primary-only placement). Under R > 1 each key's first R
//! live ring candidates are designated owners, so a kill costs a
//! zero-backoff hop to an already-warm replica instead of a discovery
//! timeout (the smoke asserts `timed_out == 0` across the kill leg under
//! `--replicas 2`).
//! `--probe-ms MS` arms the background health prober at that cadence;
//! without it the smoke exercises the synchronous
//! [`ShardRouter::probe_now`] path instead.
//!
//! Every mode drives the same batch: the full 22-workload suite × the
//! three variants (ExTensor-N, ExTensor-P, default overbooked Tailors)
//! at `scale` (default 1.0). The sweep driver applies the
//! `--mem-budget`, `--grid` and `--auto-plan` knobs to it and submits it
//! through [`SimService::submit_batch`]'s cost-balanced LPT scheduler;
//! the wire and router modes send it with the suite defaults. With
//! auto-planning on, execution plans come from the budget-aware auto
//! planner (cached per request key like any other plan) and `--verify`
//! diffs against a cold `Variant::auto_execution_plan` +
//! `Variant::run_planned` under the same cost model.
//!
//! `--verify` additionally recomputes every response cold — a direct
//! `Variant::run_gridded` on a freshly built profile — and asserts
//! bit-identical metrics. `--smoke-functional` runs a batch of mixed
//! variants *functionally* on a 50 000-column tensor through the service
//! and diffs each result against the seed engine
//! (`functional::reference_run`) under the identical configuration.

use std::io::BufRead;
use std::sync::Arc;
use std::time::Instant;

use tailors_serve::wire::{serve_lines, WireClient, WireTcpServer};
use tailors_serve::{
    FaultPlan, FunctionalRequest, Reply, RouterConfig, RuntimeConfig, ServeConfig, ServeError,
    ServiceRuntime, ShardRouter, SimRequest, SimResponse, SimService, Work,
};
use tailors_sim::functional::reference_run;
use tailors_sim::{ArchConfig, GridMode, Knobs, MemBudget, Variant};
use tailors_workloads::{Workload, WorkloadClass};

fn main() {
    let (knobs, args) = Knobs::from_args(Knobs::default());
    let Knobs {
        threads,
        mem_budget: budget,
        grid,
        auto_plan,
        cost_model,
        ..
    } = knobs;
    let mut scale = 1.0f64;
    let mut sweeps = 3usize;
    let mut verify = false;
    let mut smoke_functional = false;
    let mut wire_addr: Option<String> = None;
    let mut wire_stdio = false;
    let mut wire_smoke = false;
    let mut router: Option<usize> = None;
    let mut shard_list: Option<String> = None;
    let mut router_smoke = false;
    let mut replicas = 1usize;
    let mut probe_ms: Option<u64> = None;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--sweeps" => {
                sweeps = next("--sweeps")
                    .parse()
                    .expect("--sweeps: positive integer")
            }
            "--verify" => verify = true,
            "--smoke-functional" => smoke_functional = true,
            "--wire" => wire_addr = Some(next("--wire")),
            "--wire-stdio" => wire_stdio = true,
            "--wire-smoke" => wire_smoke = true,
            "--router" => {
                router = Some(
                    next("--router")
                        .parse()
                        .expect("--router: positive shard count"),
                )
            }
            "--shards" => shard_list = Some(next("--shards")),
            "--router-smoke" => router_smoke = true,
            "--replicas" => {
                replicas = next("--replicas")
                    .parse()
                    .expect("--replicas: positive replica count")
            }
            "--probe-ms" => {
                probe_ms = Some(
                    next("--probe-ms")
                        .parse()
                        .expect("--probe-ms: probe cadence in milliseconds"),
                )
            }
            other if !other.starts_with('-') => {
                scale = other.parse().expect("scale: a number in (0, 1]");
                assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
            }
            other => panic!("unknown argument {other:?}; see the module docs"),
        }
    }
    assert!(sweeps > 0, "--sweeps must be positive");

    if wire_stdio {
        run_wire_stdio(threads);
        return;
    }
    if let Some(addr) = wire_addr {
        run_wire_tcp(&addr, threads);
        return;
    }
    if wire_smoke {
        run_wire_smoke(scale, threads);
        return;
    }
    assert!(replicas > 0, "--replicas must be positive");
    assert!(probe_ms != Some(0), "--probe-ms must be positive");
    let router_config = RouterConfig {
        replicas,
        probe_interval: probe_ms.map(std::time::Duration::from_millis),
        ..RouterConfig::default()
    };
    if router_smoke {
        run_router_smoke(scale, threads, router_config);
        return;
    }
    if let Some(list) = shard_list {
        let endpoints: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        run_router_sweeps(&endpoints, scale, threads, sweeps, router_config);
        return;
    }
    if let Some(n) = router {
        assert!(n > 0, "--router needs at least one shard");
        let fleet = spawn_shard_fleet(n, threads);
        let endpoints: Vec<String> = fleet.iter().map(|s| s.addr.clone()).collect();
        run_router_sweeps(&endpoints, scale, threads, sweeps, router_config);
        for shard in fleet {
            shard.stop();
        }
        return;
    }

    let batch: Vec<SimRequest> = suite_batch(scale)
        .into_iter()
        .map(|req| SimRequest {
            budget,
            grid,
            auto_plan,
            ..req
        })
        .collect();
    let per_workload = variants().len();
    println!(
        "serve: {} requests/sweep ({} workloads x {} variants) at scale {scale}, \
         {threads} threads, budget {budget}, grid {grid}, auto-plan {auto_plan}, \
         cost model {}",
        batch.len(),
        batch.len() / per_workload,
        per_workload,
        if cost_model.is_uniform() {
            "uniform".to_string()
        } else {
            format!(
                "calibrated (fill {} / refetch {} / extract {} ps, key {:#018x})",
                cost_model.w_fill,
                cost_model.w_refetch,
                cost_model.w_extract,
                cost_model.key()
            )
        },
    );

    let service = SimService::with_config(ServeConfig {
        cost_model,
        ..ServeConfig::default()
    });
    let mut first: Option<Vec<SimResponse>> = None;
    for sweep in 1..=sweeps {
        let before = service.stats();
        let t = Instant::now();
        let responses = service.submit_batch(&batch, threads);
        let elapsed = t.elapsed();
        let after = service.stats();
        println!(
            "sweep {sweep}: {elapsed:.2?}  (profile {} hit / {} miss, plan {} hit / {} miss)",
            after.profile_hits - before.profile_hits,
            after.profile_misses - before.profile_misses,
            after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses,
        );
        // Steady state starts at sweep 2: every tier hot.
        if first.is_some() {
            assert!(
                responses.iter().all(|r| r.hits.profile && r.hits.plan),
                "steady-state sweeps must hit the profile and plan tiers"
            );
        }
        check_sweep(&mut first, responses, "hot sweep");
    }
    let stats = service.stats();
    println!(
        "steady state: plan hit rate {:.1} %, profile hit rate {:.1} % over {} requests",
        100.0 * stats.plan_hit_rate(),
        100.0 * stats.profile_hit_rate(),
        stats.requests,
    );

    if verify {
        println!("verify: diffing every served response against a cold Variant run ...");
        let t = Instant::now();
        let responses = first.as_ref().expect("at least one sweep ran");
        // The batch is grouped per workload (one request per variant), so
        // the O(nnz) profiling pass runs once per workload, not per
        // request.
        for (reqs, resps) in batch
            .chunks(per_workload)
            .zip(responses.chunks(per_workload))
        {
            let profile = tailors_workloads::generate_cached(&reqs[0].workload).profile();
            for (req, resp) in reqs.iter().zip(resps) {
                let direct = if req.auto_plan {
                    // Replan cold under the *same* cost model the service
                    // planned with — a calibrated service legitimately
                    // picks a different tiling than the uniform model
                    // would.
                    let tile = req.variant.plan(&profile, &req.arch);
                    let exec = req
                        .variant
                        .auto_execution_plan(&profile, &req.arch, req.budget, &tile, cost_model);
                    req.variant
                        .run_planned(&profile, &req.arch, &tile, &exec, req.grid)
                } else {
                    req.variant
                        .run_gridded(&profile, &req.arch, req.budget, req.grid)
                };
                assert_eq!(
                    resp.metrics,
                    direct,
                    "{} / {}: served metrics diverged from the direct run",
                    req.workload.name,
                    req.variant.name()
                );
            }
        }
        println!(
            "verify: all {} responses bit-identical ({:.2?})",
            batch.len(),
            t.elapsed()
        );
    }

    if smoke_functional {
        functional_smoke(&knobs);
    }
    println!("OK");
}

/// The variants every batch sweeps: the two ExTensor baselines and the
/// default overbooked Tailors configuration. A function, not a const,
/// because [`Variant::default_ob`] is the one source of that default.
fn variants() -> [Variant; 3] {
    [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ]
}

/// The suite batch every mode drives: 22 workloads × [`variants`], in
/// suite order, each request with the suite defaults of
/// [`SimRequest::suite`] (unbounded budget, panel grid, fixed plans).
fn suite_batch(scale: f64) -> Vec<SimRequest> {
    tailors_workloads::suite()
        .iter()
        .flat_map(|wl| {
            variants()
                .into_iter()
                .filter_map(|v| SimRequest::suite(wl.name, scale, v))
        })
        .collect()
}

/// The CI serving smoke: a batch of mixed variants executed *functionally*
/// at 50 000 columns through the service, each result diffed against the
/// seed engine under the identical derived configuration.
fn functional_smoke(knobs: &Knobs) {
    let workload = Workload {
        name: "serve-smoke-50k",
        nrows: 50_000,
        ncols: 50_000,
        target_nnz: 300_000,
        class: WorkloadClass::Graph,
        paper_sparsity: 1.0 - 300_000.0 / (50_000.0 * 50_000.0),
        variability: 0.5,
        seed: 77,
    };
    // A 1/64-scaled architecture keeps tile plans small enough that the
    // overbooked variant actually overbooks at this occupancy.
    let arch = ArchConfig::extensor().scaled(1.0 / 64.0);
    let budget = match knobs.mem_budget {
        // The suite sweep above may run unbounded; the functional engine
        // at 50 k columns must not (a full-width panel scratch would be
        // gigabytes), so floor the smoke at 256 MiB.
        MemBudget::Unbounded => MemBudget::mib(256),
        bounded => bounded,
    };
    println!(
        "functional smoke: {} x {} tensor, mixed variants, budget {budget}, grid {}",
        workload.nrows, workload.ncols, knobs.grid
    );
    let service = SimService::with_config(ServeConfig {
        cost_model: knobs.cost_model,
        ..ServeConfig::default()
    });
    let a = tailors_workloads::generate_cached(&workload);
    for variant in variants() {
        let req = FunctionalRequest {
            workload: workload.clone(),
            variant,
            arch,
            budget,
            grid: knobs.grid,
            auto_plan: knobs.auto_plan,
            threads: knobs.threads,
        };
        let t = Instant::now();
        let served = service.run_functional(&req).expect("served functional run");
        let served_time = t.elapsed();
        let t = Instant::now();
        let oracle = reference_run(&a, &served.config).expect("seed engine run");
        println!(
            "  {}: served {served_time:.2?} (tiling {} x {}), seed engine {:.2?}, z nnz {}",
            variant.name(),
            served.config.rows_a,
            served.config.cols_b,
            t.elapsed(),
            served.result.z.nnz(),
        );
        assert_eq!(
            served.result,
            oracle,
            "{}: served functional result diverged from reference_run",
            variant.name()
        );
    }
    println!("functional smoke: all variants bit-identical to reference_run");
}

/// The runtime every wire mode serves from: worker pool sized from the
/// thread knob, faults armed from `TAILORS_FAULTS`.
fn wire_runtime(threads: usize) -> Arc<ServiceRuntime> {
    let faults = FaultPlan::from_env();
    if faults.is_active() {
        eprintln!("wire: fault injection armed: {faults:?}");
        // Injected panics are expected traffic here; keep their default
        // hook output (message + backtrace) off stderr so the harness
        // logs stay readable. Real panics still print.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    Arc::new(ServiceRuntime::new(RuntimeConfig {
        workers: threads.clamp(1, 8),
        faults,
        ..RuntimeConfig::default()
    }))
}

/// `--wire-stdio`: protocol lines on stdin/stdout, diagnostics on stderr.
fn run_wire_stdio(threads: usize) {
    let runtime = wire_runtime(threads);
    eprintln!(
        "wire: serving line-delimited JSON on stdio ({} workers)",
        runtime.config().workers
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let report = serve_lines(&runtime, stdin.lock(), stdout.lock()).expect("stdio transport");
    let shutdown = runtime.shutdown();
    eprintln!(
        "wire: served {} requests ({} protocol errors); outcomes {:?}; {} unserved",
        report.served, report.protocol_errors, shutdown.stats, shutdown.unserved
    );
    assert_eq!(
        shutdown.stats.accounted(),
        shutdown.stats.submitted,
        "request accounting must balance"
    );
}

/// `--wire ADDR`: TCP front door; serves until stdin reaches EOF.
fn run_wire_tcp(addr: &str, threads: usize) {
    let runtime = wire_runtime(threads);
    let mut server = WireTcpServer::spawn(Arc::clone(&runtime), addr).expect("bind wire server");
    println!("wire: listening on {}", server.addr());
    println!("wire: close stdin (ctrl-d) to drain and exit");
    // Block until the controlling stream closes, then drain.
    for _line in std::io::stdin().lock().lines() {}
    server.stop();
    let shutdown = runtime.shutdown();
    println!(
        "wire: drained; outcomes {:?}; {} unserved",
        shutdown.stats, shutdown.unserved
    );
    assert_eq!(
        shutdown.stats.accounted(),
        shutdown.stats.submitted,
        "request accounting must balance"
    );
}

/// `--wire-smoke`: the CI round trip. Drives the suite batch through TCP
/// wire clients against an in-process baseline; under `TAILORS_FAULTS`
/// some requests fail with typed errors, but every *completed* reply must
/// stay bit-identical and every submission must be accounted for.
fn run_wire_smoke(scale: f64, threads: usize) {
    let runtime = wire_runtime(threads);
    let mut server =
        WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0").expect("bind wire server");
    let addr = server.addr();

    let batch = suite_batch(scale);
    println!(
        "wire smoke: {} analytical requests at scale {scale} against {addr}",
        batch.len()
    );

    // In-process baseline on a *separate* service: what every completed
    // wire reply must match bitwise.
    let baseline_service = SimService::new();
    let baseline: Vec<_> = batch.iter().map(|r| baseline_service.submit(r)).collect();

    let mut clients: Vec<WireClient> = (0..2)
        .map(|_| WireClient::connect(addr).expect("connect wire client"))
        .collect();
    let mut tally = Tally::default();
    let t = Instant::now();
    for (i, (req, expect)) in batch.iter().zip(&baseline).enumerate() {
        let outcome = clients[i % 2]
            .call(&Work::Sim(req.clone()))
            .expect("wire transport");
        tally.sim(outcome, expect, "wire");
    }

    // One functional request rides along, proving the heavyweight payload
    // (CSR output matrix included) survives the wire bit-for-bit.
    let fwl = tailors_workloads::by_name("email-Enron")
        .expect("suite workload")
        .scaled(1.0 / 64.0);
    let freq = FunctionalRequest {
        workload: fwl,
        variant: Variant::default_ob(),
        arch: ArchConfig::extensor().scaled(1.0 / 64.0),
        budget: MemBudget::mib(64),
        grid: GridMode::Grid2D,
        auto_plan: false,
        threads: threads.clamp(1, 4),
    };
    match clients[0].functional(&freq).expect("wire transport") {
        Ok(resp) => {
            let direct = baseline_service
                .run_functional(&freq)
                .expect("baseline functional run");
            assert_eq!(resp.config, direct.config);
            assert_eq!(
                resp.result, direct.result,
                "functional wire reply diverged from the in-process baseline"
            );
            tally.completed += 1;
        }
        Err(e) => tally.error(e),
    }
    let elapsed = t.elapsed();

    drop(clients);
    server.stop();
    let shutdown = runtime.shutdown();
    let stats = shutdown.stats;
    println!("wire smoke: {elapsed:.2?}; client view: {tally}");
    println!(
        "wire smoke: server view: {} submitted = {} completed + {} faulted + {} rejected + \
         {} timed out ({} panics isolated, {} injected panics, {} injected latency, \
         {} injected rejects); {} unserved at shutdown",
        stats.submitted,
        stats.completed,
        stats.faulted,
        stats.rejected,
        stats.timed_out,
        stats.panics_isolated,
        stats.injected_panics,
        stats.injected_latency,
        stats.injected_rejects,
        shutdown.unserved
    );
    // The accounting invariant: nothing lost, client and server agree.
    assert_eq!(
        stats.accounted(),
        stats.submitted,
        "request accounting must balance"
    );
    assert_eq!(
        tally.total(),
        stats.submitted,
        "client outcomes must account for every submission"
    );
    assert!(
        tally.completed > 0,
        "smoke must complete at least one request"
    );
    let faults = FaultPlan::from_env();
    if faults.panic_every.is_some() {
        assert!(
            stats.panics_isolated > 0,
            "panic injection was armed but no panic was isolated"
        );
        assert_eq!(
            stats.panics_isolated, stats.injected_panics,
            "every injected panic must be isolated (and nothing else may panic)"
        );
    }
    println!("wire smoke: every completed reply bit-identical to the in-process baseline");
    println!("OK");
}

// ---------------------------------------------------------------------------
// Sharded router modes
// ---------------------------------------------------------------------------

/// One spawned shard process: `serve --wire 127.0.0.1:0` with its stdin
/// piped (EOF is its drain-and-exit signal) and its bound address parsed
/// from the startup banner.
struct ChildShard {
    child: std::process::Child,
    addr: String,
}

impl ChildShard {
    /// Graceful stop: close stdin so the shard drains and exits, then
    /// reap it.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }

    /// Hard kill, as a crashed worker: no drain, connections reset.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns one shard process of this same binary at `bind` (which may be
/// `127.0.0.1:0` for an ephemeral port, or a concrete address when
/// restarting a crashed shard on its original port) and waits for it to
/// report its bound address. Shard stdout is drained on a thread so a
/// chatty shard can never block on a full pipe.
fn spawn_shard(i: usize, bind: &str, threads: usize) -> ChildShard {
    let exe = std::env::current_exe().expect("current executable path");
    let mut child = std::process::Command::new(&exe)
        .arg("--wire")
        .arg(bind)
        .arg("--threads")
        .arg(threads.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn shard {i}: {e}"));
    let stdout = child.stdout.take().expect("piped shard stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let bytes = reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("shard {i} stdout: {e}"));
        if bytes == 0 {
            panic!("shard {i} exited before binding its wire port");
        }
        if let Some(bound) = line.trim().strip_prefix("wire: listening on ") {
            break bound.to_string();
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });
    println!("router: shard {i} up at {addr}");
    ChildShard { child, addr }
}

/// Spawns `n` shard processes on ephemeral ports.
fn spawn_shard_fleet(n: usize, threads: usize) -> Vec<ChildShard> {
    (0..n)
        .map(|i| spawn_shard(i, "127.0.0.1:0", threads))
        .collect()
}

/// `--router N` / `--shards ...`: suite sweeps through the ring, hot
/// sweeps proven bit-identical to the first, fleet ledger proven
/// balanced.
fn run_router_sweeps(
    endpoints: &[String],
    scale: f64,
    threads: usize,
    sweeps: usize,
    config: RouterConfig,
) {
    let batch = suite_batch(scale);
    let works: Vec<Work> = batch.iter().cloned().map(Work::Sim).collect();
    println!(
        "router: {} requests/sweep over {} shards at scale {scale}, {threads} threads",
        works.len(),
        endpoints.len()
    );
    let router = ShardRouter::connect(endpoints, config).expect("router dials every shard");
    let mut first: Option<Vec<SimResponse>> = None;
    for sweep in 1..=sweeps {
        let t = Instant::now();
        let outcomes = router.submit_batch(&works);
        let elapsed = t.elapsed();
        let responses: Vec<SimResponse> = outcomes
            .into_iter()
            .map(|o| o.expect("request served").into_sim().expect("sim reply"))
            .collect();
        println!("router sweep {sweep}: {elapsed:.2?}");
        check_sweep(&mut first, responses, "routed sweep");
    }
    report_router(&router);
    println!("OK");
}

/// Prints the fleet ledger and per-shard rollup, asserting the
/// accounting invariant.
fn report_router(router: &ShardRouter) {
    let stats = router.stats();
    println!(
        "router: {} submitted = {} completed + {} faulted + {} rejected + {} timed out \
         ({} failovers, {} spills, {} reconnects, {} recoveries, {} warmups, {} shards down)",
        stats.submitted,
        stats.completed,
        stats.faulted,
        stats.rejected,
        stats.timed_out,
        stats.failovers,
        stats.spills,
        stats.reconnects,
        stats.recoveries,
        stats.warmups,
        stats.shards_down,
    );
    for (i, s) in router.shard_stats().iter().enumerate() {
        println!(
            "router: shard {i}: {} calls, {} replies, {} typed errors, {} transport errors, \
             {} reconnects, {} warmups{}{}",
            s.calls,
            s.replies,
            s.typed_errors,
            s.transport_errors,
            s.reconnects,
            s.warmups,
            if s.down { " [down]" } else { "" },
            if s.departed { " [departed]" } else { "" },
        );
    }
    assert_eq!(
        stats.accounted(),
        stats.submitted,
        "fleet accounting must balance"
    );
}

/// `--router-smoke`: the four-leg CI round trip. Leg one routes the
/// suite batch through three freshly spawned shards and proves every
/// completed reply bit-identical to an in-process baseline. Leg two
/// kills one shard mid-stream (a hard process kill, between the two
/// halves of the batch) and proves failover completes — the dead shard's
/// keys re-home, payloads stay bit-identical, and the fleet ledger stays
/// balanced. Leg three restarts the victim on its original port and
/// proves health probes re-admit it (warm-replaying its keys) before it
/// serves its ring slice again. Leg four live-joins a fourth shard,
/// drives the batch, retires it, and drives again — membership churn
/// with the ledger intact throughout. Under `--replicas 2` the kill leg
/// additionally proves `timed_out == 0`: a replica absorbs the victim's
/// keys with zero discovery cost.
fn run_router_smoke(scale: f64, threads: usize, config: RouterConfig) {
    let batch = suite_batch(scale);
    let works: Vec<Work> = batch.iter().cloned().map(Work::Sim).collect();
    let replicated = config.replicas > 1;
    println!(
        "router smoke: {} requests over 3 shards at scale {scale} (replicas {}, probe {:?})",
        works.len(),
        config.replicas,
        config.probe_interval,
    );
    let baseline_service = SimService::new();
    let baseline = baseline_service.submit_batch(&batch, threads.max(1));

    let mut fleet = spawn_shard_fleet(3, threads);
    let endpoints: Vec<String> = fleet.iter().map(|s| s.addr.clone()).collect();
    let router = ShardRouter::connect(&endpoints, config).expect("router dials every shard");

    // Leg one: everything healthy — route the whole batch.
    let t = Instant::now();
    let healthy = drive_router(&router, &works, &baseline);
    println!("router smoke leg 1: {:.2?}; {healthy}", t.elapsed());
    assert!(healthy.completed > 0, "leg 1 must complete requests");
    let stats = router.stats();
    assert_eq!(stats.shards_down, 0, "leg 1 must not lose a shard");
    assert_eq!(stats.failovers, 0, "leg 1 must not fail over");

    // Leg two: replay the batch in two halves and hard-kill one shard
    // between them — a shard that provably owns keys in the second half,
    // so failover is exercised, not just possible.
    let mid = works.len() / 2;
    let victim = router.primary(&works[mid]);
    let t = Instant::now();
    let mut leg2 = drive_router(&router, &works[..mid], &baseline[..mid]);
    println!("router smoke leg 2: killing shard {victim} mid-stream");
    fleet[victim].kill();
    leg2 += drive_router(&router, &works[mid..], &baseline[mid..]);
    println!(
        "router smoke leg 2: {:.2?}; {leg2} after losing shard {victim}",
        t.elapsed()
    );
    let stats = router.stats();
    assert_eq!(stats.shards_down, 1, "exactly the killed shard goes down");
    assert!(router.down_shards()[victim], "the victim is the down shard");
    assert!(
        stats.failovers >= 1,
        "losing an owning shard mid-stream must fail over"
    );
    if replicated {
        assert_eq!(
            stats.timed_out, 0,
            "replicated placement must absorb the kill without a single timeout"
        );
        assert_eq!(
            leg2.timed_out, 0,
            "no client-visible timeout under replication"
        );
    }

    // Leg three: the victim comes back on its original port — a crashed
    // process restarting — and health probes must re-admit it, replaying
    // its keys warm, before it serves its ring slice again.
    println!(
        "router smoke leg 3: restarting shard {victim} at {}",
        endpoints[victim]
    );
    fleet[victim] = spawn_shard(victim, &endpoints[victim], threads);
    if config.probe_interval.is_some() {
        // Bounded poll: the background prober clears the mark on its own.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while router.down_shards()[victim] {
            assert!(
                Instant::now() < deadline,
                "prober failed to re-admit shard {victim} within 10s"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    } else {
        assert_eq!(router.probe_now(), 1, "the restarted shard must recover");
    }
    let stats = router.stats();
    assert!(stats.recoveries >= 1, "recovery must be counted");
    assert_eq!(
        stats.shards_down, 0,
        "no shard may stay down after recovery"
    );
    assert!(
        stats.warmups >= 1,
        "recovery must warm-replay the victim's logged keys"
    );
    let replies_before = router.shard_stats()[victim].replies;
    let t = Instant::now();
    let recovered = drive_router(&router, &works, &baseline);
    println!(
        "router smoke leg 3: {:.2?}; {} completed after probe recovery",
        t.elapsed(),
        recovered.completed,
    );
    assert!(recovered.completed > 0, "leg 3 must complete requests");
    assert!(
        router.shard_stats()[victim].replies > replies_before,
        "the recovered shard must serve its ring keys again"
    );

    // Leg four: live membership. A fourth shard joins (taking its keys
    // warm), serves a batch, then leaves again — and takes no further
    // calls once departed.
    let fourth = spawn_shard(3, "127.0.0.1:0", threads);
    let joined = router
        .join(fourth.addr.as_str())
        .expect("join the fourth shard");
    let owned = works.iter().filter(|w| router.primary(w) == joined).count();
    println!(
        "router smoke leg 4: shard {joined} joined at {} (owns {owned} of {} requests)",
        fourth.addr,
        works.len()
    );
    let t = Instant::now();
    let post_join = drive_router(&router, &works, &baseline);
    assert!(post_join.completed > 0, "leg 4 must complete requests");
    if owned > 0 {
        assert!(
            router.shard_stats()[joined].replies > 0,
            "the joiner must serve the keys it took over"
        );
    }
    router.leave(joined).expect("retire the fourth shard");
    let calls_at_leave = router.shard_stats()[joined].calls;
    let post_leave = drive_router(&router, &works, &baseline);
    assert!(post_leave.completed > 0, "post-leave batch must complete");
    assert_eq!(
        router.shard_stats()[joined].calls,
        calls_at_leave,
        "departed shards take no further calls"
    );
    println!(
        "router smoke leg 4: {:.2?}; joined, served, and retired shard {joined} cleanly",
        t.elapsed()
    );
    fourth.stop();
    report_router(&router);

    for shard in fleet {
        shard.stop();
    }
    println!("router smoke: all four legs bit-identical to the in-process baseline");
    println!("OK");
}

/// Routes `works` and checks every completed reply bitwise against the
/// in-process `expect` baseline (see [`Tally::sim`]).
fn drive_router(router: &ShardRouter, works: &[Work], expect: &[SimResponse]) -> Tally {
    let mut tally = Tally::default();
    for (outcome, expect) in router.submit_batch(works).into_iter().zip(expect) {
        tally.sim(outcome, expect, "routed");
    }
    tally
}

/// Client-side outcome counts for the wire and router smokes; every
/// submission lands in exactly one bucket.
#[derive(Default)]
struct Tally {
    completed: u64,
    faulted: u64,
    rejected: u64,
    timed_out: u64,
}

impl Tally {
    /// Counts one analytical outcome; a completed reply must be
    /// bit-identical to the in-process `expect` baseline.
    fn sim(&mut self, outcome: Result<Reply, ServeError>, expect: &SimResponse, path: &str) {
        match outcome {
            Ok(reply) => {
                let resp = reply.into_sim().expect("sim reply");
                assert_eq!(resp.name, expect.name);
                assert_eq!(
                    resp.metrics, expect.metrics,
                    "{}: {path} reply diverged from the in-process baseline",
                    expect.name
                );
                self.completed += 1;
            }
            Err(e) => self.error(e),
        }
    }

    /// Counts one typed failure. Admission is sized generously for the
    /// smoke batches, so a rejection is legitimate only as an *injected*
    /// fault (`TAILORS_FAULTS` armed), and no smoke shuts its server
    /// down mid-run.
    fn error(&mut self, e: ServeError) {
        match e {
            ServeError::Faulted { .. } => self.faulted += 1,
            ServeError::Timeout { .. } => self.timed_out += 1,
            ServeError::Overloaded(_) | ServeError::BadRequest(_) => {
                assert!(
                    FaultPlan::from_env().is_active(),
                    "unexpected rejection without faults armed: {e}"
                );
                self.rejected += 1;
            }
            ServeError::Shutdown => panic!("server shut down mid-smoke"),
        }
    }

    fn total(&self) -> u64 {
        self.completed + self.faulted + self.rejected + self.timed_out
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.completed += other.completed;
        self.faulted += other.faulted;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} completed, {} faulted, {} rejected, {} timed out",
            self.completed, self.faulted, self.rejected, self.timed_out
        )
    }
}

/// Keeps the first sweep's responses and asserts every later sweep
/// bit-identical to them.
fn check_sweep(first: &mut Option<Vec<SimResponse>>, responses: Vec<SimResponse>, sweep: &str) {
    let Some(cold) = first else {
        *first = Some(responses);
        return;
    };
    assert_eq!(cold.len(), responses.len());
    for (c, h) in cold.iter().zip(&responses) {
        assert_eq!(c.name, h.name);
        assert_eq!(
            c.metrics, h.metrics,
            "{}: {sweep} diverged from the first",
            c.name
        );
    }
}

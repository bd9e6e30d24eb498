//! Shared harness code for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper (see `DESIGN.md`'s per-experiment index). They all accept one
//! optional positional argument: the workload scale factor in `(0, 1]`
//! (default `1.0` = paper scale; use e.g. `0.03125` for a quick pass).
//! Architecture capacities are scaled by the same factor so tensor-to-
//! buffer ratios — and hence the evaluation's shape — are preserved.
//!
//! The five run options (threads, mem budget, grid, auto-plan, cost
//! model) are resolved once per process by [`parse_cli`] through
//! [`Knobs`]: each comes from its flag (`--threads N`,
//! `--mem-budget SPEC`, `--grid MODE`, `--auto-plan`, `--calibrate`),
//! else its `TAILORS_*` variable (which is how `run_all`
//! hands them to every figure binary), else its default; see
//! [`tailors_sim::knobs`] for the grammar. None of them changes a
//! figure's numbers except the scratch stats the suite records.
//! `TAILORS_GEN_CACHE` names the on-disk tensor-generation cache
//! directory (see [`generate_cached`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tailors_sim::{run_balanced, ArchConfig, Knobs, RunMetrics, Variant};
use tailors_tensor::MatrixProfile;
use tailors_workloads::Workload;

// The generation caches moved to `tailors-workloads` so the serving layer
// (`tailors-serve`) can share them without depending on the bench harness;
// re-exported here so existing `tailors_bench::generate_cached` callers
// keep working.
pub use tailors_workloads::{generate_cached, profile_cached};

/// Results of running all three variants on one workload.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The workload (already scaled).
    pub workload: Workload,
    /// The workload's occupancy profile.
    pub profile: MatrixProfile,
    /// ExTensor-N metrics.
    pub n: RunMetrics,
    /// ExTensor-P metrics.
    pub p: RunMetrics,
    /// ExTensor-OB metrics (y = 10 %, k = 10).
    pub ob: RunMetrics,
}

impl SuiteRun {
    /// Speedup of P over N (a Fig. 7 bar).
    pub fn speedup_p(&self) -> f64 {
        self.p.speedup_over(&self.n)
    }

    /// Speedup of OB over N (a Fig. 7 bar).
    pub fn speedup_ob(&self) -> f64 {
        self.ob.speedup_over(&self.n)
    }

    /// Energy gain of P over N (a Fig. 8 bar).
    pub fn energy_gain_p(&self) -> f64 {
        self.p.energy_gain_over(&self.n)
    }

    /// Energy gain of OB over N (a Fig. 8 bar).
    pub fn energy_gain_ob(&self) -> f64 {
        self.ob.energy_gain_over(&self.n)
    }
}

/// Resolves this process's command line: the [`Knobs`] (flags, then
/// `TAILORS_*` variables, then defaults) and the scale factor, the one
/// positional argument (default 1.0).
///
/// # Panics
///
/// Panics with a usage message if the scale is present but not a number
/// in `(0, 1]`, on any other argument, or on a malformed knob.
pub fn parse_cli() -> (f64, Knobs) {
    let (knobs, rest) = Knobs::from_args(Knobs::default());
    let usage = "usage: <bin> [scale in (0,1]] [knob flags]";
    let scale = match rest.as_slice() {
        [] => 1.0,
        [s] => {
            let v: f64 = s.parse().unwrap_or_else(|_| panic!("{usage}, got {s:?}"));
            assert!(v > 0.0 && v <= 1.0, "scale must be in (0, 1]");
            v
        }
        _ => panic!("{usage}, got {rest:?}"),
    };
    (scale, knobs)
}

/// The architecture used by every figure, scaled consistently.
pub fn arch_at(scale: f64) -> ArchConfig {
    ArchConfig::extensor().scaled(scale)
}

/// Generates one workload at `scale` (through the generation caches — see
/// [`generate_cached`] / [`profile_cached`]) and returns its profile. The
/// full tensor is released as soon as the profile is extracted; repeated
/// calls for the same workload and scale hit the strong profile cache.
pub fn profile_at(workload: &Workload, scale: f64) -> (Workload, MatrixProfile) {
    let scaled = workload.scaled(scale);
    let profile = MatrixProfile::clone(&profile_cached(&scaled));
    (scaled, profile)
}

/// Runs the three variants over the whole 22-workload suite, fanning the
/// independent workload runs across `knobs.threads` worker threads
/// (`1` = fully serial). Every workload is seeded and independent and
/// results are reassembled in suite order, so the output is identical
/// for any count.
///
/// The budget, grid and auto-plan knobs never change hardware counts;
/// they are recorded in each run's `scratch` stats so sweeps can report
/// feasibility and parallel width. Auto plans are chosen under
/// `knobs.cost_model`.
///
/// The fan-out is *cost-chunked*: workloads land in
/// [`balanced_partition`](tailors_sim::balanced_partition) bins weighted
/// by their scaled size instead of uniform contiguous splits. The suite's
/// sizes span two orders of magnitude (Table 2 runs from 63 k- to 2 M-row
/// tensors), so a uniform split leaves every thread but the one holding
/// the giants idle — cost-shaped bins are what actually separates the
/// parallel and serial curves (the vendored rayon never steals work).
///
/// # Panics
///
/// Panics if `knobs.threads == 0`.
pub fn simulate_suite(scale: f64, knobs: &Knobs) -> Vec<SuiteRun> {
    assert!(knobs.threads > 0, "thread count must be positive");
    let arch = arch_at(scale);
    let one = |wl: &Workload| {
        let (workload, profile) = profile_at(wl, scale);
        let run = |v: Variant| {
            if knobs.auto_plan {
                let tile = v.plan(&profile, &arch);
                let exec = v.auto_execution_plan(
                    &profile,
                    &arch,
                    knobs.mem_budget,
                    &tile,
                    knobs.cost_model,
                );
                v.run_planned(&profile, &arch, &tile, &exec, knobs.grid)
            } else {
                v.run_gridded(&profile, &arch, knobs.mem_budget, knobs.grid)
            }
        };
        let n = run(Variant::ExTensorN);
        let p = run(Variant::ExTensorP);
        let ob = run(Variant::default_ob());
        SuiteRun {
            workload,
            profile,
            n,
            p,
            ob,
        }
    };
    let suite = tailors_workloads::suite();
    // Generation and simulation cost both scale with the tensor's nonzero
    // count (plus a per-row term for profiles and row-panel sums).
    let costs: Vec<u128> = suite
        .iter()
        .map(|wl| {
            let s = wl.scaled(scale);
            s.target_nnz as u128 + s.nrows as u128 + 1
        })
        .collect();
    run_balanced(suite.len(), &costs, knobs.threads, |i| one(&suite[i]))
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a count with thousands separators for table readability.
pub fn fmt_count(v: u128) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// An ASCII bar of `frac` (clamped to `[0, 1]`) out of `width` cells.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 3), "###");
        assert_eq!(bar(-1.0, 3), "...");
    }

    fn threads(n: usize) -> Knobs {
        Knobs {
            threads: n,
            ..Knobs::default()
        }
    }

    #[test]
    fn suite_results_do_not_depend_on_thread_count() {
        let scale = 1.0 / 256.0;
        let serial = simulate_suite(scale, &threads(1));
        let parallel = simulate_suite(scale, &threads(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.workload.name, p.workload.name);
            assert_eq!(s.n.cycles.to_bits(), p.n.cycles.to_bits());
            assert_eq!(s.speedup_ob().to_bits(), p.speedup_ob().to_bits());
            assert_eq!(s.energy_gain_p().to_bits(), p.energy_gain_p().to_bits());
        }
    }

    /// The suite's auto plans come from `knobs.cost_model`: a skewed model
    /// reaches every variant's plan and moves at least one of them.
    #[test]
    fn suite_auto_plans_use_the_knob_cost_model() {
        let scale = 1.0 / 64.0;
        let skewed = tailors_sim::CostModel {
            w_fill: 1,
            w_refetch: 1,
            w_extract: 1_000,
        };
        let knobs = Knobs {
            threads: 2,
            mem_budget: tailors_sim::MemBudget::bytes(256 << 10),
            auto_plan: true,
            cost_model: skewed,
            ..Knobs::default()
        };
        let uniform = simulate_suite(
            scale,
            &Knobs {
                cost_model: tailors_sim::CostModel::UNIFORM,
                ..knobs
            },
        );
        let runs = simulate_suite(scale, &knobs);
        let arch = arch_at(scale);
        let mut moved = 0;
        for (r, u) in runs.iter().zip(&uniform) {
            let variants = [
                Variant::ExTensorN,
                Variant::ExTensorP,
                Variant::default_ob(),
            ];
            for (v, (m, um)) in variants
                .iter()
                .zip([(&r.n, &u.n), (&r.p, &u.p), (&r.ob, &u.ob)])
            {
                let tile = v.plan(&r.profile, &arch);
                let exec =
                    v.auto_execution_plan(&r.profile, &arch, knobs.mem_budget, &tile, skewed);
                assert_eq!(
                    m.scratch,
                    exec.scratch_stats(knobs.grid),
                    "{}",
                    r.workload.name
                );
                moved += usize::from(m.scratch != um.scratch);
            }
        }
        assert!(moved > 0, "the skewed model must move at least one plan");
    }

    #[test]
    fn suite_run_smoke() {
        // A very small scale keeps this test fast while exercising the
        // whole pipeline.
        let runs = simulate_suite(1.0 / 256.0, &Knobs::default());
        assert_eq!(runs.len(), 22);
        for r in &runs {
            assert!(r.n.cycles > 0.0);
            assert!(r.speedup_p() > 0.0);
            assert!(r.speedup_ob() > 0.0);
            assert!(r.energy_gain_ob() > 0.0);
        }
    }
}

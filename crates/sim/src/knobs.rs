//! The one place the workspace's five run options are resolved.
//!
//! Every binary (the figure suite, `run_all`, `functional_smoke`,
//! `serve`) accepts the same five knobs, each with one grammar:
//!
//! | knob         | flag                | fallback variable     | default              |
//! |--------------|---------------------|-----------------------|----------------------|
//! | threads      | `--threads N`       | `TAILORS_THREADS`     | rayon's thread count |
//! | mem budget   | `--mem-budget SPEC` | `TAILORS_MEM_BUDGET`  | unbounded            |
//! | grid         | `--grid MODE`       | `TAILORS_GRID`        | panels               |
//! | auto-plan    | `--auto-plan`       | `TAILORS_AUTO_PLAN`   | off                  |
//! | cost model   | `--calibrate`       | `TAILORS_CALIBRATE`   | uniform              |
//!
//! A flag wins over its variable, and the variable over the default.
//! `SPEC` is anything [`MemBudget::parse`] accepts, `MODE` anything
//! [`GridMode::parse`] accepts; the boolean variables take `1`/`true`/
//! `yes` or `0`/`false`/`no` (case-insensitive, empty = off). A
//! malformed value panics with a message naming the flag or variable it
//! came from.
//!
//! [`Knobs::resolve`] is the pure resolver (the environment is an
//! injected lookup, so the grammar is testable without touching the
//! process environment); [`Knobs::from_args`] applies it to the running
//! process, and [`Knobs::child_env`] hands the resolved values on to
//! child processes (`run_all`'s figure binaries) through the same
//! variables.

use crate::exec::{CostModel, GridMode, MemBudget};

/// The five resolved run options. None of them changes a result: they
/// pick thread counts, memory bounds, parallel decomposition and tiling,
/// all of which the engines are bit-identical across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Worker threads (`1` = the serial path).
    pub threads: usize,
    /// Per-thread dense-scratch budget of the execution planner.
    pub mem_budget: MemBudget,
    /// Functional grid decomposition.
    pub grid: GridMode,
    /// Whether execution plans come from the budget-aware auto planner
    /// instead of the variants' fixed panel heights.
    pub auto_plan: bool,
    /// The auto planner's term weights: [`CostModel::UNIFORM`], or
    /// [`CostModel::calibrated`] under `--calibrate`.
    pub cost_model: CostModel,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            threads: rayon::current_num_threads(),
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
            cost_model: CostModel::UNIFORM,
        }
    }
}

impl Knobs {
    /// Resolves the knobs from this process's command line (program name
    /// skipped) and environment, falling back to `defaults`; returns them
    /// with the arguments that are not knob flags, in order.
    ///
    /// # Panics
    ///
    /// As [`Knobs::resolve`].
    pub fn from_args(defaults: Knobs) -> (Knobs, Vec<String>) {
        Knobs::resolve(defaults, std::env::args().skip(1), |name| {
            std::env::var(name).ok()
        })
    }

    /// Resolves the knobs from `args` (knob flags are consumed, everything
    /// else is returned in order) and the variables `env` looks up,
    /// falling back to `defaults` for knobs that neither sets.
    ///
    /// # Panics
    ///
    /// Panics if a value flag has no value, or if a flag or variable
    /// holds a malformed value; the message names the flag or variable.
    pub fn resolve(
        defaults: Knobs,
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> (Knobs, Vec<String>) {
        let (mut threads, mut mem_budget, mut grid) = (None, None, None);
        let (mut auto_plan, mut calibrate) = (false, false);
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                Some(
                    args.next()
                        .unwrap_or_else(|| panic!("{flag} requires a value")),
                )
            };
            match arg.as_str() {
                "--threads" => threads = value("--threads"),
                "--mem-budget" => mem_budget = value("--mem-budget"),
                "--grid" => grid = value("--grid"),
                "--auto-plan" => auto_plan = true,
                "--calibrate" => calibrate = true,
                _ => rest.push(arg),
            }
        }
        // A value knob's source (flag or variable name) and raw value:
        // the flag's if given, else the variable's.
        let pick = |value: Option<String>, flag: &'static str, var: &'static str| {
            value
                .map(|v| (flag, v))
                .or_else(|| env(var).map(|v| (var, v)))
        };
        // A switch is on when its flag is given, else its variable decides.
        let switch = |on: bool, var: &str, parse: fn(&str) -> Result<bool, String>| {
            if on {
                Some(true)
            } else {
                env(var).map(|v| parsed(var, &v, parse))
            }
        };
        let knobs = Knobs {
            threads: pick(threads, "--threads", "TAILORS_THREADS")
                .map_or(defaults.threads, |(k, v)| parsed(k, &v, parse_threads)),
            mem_budget: pick(mem_budget, "--mem-budget", "TAILORS_MEM_BUDGET")
                .map_or(defaults.mem_budget, |(k, v)| {
                    parsed(k, &v, MemBudget::parse)
                }),
            grid: pick(grid, "--grid", "TAILORS_GRID")
                .map_or(defaults.grid, |(k, v)| parsed(k, &v, GridMode::parse)),
            auto_plan: switch(auto_plan, "TAILORS_AUTO_PLAN", parse_bool)
                .unwrap_or(defaults.auto_plan),
            cost_model: match switch(calibrate, "TAILORS_CALIBRATE", parse_bool) {
                Some(true) => CostModel::calibrated(),
                Some(false) => CostModel::UNIFORM,
                None => defaults.cost_model,
            },
        };
        (knobs, rest)
    }

    /// The variables that hand these knobs to a child process: resolving
    /// them there reproduces every knob. A non-uniform cost model is
    /// passed as `TAILORS_CALIBRATE=1`, so the child measures its own
    /// weights.
    pub fn child_env(&self) -> Vec<(&'static str, String)> {
        let flag = |on: bool| if on { "1" } else { "0" }.to_string();
        vec![
            ("TAILORS_THREADS", self.threads.to_string()),
            ("TAILORS_MEM_BUDGET", self.mem_budget.to_string()),
            ("TAILORS_GRID", self.grid.to_string()),
            ("TAILORS_AUTO_PLAN", flag(self.auto_plan)),
            (
                "TAILORS_CALIBRATE",
                flag(self.cost_model != CostModel::UNIFORM),
            ),
        ]
    }
}

/// `parse(value)`, or a panic naming the knob's `source` (flag or
/// variable) and the problem.
fn parsed<T>(source: &str, value: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    parse(value).unwrap_or_else(|e| panic!("{source}: {e}"))
}

fn parse_threads(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("must be a positive integer, got {s:?}")),
    }
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" => Ok(true),
        "" | "0" | "false" | "no" => Ok(false),
        _ => Err(format!("must be a boolean, got {s:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn resolve(defaults: Knobs, args: &[&str], env: &[(&str, &str)]) -> (Knobs, Vec<String>) {
        let env: HashMap<&str, &str> = env.iter().copied().collect();
        let args = args.iter().map(|a| a.to_string());
        Knobs::resolve(defaults, args, |name| env.get(name).map(|v| v.to_string()))
    }

    /// `knob`'s resolved value, rendered, and its variable's name.
    fn show(k: &Knobs, knob: &str) -> (String, &'static str) {
        match knob {
            "--threads" => (k.threads.to_string(), "TAILORS_THREADS"),
            "--mem-budget" => (k.mem_budget.to_string(), "TAILORS_MEM_BUDGET"),
            "--grid" => (k.grid.to_string(), "TAILORS_GRID"),
            "--auto-plan" => (k.auto_plan.to_string(), "TAILORS_AUTO_PLAN"),
            _ => (
                (k.cost_model == CostModel::calibrated()).to_string(),
                "TAILORS_CALIBRATE",
            ),
        }
    }

    fn panic_message(args: &[&str], env: &[(&str, &str)]) -> String {
        let err = std::panic::catch_unwind(|| resolve(Knobs::default(), args, env))
            .expect_err("must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// The knob table over an injected environment: every spelling
    /// through the flag and the variable alike, flag over variable,
    /// every malformed value panicking with its knob's name, and the
    /// child-process hand-off.
    #[test]
    fn knob_table() {
        let d = Knobs::default();
        // (flag, spellings separated by '|', resolved value)
        let valid = [
            ("--threads", "1", "1"),
            ("--threads", "4| 4 ", "4"),
            ("--mem-budget", "unbounded|NONE|none", "unbounded"),
            ("--mem-budget", "1024|1kib|1KB|1K|1024b", "1024B"),
            ("--mem-budget", "512b|512", "512B"),
            ("--mem-budget", "4K|4096", "4096B"),
            ("--mem-budget", "64KiB|64k", "65536B"),
            (
                "--mem-budget",
                "256MiB|256mb|256m| 256 MiB |262144K",
                "256MiB",
            ),
            ("--mem-budget", "2G|2gib|2GB| 2g ", "2048MiB"),
            ("--grid", "panels|1D|PANELS", "panels"),
            ("--grid", "2d| 2d |GRID|Grid2D", "2d"),
            ("--auto-plan", "1|true|YES| True ", "true"),
            ("--auto-plan", "0|false|No||  ", "false"),
            ("--calibrate", "1|true|yes", "true"),
            ("--calibrate", "0|FALSE|no|", "false"),
        ];
        for (flag, spellings, want) in valid {
            let switch = !matches!(flag, "--threads" | "--mem-budget" | "--grid");
            for s in spellings.split('|') {
                let var = show(&d, flag).1;
                let (k, _) = resolve(d, &[], &[(var, s)]);
                assert_eq!(show(&k, flag).0, want, "{var}={s:?}");
                // The flag gives the same value, and a variable it
                // overrides is never even parsed.
                let args: &[&str] = if switch { &[flag] } else { &[flag, s] };
                if !switch || want == "true" {
                    let (k, _) = resolve(d, args, &[(var, "garbage")]);
                    assert_eq!(show(&k, flag).0, want, "{flag} {s:?}");
                }
            }
        }
        // Unset knobs keep the caller's defaults (a binary's own budget).
        let smoke = Knobs {
            mem_budget: MemBudget::mib(256),
            ..d
        };
        assert_eq!(resolve(smoke, &[], &[]).0, smoke);

        // (flag, malformed spellings separated by '|')
        let malformed = [
            ("--threads", "0|-2|many|"),
            ("--mem-budget", "lots|12.5M|12XB|-1M||99999999999999999999G"),
            ("--grid", "3d|"),
            ("--auto-plan", "always|2"),
            ("--calibrate", "maybe"),
        ];
        for (flag, spellings) in malformed {
            let var = show(&d, flag).1;
            for bad in spellings.split('|') {
                let msg = panic_message(&[], &[(var, bad)]);
                assert!(msg.starts_with(var), "{var}={bad:?}: {msg}");
                if matches!(flag, "--threads" | "--mem-budget" | "--grid") {
                    let msg = panic_message(&[flag, bad], &[]);
                    assert!(msg.starts_with(flag), "{flag} {bad:?}: {msg}");
                    let msg = panic_message(&[flag], &[]);
                    assert!(msg.starts_with(flag), "{flag} without a value: {msg}");
                }
            }
        }

        // Other arguments pass through in order.
        let args = [
            "0.5",
            "--threads",
            "2",
            "--verify",
            "--cols",
            "7",
            "--auto-plan",
        ];
        let (k, rest) = resolve(d, &args, &[]);
        assert_eq!((k.threads, k.auto_plan), (2, true));
        assert_eq!(rest, ["0.5", "--verify", "--cols", "7"]);

        // A child resolving `child_env` gets the same knobs back.
        let knobs = [
            d,
            smoke,
            Knobs {
                threads: 3,
                mem_budget: MemBudget::bytes(12_345),
                grid: GridMode::Grid2D,
                auto_plan: true,
                cost_model: CostModel::calibrated(),
            },
        ];
        for k in knobs {
            let vars: HashMap<&str, String> = k.child_env().into_iter().collect();
            let child = Knobs::resolve(d, Vec::new(), |name| vars.get(name).cloned()).0;
            assert_eq!(child, k);
        }
    }
}

//! The harness pieces of `perfbench` that need no running stack: the
//! metric tables, nearest-rank percentiles, reply digests, the seeded
//! request lists, and the process-environment pin with its metadata
//! stamp. `main.rs` drives the workloads on top of them.

#![forbid(unsafe_code)]

use std::fmt::{self, Debug, Write as _};

use tailors_serve::{FunctionalRequest, SimRequest};
use tailors_sim::functional::FunctionalResult;
use tailors_sim::{ArchConfig, GridMode, MemBudget, Variant};

// ---------------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------------

/// One end-to-end metric, reported by every untraced run.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// One per-layer metric, reported by every traced run, with the
/// end-to-end metric and workload it is expected to move.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Which end-to-end metric(s) on which workload(s) this layer moves.
    pub moves: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: &[Metric] = &[
    m("throughput_rps", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("latency_tail_us", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. Time metrics are
/// mean self time per traced request (zero for a request whose path
/// skips the layer), so the layers on a workload's path add up to its
/// traced mean latency.
pub const PER_LAYER: &[LayerMetric] = &[
    l(
        "shard.route_self_us",
        "us",
        "lower",
        "latency_p50_us on sim_hot",
    ),
    l("shard.failovers", "count", "lower", "error_rate on sim_hot"),
    l("shard.spills", "count", "lower", "error_rate on sim_hot"),
    l(
        "shard.reconnects",
        "count",
        "lower",
        "error_rate on sim_hot",
    ),
    l(
        "wire.encode_request_us",
        "us",
        "lower",
        "latency_p50_us on sim_hot",
    ),
    l(
        "wire.decode_request_us",
        "us",
        "lower",
        "latency_p50_us on sim_hot",
    ),
    l(
        "wire.encode_reply_us",
        "us",
        "lower",
        "latency_p50_us on sim_hot; peak_rss_mb for large replies",
    ),
    l(
        "wire.decode_reply_us",
        "us",
        "lower",
        "latency_p50_us on sim_hot; peak_rss_mb for large replies",
    ),
    l(
        "wire.request_bytes",
        "bytes",
        "lower",
        "latency_p50_us on sim_hot",
    ),
    l(
        "wire.reply_bytes",
        "bytes",
        "lower",
        "latency_p50_us on sim_hot; peak_rss_mb for large replies",
    ),
    l(
        "wire.socket_self_us",
        "us",
        "lower",
        "latency_p50_us and throughput_rps on sim_hot",
    ),
    l("runtime.hop_us", "us", "lower", "latency_p50_us on sim_hot"),
    l(
        "runtime.rejected",
        "count",
        "lower",
        "error_rate on sim_hot",
    ),
    l(
        "runtime.timed_out",
        "count",
        "lower",
        "error_rate on sim_hot",
    ),
    l("runtime.faulted", "count", "lower", "error_rate on sim_hot"),
    l(
        "service.self_us",
        "us",
        "lower",
        "latency_p50_us on sim_hot and spmspm",
    ),
    l(
        "service.submit_hot_us",
        "us",
        "lower",
        "latency_p50_us on sim_hot",
    ),
    l(
        "service.plan_hit_rate",
        "ratio",
        "higher",
        "latency_p50_us on sim_hot (miss path on sim_cold)",
    ),
    l(
        "service.plan_lookups",
        "count",
        "higher",
        "base of service.plan_hit_rate",
    ),
    l(
        "service.profile_hit_rate",
        "ratio",
        "higher",
        "latency_p50_us on sim_hot (miss path on sim_cold)",
    ),
    l(
        "service.profile_lookups",
        "count",
        "higher",
        "base of service.profile_hit_rate",
    ),
    l(
        "tensor.content_hash_ms",
        "ms",
        "lower",
        "throughput_rps and latency_tail_us on sim_cold",
    ),
    l(
        "tensor.profile_ms",
        "ms",
        "lower",
        "throughput_rps and latency_tail_us on sim_cold",
    ),
    l(
        "swiftiles.estimate_us",
        "us",
        "lower",
        "throughput_rps and latency_tail_us on sim_cold",
    ),
    l(
        "sim.plan_us",
        "us",
        "lower",
        "throughput_rps and latency_tail_us on sim_cold",
    ),
    l(
        "sim.model_us",
        "us",
        "lower",
        "throughput_rps on sim_cold; latency_p50_us on sim_hot",
    ),
    l(
        "functional.engine_ms",
        "ms",
        "lower",
        "latency_p50_us and throughput_rps on spmspm",
    ),
    l(
        "sim.ob_speedup_geomean",
        "x",
        "higher",
        "none: simulated, must not move on a host-only change",
    ),
    l(
        "sim.overbooking_mae",
        "ratio",
        "lower",
        "none: simulated, must not move on a host-only change",
    ),
    l(
        "functional.dram_a_fetches",
        "count",
        "lower",
        "none: simulated, must not move on a host-only change",
    ),
    l(
        "functional.dram_b_fetches",
        "count",
        "lower",
        "none: simulated, must not move on a host-only change",
    ),
    l(
        "functional.overbooked_a_tiles",
        "count",
        "lower",
        "none: simulated, must not move on a host-only change",
    ),
    l(
        "trace.samples",
        "count",
        "higher",
        "base of every trace.* ratio",
    ),
    l(
        "trace.untraced_mean_us",
        "us",
        "lower",
        "base of trace.unattributed_pct",
    ),
    l(
        "trace.unattributed_us",
        "us",
        "lower",
        "reconciliation residual (target within 10% of the base)",
    ),
    l(
        "trace.unattributed_pct",
        "%",
        "lower",
        "reconciliation residual (target within 10%)",
    ),
    l(
        "trace.untraced_p50_us",
        "us",
        "lower",
        "base of trace.overhead_pct",
    ),
    l(
        "trace.overhead_pct",
        "%",
        "lower",
        "tracing overhead: traced against untraced p50",
    ),
];

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, then at most 63 more letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Fewest samples a percentile needs strictly above its rank.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `sorted`
/// (ascending). Refuses, with the sample count it would need, when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond the rank: such a tail
/// is one or two outliers, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile must be in (0, 100)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    // `p * n / 100` keeps integral ranks exact (`0.9 * 100.0` is not 90).
    let rank = ((p * n as f64 / 100.0).ceil() as usize).max(1);
    if n < rank + MIN_SAMPLES_BEYOND {
        let needed = samples_for(p);
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; needs {needed} samples",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// The fewest samples for which [`percentile`] reports `p`.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| n >= ((p * n as f64 / 100.0).ceil() as usize).max(1) + MIN_SAMPLES_BEYOND)
        .expect("some sample count suffices for p < 100")
}

/// The median of `values` (any order; the mean of the middle pair for
/// an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a: bytes through [`fmt::Write`], whole words through
/// [`Fnv::word`].
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Folds one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        Ok(())
    }
}

/// Digest of a value's `Debug` rendering. Rust renders every `f64` in
/// its shortest round-trip form, so two values share a digest exactly
/// when every float agrees bit for bit (NaN payloads aside).
pub fn digest_debug<T: Debug + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv::default();
    write!(h, "{value:?}").expect("hashing into Fnv cannot fail");
    h.finish()
}

/// Digest of a functional result: the output matrix word by word (values
/// by bit pattern) and the three traffic counters.
pub fn digest_functional(r: &FunctionalResult) -> u64 {
    let mut h = Fnv::default();
    h.word(r.z.nrows() as u64);
    h.word(r.z.ncols() as u64);
    r.z.row_ptr().iter().for_each(|&p| h.word(p as u64));
    r.z.col_indices().iter().for_each(|&c| h.word(c as u64));
    r.z.values().iter().for_each(|v| h.word(v.to_bits()));
    h.word(r.dram_a_fetches);
    h.word(r.dram_b_fetches);
    h.word(r.overbooked_a_tiles as u64);
    h.finish()
}

// ---------------------------------------------------------------------------
// Request lists
// ---------------------------------------------------------------------------

/// Scale of the `sim_hot` and functional workloads' tensors.
pub const HOT_SCALE: f64 = 1.0 / 64.0;
/// Scale of the `sim_cold` workload's tensors.
pub const COLD_SCALE: f64 = 1.0 / 8.0;
/// Suite tensors the functional workload multiplies (A·Aᵀ).
pub const FUNCTIONAL_TENSORS: [&str; 8] = [
    "roadNet-CA",
    "webbase-1M",
    "web-Google",
    "cant",
    "pdb1HYS",
    "cage12",
    "amazon0312",
    "mc2depi",
];
/// Engine threads of each functional request (at most `nproc` here).
pub const FUNCTIONAL_THREADS: usize = 2;

/// SplitMix64: the seed stream for the request order.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by the run seed.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed ^ 0x0bde_5eed_0bde_5eed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The three paper variants, in Table 1 order.
pub fn variants() -> [Variant; 3] {
    [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ]
}

/// Shuffles whole tensors, keeping each tensor's requests adjacent and
/// in variant order: the first request naming a tensor is the one a cold
/// service hashes and profiles it for, so this keeps that cost on the
/// same variant for every seed.
fn shuffled_by_tensor<T: Clone>(groups: Vec<Vec<T>>, seed: u64) -> Vec<T> {
    let mut groups = groups;
    shuffle(&mut groups, seed);
    groups.concat()
}

/// The 22 suite tensors × 3 variants at `scale` (66 keys), unbounded
/// budget, default grid, fixed tiling, tensors in seed-shuffled order.
///
/// The seed orders the requests but leaves the tensors' generator seeds
/// alone. Tile sizes, and with them each request's cost, swing up to 2×
/// between generator seeds, and the median of a few dozen request types
/// then moves by more than the benchmark's bounds from one seed to the
/// next (see [`functional_requests`]).
pub fn sim_requests(scale: f64, seed: u64) -> Vec<SimRequest> {
    let arch = ArchConfig::extensor().scaled(scale);
    let groups = tailors_workloads::suite()
        .iter()
        .map(|wl| {
            let wl = wl.scaled(scale);
            variants()
                .map(|variant| SimRequest {
                    workload: wl.clone(),
                    variant,
                    arch,
                    budget: MemBudget::Unbounded,
                    grid: GridMode::default(),
                    auto_plan: false,
                })
                .to_vec()
        })
        .collect();
    shuffled_by_tensor(groups, seed)
}

/// The functional A·Aᵀ requests: [`FUNCTIONAL_TENSORS`] × {ExTensor-P,
/// ExTensor-OB} at [`HOT_SCALE`], panel grid, unbounded budget,
/// [`FUNCTIONAL_THREADS`] engine threads, tensors in seed-shuffled order.
/// As in [`sim_requests`], the seed does not touch the tensors: with 16
/// request types whose run times move with the tiling, perturbed tensors
/// put the median on a different request from one seed to the next.
pub fn functional_requests(seed: u64) -> Vec<FunctionalRequest> {
    let arch = ArchConfig::extensor().scaled(HOT_SCALE);
    let groups = FUNCTIONAL_TENSORS
        .iter()
        .map(|name| {
            let wl = tailors_workloads::by_name(name)
                .expect("functional tensor is in the suite")
                .scaled(HOT_SCALE);
            [Variant::ExTensorP, Variant::default_ob()]
                .map(|variant| FunctionalRequest {
                    workload: wl.clone(),
                    variant,
                    arch,
                    budget: MemBudget::Unbounded,
                    grid: GridMode::Panels,
                    auto_plan: false,
                    threads: FUNCTIONAL_THREADS,
                })
                .to_vec()
        })
        .collect();
    shuffled_by_tensor(groups, seed)
}

/// The analytical twin of a functional request: same matrix, variant,
/// architecture and budget, so it fills exactly the identity, profile
/// and plan tiers the functional request reads.
pub fn sim_twin(req: &FunctionalRequest) -> SimRequest {
    SimRequest {
        workload: req.workload.clone(),
        variant: req.variant,
        arch: req.arch,
        budget: req.budget,
        grid: req.grid,
        auto_plan: req.auto_plan,
    }
}

// ---------------------------------------------------------------------------
// Environment and metadata
// ---------------------------------------------------------------------------

/// Removes every `TAILORS_*` knob and `RAYON_NUM_THREADS` from the
/// process environment, so SIMD level, thread counts, fault injection and
/// the on-disk generation cache are the defaults whatever the caller's
/// shell exported. Must run before any thread starts. Returns the names
/// removed.
pub fn pin_environment() -> Vec<String> {
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TAILORS_") || k == "RAYON_NUM_THREADS")
        .collect();
    for k in &stray {
        std::env::remove_var(k);
    }
    stray
}

/// Renders `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&v, 89.5), Ok(90.0));
        let w: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&w, 50.0), Ok(11.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&v, 99.0).is_err());
        let err = percentile(&v, 95.0).unwrap_err();
        assert!(err.contains("200 samples"), "{err}");
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
        assert!(percentile(&thousand[..999], 99.0).is_err());
        assert!(percentile(&v[..19], 50.0).is_err());
        assert_eq!(percentile(&v[..20], 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
        assert_eq!(samples_for(50.0), 20);
        assert_eq!(samples_for(75.0), 40);
        assert_eq!(samples_for(90.0), 100);
        assert_eq!(samples_for(99.0), 1000);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "wire.encode_reply_us", "p99-tail", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "lat/us", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "1/s", "%", "count", "x"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn metric_tables_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(better == "lower" || better == "higher", "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let mut expected = vec!["sim_hot", "sim_cold", "spmspm"];
        expected.extend(END_TO_END.iter().map(|m| m.name));
        expected.extend(PER_LAYER.iter().map(|m| m.name));
        assert_eq!(listed, expected);
    }

    #[test]
    fn request_lists_are_seed_deterministic() {
        let digest = |seed| {
            (
                digest_debug(&sim_requests(HOT_SCALE, seed)),
                digest_debug(&functional_requests(seed)),
            )
        };
        assert_eq!(digest(7), digest(7));
        let (a, b) = (digest(7), digest(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1, "the seed reorders the functional requests");
        assert_eq!(sim_requests(COLD_SCALE, 1).len(), 66);
        assert_eq!(functional_requests(1).len(), 16);
    }

    #[test]
    fn seed_orders_whole_tensors_and_keeps_them() {
        let (a, b) = (sim_requests(HOT_SCALE, 1), sim_requests(HOT_SCALE, 2));
        let names = |r: &[SimRequest]| r.iter().map(|q| q.workload.name).collect::<Vec<_>>();
        assert_ne!(names(&a), names(&b), "order must depend on the seed");
        for chunk in a.chunks(3) {
            assert!(chunk.iter().all(|q| q.workload == chunk[0].workload));
            let order: Vec<Variant> = chunk.iter().map(|q| q.variant).collect();
            assert_eq!(order, variants(), "a tensor's variants stay in table order");
        }
        let suite = tailors_workloads::suite();
        for q in &a {
            let wl = suite.iter().find(|w| w.name == q.workload.name).unwrap();
            assert_eq!(
                q.workload,
                wl.scaled(HOT_SCALE),
                "tensors are the suite's own"
            );
        }
    }

    #[test]
    fn digests_separate_bit_patterns() {
        assert_eq!(digest_debug(&[1.0f64, 2.0]), digest_debug(&[1.0f64, 2.0]));
        assert_ne!(digest_debug(&0.0f64), digest_debug(&-0.0f64));
        assert_ne!(
            digest_debug(&0.1f64),
            digest_debug(&f64::from_bits(0.1f64.to_bits() + 1))
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

//! `perfbench`: the end-to-end and per-layer benchmark of the Tailors
//! serving and simulation stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_hot|sim_cold|spmspm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop with one client thread that sends its
//! request list in whole passes; the seed orders the list.
//!
//! * `sim_hot` — 66 analytical requests (22 suite tensors × ExTensor-N/P/OB
//!   at 1/64 scale) through a [`ShardRouter`] over two in-process
//!   [`WireTcpServer`] shards, caches warmed in set-up.
//! * `sim_cold` — the same 66 keys at 1/8 scale, each pass against a fresh
//!   in-process [`SimService`] (tensors pinned in set-up).
//! * `spmspm` — 16 functional A·Aᵀ requests through in-process
//!   [`SimService::run_functional`].
//!
//! With `--trace 0` the run reports the end-to-end metrics over several
//! rounds, each on a freshly set-up stack. With `--trace 1` it reports the
//! per-layer metrics: untraced passes on the workload's stack alternate
//! with traced passes on a twin stack that calls each layer's public entry
//! point for every request and records one span per call; the spans go to
//! `perfbench/out/<workload>-seed<n>.spans.jsonl`. The last line of
//! standard output is the JSON result; the lines before it are the
//! human-readable report.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use perfbench::{
    digest_debug, digest_functional, functional_requests, json_str, mean, median, percentile,
    pin_environment, samples_for, sim_requests, sim_twin, COLD_SCALE, END_TO_END, HOT_SCALE,
    PER_LAYER,
};
use tailors_core::{Swiftiles, SwiftilesConfig};
use tailors_serve::wire::{
    decode_reply, decode_request_line, encode_reply_into, encode_request_into,
};
use tailors_serve::{
    FunctionalRequest, Reply, RouterConfig, RuntimeConfig, ServeError, ServiceRuntime, ShardRouter,
    SimRequest, SimService, WireClient, WireTcpServer, Work,
};
use tailors_sim::functional::{reference_run, run_with_threads};
use tailors_sim::{ExecutionPlan, RunMetrics, Variant};
use tailors_tensor::{CsrMatrix, MatrixProfile};
use tailors_workloads::generate_cached;

const USAGE: &str = "usage: perfbench --workload <sim_hot|sim_cold|spmspm> --seed <u64> \
                     --seconds <positive number> --trace <0|1>";

/// Shards behind the `sim_hot` router.
const SHARDS: usize = 2;
/// Reconciliation target: layer self times must sum to within this share
/// of the untraced mean latency.
const RECONCILE_PCT: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SimHot,
    SimCold,
    Spmspm,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "sim_hot" => Some(Kind::SimHot),
            "sim_cold" => Some(Kind::SimCold),
            "spmspm" => Some(Kind::Spmspm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::SimHot => "sim_hot",
            Kind::SimCold => "sim_cold",
            Kind::Spmspm => "spmspm",
        }
    }

    /// Rounds per untraced run. Each round sets a fresh stack up (tensors
    /// regenerated, caches and threads new) and serves an equal share of
    /// the timed phase, so a run's figures cover several stacks' thread
    /// placements; `setup_s` is the median over the rounds.
    fn rounds(self) -> usize {
        match self {
            Kind::SimHot => 10,
            Kind::SimCold => 5,
            Kind::Spmspm => 3,
        }
    }

    /// Whether a latency sample is a whole pass rather than one request.
    /// A cold pass mixes 22 millisecond-scale first requests with 44
    /// plan-only ones of 50–400 µs; the request median falls where that
    /// mix is steepest and moved by up to a quarter between runs that
    /// moved throughput by a tenth. The pass — one cold sweep of the
    /// suite, the paper-reproduction unit — is what a user waits for.
    fn pass_latency(self) -> bool {
        self == Kind::SimCold
    }

    /// The tail percentile `latency_tail_us` reports. The ~50 samples per
    /// run of spmspm (requests) and sim_cold (passes) support no more
    /// than p75. sim_hot's p99 follows
    /// how often the host deschedules one of the threads a request
    /// crosses, not the code (its IQR over ten seeds was 0.4–0.6 of the
    /// median), so it reports p90.
    fn tail_percentile(self) -> f64 {
        match self {
            Kind::SimHot => 90.0,
            Kind::SimCold | Kind::Spmspm => 75.0,
        }
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cleared = pin_environment();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# meta {}", metadata(&args, &cleared));
    let result = match args.kind {
        Kind::SimHot => run::<SimHot>(&args),
        Kind::SimCold => run::<SimCold>(&args),
        Kind::Spmspm => run::<Spmspm>(&args),
    };
    println!("{result}");
    std::io::stdout().flush().expect("flush stdout");
}

// ---------------------------------------------------------------------------
// Runner metadata
// ---------------------------------------------------------------------------

/// CPU model, `nproc`, SIMD level, rustc, source revision, seed — the
/// facts that explain why the same code measures differently elsewhere.
fn metadata(args: &Args, cleared: &[String]) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\":{},\"seed\":{},\"cpu\":{},\"nproc\":{nproc},\"simd\":{},\"rustc\":{},\"revision\":{},\"cleared_env\":[{}]}}",
        json_str(args.kind.name()),
        args.seed,
        json_str(&cpu),
        json_str(&tailors_tensor::simd::active_level().to_string()),
        json_str(&rustc),
        json_str(&revision()),
        cleared.iter().map(|k| json_str(k)).collect::<Vec<_>>().join(","),
    )
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let line = String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()?
        .trim()
        .to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

/// The git commit when run from a git checkout; otherwise a digest of
/// the library sources under `crates/`, which identifies the code just
/// as well in an exported tree.
fn revision() -> String {
    if let Some(commit) = command_line("git", &["rev-parse", "HEAD"]) {
        return format!("git:{commit}");
    }
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = perfbench::Fnv::default();
    for f in &files {
        let _ = write!(h, "{}", f.display());
        if let Ok(bytes) = std::fs::read(f) {
            bytes.iter().for_each(|&b| h.word(u64::from(b)));
        }
    }
    format!("src-fnv:{:016x} ({} files)", h.finish(), files.len())
}

/// The process's peak resident set (`VmHWM`) in MiB since the last
/// [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] sees only what happens after this call.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

/// Oracle checks run once per key (analytical) or request (functional).
#[derive(Debug, Default, Clone, Copy)]
struct Checks {
    checked: u64,
    mismatches: u64,
}

/// Cumulative layer counters of a stack, for per-phase deltas.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    failovers: u64,
    spills: u64,
    reconnects: u64,
    rejected: u64,
    timed_out: u64,
    faulted: u64,
    plan_hits: u64,
    plan_misses: u64,
    profile_hits: u64,
    profile_misses: u64,
}

impl Counters {
    fn add_service(&mut self, s: tailors_serve::ServeStats) {
        self.plan_hits += s.plan_hits;
        self.plan_misses += s.plan_misses;
        self.profile_hits += s.profile_hits;
        self.profile_misses += s.profile_misses;
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            failovers: self.failovers - before.failovers,
            spills: self.spills - before.spills,
            reconnects: self.reconnects - before.reconnects,
            rejected: self.rejected - before.rejected,
            timed_out: self.timed_out - before.timed_out,
            faulted: self.faulted - before.faulted,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            profile_hits: self.profile_hits - before.profile_hits,
            profile_misses: self.profile_misses - before.profile_misses,
        }
    }
}

/// Simulated statistics of the workload's tensors (host-independent).
#[derive(Debug, Default, Clone)]
struct SimStats {
    /// ExTensor-P cycles over ExTensor-OB cycles, one per tensor.
    ob_speedups: Vec<f64>,
    /// |achieved overbooking rate − target y|, one per OB request.
    ob_abs_err: Vec<f64>,
    dram_a_fetches: u64,
    dram_b_fetches: u64,
    overbooked_a_tiles: u64,
}

impl SimStats {
    /// Collects the analytical statistics from oracle `(request,
    /// profile, metrics)` triples.
    fn from_oracles<'a>(
        oracles: impl Iterator<Item = (&'a SimRequest, &'a MatrixProfile, &'a RunMetrics)>,
    ) -> SimStats {
        let mut stats = SimStats::default();
        let mut cycles: HashMap<(&str, &str), f64> = HashMap::new();
        for (req, profile, metrics) in oracles {
            cycles.insert((req.workload.name, req.variant.name()), metrics.cycles);
            if let Variant::ExTensorOB { y, .. } = req.variant {
                let achieved = tailors_core::swiftiles::achieved_overbooking_rate(
                    profile,
                    metrics.plan.gb_rows_a,
                    req.arch.tile_capacity(),
                );
                stats.ob_abs_err.push((achieved - y).abs());
            }
        }
        let mut names: Vec<&str> = cycles.keys().map(|k| k.0).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            if let (Some(p), Some(ob)) = (
                cycles.get(&(name, "ExTensor-P")),
                cycles.get(&(name, "ExTensor-OB")),
            ) {
                stats.ob_speedups.push(p / ob);
            }
        }
        stats
    }

    fn geomean_speedup(&self) -> f64 {
        if self.ob_speedups.is_empty() {
            return 0.0;
        }
        (self.ob_speedups.iter().map(|s| s.ln()).sum::<f64>() / self.ob_speedups.len() as f64).exp()
    }
}

/// One workload's serving stack, from set-up to teardown.
trait Stack: Sized + Send {
    const KIND: Kind;
    /// Generation, spin-up and warm pass (what `setup_s` times).
    fn setup(seed: u64) -> Self;
    /// Oracle checks; fills the expected reply digests.
    fn verify(&mut self) -> Checks;
    /// One pass over the request list: appends each request's latency in
    /// µs and returns how many requests failed or answered wrongly.
    fn pass(&mut self, latencies: &mut Vec<f64>) -> u64;
    /// Requests per pass.
    fn len(&self) -> usize;
    fn counters(&self) -> Counters;
    fn sim_stats(&self) -> SimStats;
    /// The expected reply digests (from `verify` or `adopt`).
    fn expected(&self) -> &[u64];
    /// Adopts the expected digests of a verified stack built from the
    /// same seed instead of re-running the oracles.
    fn adopt(&mut self, expected: &[u64]);
    /// Readies a twin for traced passes.
    fn prepare_trace(&mut self) {}
    /// One traced pass. Layer-major: each layer's entry point is called
    /// for every request of the pass before the next layer's, so every
    /// layer runs as warm as it does untraced.
    fn trace_pass(&mut self, tracer: &mut Tracer) -> Vec<Sample>;
    fn teardown(self);
}

/// Generates (through the in-process generation cache) and holds every
/// distinct tensor of a request list, keyed by workload name. Tensors are
/// generated in name order whatever the request order, so every seed
/// leaves the same heap layout behind and `peak_rss_mb` does not move
/// with the seed.
fn pin<'a>(
    workloads: impl Iterator<Item = &'a tailors_workloads::Workload>,
) -> HashMap<&'static str, Arc<CsrMatrix>> {
    let mut distinct: Vec<&tailors_workloads::Workload> = workloads.collect();
    distinct.sort_by_key(|wl| wl.name);
    distinct.dedup_by_key(|wl| wl.name);
    distinct
        .into_iter()
        .map(|wl| (wl.name, generate_cached(wl)))
        .collect()
}

type Profiles = HashMap<&'static str, MatrixProfile>;

/// Fresh profiles of the pinned tensors, built outside every cache.
fn fresh_profiles(pinned: &HashMap<&'static str, Arc<CsrMatrix>>) -> Profiles {
    pinned
        .iter()
        .map(|(name, a)| (*name, a.profile()))
        .collect()
}

/// Checks analytical replies (digests from the warm pass) against
/// `Variant::run_gridded` on fresh profiles; returns the oracle digests.
fn verify_sim(
    reqs: &[SimRequest],
    warm: &[u64],
    profiles: &Profiles,
) -> (Vec<u64>, Checks, SimStats) {
    let oracles: Vec<RunMetrics> = reqs
        .iter()
        .map(|r| {
            r.variant
                .run_gridded(&profiles[r.workload.name], &r.arch, r.budget, r.grid)
        })
        .collect();
    let expected: Vec<u64> = oracles.iter().map(digest_debug).collect();
    let mismatches = expected.iter().zip(warm).filter(|(e, w)| e != w).count() as u64;
    let stats = SimStats::from_oracles(
        reqs.iter()
            .zip(&oracles)
            .map(|(r, m)| (r, &profiles[r.workload.name], m)),
    );
    let checks = Checks {
        checked: reqs.len() as u64,
        mismatches,
    };
    (expected, checks, stats)
}

/// The digest of a successful analytical reply (0 for anything else,
/// which never equals an oracle digest).
fn sim_digest(outcome: &Result<Reply, ServeError>) -> u64 {
    match outcome {
        Ok(Reply::Sim(r)) => digest_debug(&r.metrics),
        _ => 0,
    }
}

// --- sim_hot ---------------------------------------------------------------

struct Shard {
    service: Arc<SimService>,
    runtime: Arc<ServiceRuntime>,
    server: WireTcpServer,
}

/// Two in-process wire shards behind a router with one connection each
/// (connections = `nproc` on the 2-vCPU reference runner).
struct Fleet {
    router: ShardRouter,
    shards: Vec<Shard>,
}

impl Fleet {
    fn spawn() -> Fleet {
        let shards: Vec<Shard> = (0..SHARDS)
            .map(|_| {
                let service = Arc::new(SimService::new());
                let runtime = Arc::new(ServiceRuntime::over(
                    Arc::clone(&service),
                    RuntimeConfig::default(),
                ));
                let server = WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0")
                    .expect("bind a loopback shard");
                Shard {
                    service,
                    runtime,
                    server,
                }
            })
            .collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.server.addr()).collect();
        let config = RouterConfig {
            connections: 1,
            ..RouterConfig::default()
        };
        let router = ShardRouter::connect(&addrs, config).expect("router dials its shards");
        Fleet { router, shards }
    }

    fn stop(self) {
        drop(self.router);
        for mut shard in self.shards {
            shard.server.stop();
            shard.runtime.shutdown();
        }
    }
}

struct SimHot {
    reqs: Vec<SimRequest>,
    works: Vec<Work>,
    pinned: HashMap<&'static str, Arc<CsrMatrix>>,
    fleet: Fleet,
    warm: Vec<u64>,
    expected: Vec<u64>,
    stats: SimStats,
    /// Twin only: fresh profiles for the model layer and one direct
    /// client per shard for the wire layer.
    profiles: Profiles,
    clients: Vec<WireClient>,
}

impl Stack for SimHot {
    const KIND: Kind = Kind::SimHot;

    fn setup(seed: u64) -> Self {
        let reqs = sim_requests(HOT_SCALE, seed);
        let pinned = pin(reqs.iter().map(|r| &r.workload));
        let fleet = Fleet::spawn();
        let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();
        let warm = works
            .iter()
            .map(|w| sim_digest(&fleet.router.submit(w)))
            .collect();
        SimHot {
            reqs,
            works,
            pinned,
            fleet,
            warm,
            expected: Vec::new(),
            stats: SimStats::default(),
            profiles: Profiles::new(),
            clients: Vec::new(),
        }
    }

    fn verify(&mut self) -> Checks {
        let (expected, checks, stats) =
            verify_sim(&self.reqs, &self.warm, &fresh_profiles(&self.pinned));
        self.expected = expected;
        self.stats = stats;
        checks
    }

    fn pass(&mut self, latencies: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for (work, expected) in self.works.iter().zip(&self.expected) {
            let t = Instant::now();
            let outcome = self.fleet.router.submit(work);
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            failed += u64::from(sim_digest(&outcome) != *expected);
        }
        failed
    }

    fn len(&self) -> usize {
        self.works.len()
    }

    fn counters(&self) -> Counters {
        let r = self.fleet.router.stats();
        let mut c = Counters {
            failovers: r.failovers,
            spills: r.spills,
            reconnects: r.reconnects,
            ..Counters::default()
        };
        for shard in &self.fleet.shards {
            let s = shard.runtime.stats();
            c.rejected += s.rejected;
            c.timed_out += s.timed_out;
            c.faulted += s.faulted;
            c.add_service(shard.service.stats());
        }
        c
    }

    fn sim_stats(&self) -> SimStats {
        self.stats.clone()
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn adopt(&mut self, expected: &[u64]) {
        self.expected = expected.to_vec();
    }

    fn prepare_trace(&mut self) {
        self.profiles = fresh_profiles(&self.pinned);
        self.clients = self
            .fleet
            .shards
            .iter()
            .map(|s| WireClient::connect(s.server.addr()).expect("dial a twin shard"))
            .collect();
    }

    fn trace_pass(&mut self, tr: &mut Tracer) -> Vec<Sample> {
        let n = self.works.len();
        let ids = tr.request_ids(n);
        let (router, shards, works) = (&self.fleet.router, &self.fleet.shards, &self.works);
        let owners: Vec<usize> = works.iter().map(|w| router.primary(w)).collect();
        let mut samples = vec![Sample::default(); n];
        let mut outcomes = Vec::with_capacity(n);
        for (i, s) in samples.iter_mut().enumerate() {
            let (outcome, us) = tr.time("router", "", ids[i], || router.submit(&works[i]));
            tr.failed += u64::from(sim_digest(&outcome) != self.expected[i]);
            outcomes.push(outcome);
            s.total = us;
        }
        let mut client = vec![0.0; n];
        for i in 0..n {
            let conn = &mut self.clients[owners[i]];
            client[i] = tr
                .time("wire.client", "router", ids[i], || conn.call(&works[i]))
                .1;
        }
        let mut runtime = vec![0.0; n];
        for (i, work) in works.iter().cloned().enumerate() {
            let rt = &shards[owners[i]].runtime;
            runtime[i] = tr
                .time("runtime", "wire.client", ids[i], || rt.submit(work))
                .1;
        }
        for (i, s) in samples.iter_mut().enumerate() {
            let service = &shards[owners[i]].service;
            s.submit_hot = tr
                .time("service", "runtime", ids[i], || {
                    service.submit(&self.reqs[i])
                })
                .1;
        }
        for (i, s) in samples.iter_mut().enumerate() {
            let req = &self.reqs[i];
            tr.model(ids[i], "service", req, &self.profiles[req.workload.name], s);
            s.plan = 0.0; // hot requests replay cached plans
        }
        for (i, s) in samples.iter_mut().enumerate() {
            tr.codec(ids[i], &works[i], &outcomes[i], s);
            s.route_self = s.total - client[i];
            s.socket_self = client[i] - runtime[i] - s.codec();
            s.hop = runtime[i] - s.submit_hot;
            s.service_self = s.submit_hot - s.model;
        }
        samples
    }

    fn teardown(self) {
        drop(self.clients);
        self.fleet.stop();
        drop(self.pinned);
    }
}

// --- sim_cold --------------------------------------------------------------

struct SimCold {
    reqs: Vec<SimRequest>,
    pinned: HashMap<&'static str, Arc<CsrMatrix>>,
    warm: Vec<u64>,
    expected: Vec<u64>,
    /// Counters of every pass's (dropped) service.
    counters: Counters,
    stats: SimStats,
    /// Twin only: fresh profiles for the model layer.
    profiles: Profiles,
}

impl SimCold {
    /// One pass on a fresh service; returns each reply's digest.
    fn cold_pass(&mut self, mut latency: impl FnMut(f64)) -> Vec<u64> {
        let service = SimService::new();
        let digests = self
            .reqs
            .iter()
            .map(|r| {
                let t = Instant::now();
                let resp = service.submit(r);
                latency(t.elapsed().as_secs_f64() * 1e6);
                digest_debug(&resp.metrics)
            })
            .collect();
        self.counters.add_service(service.stats());
        digests
    }
}

impl Stack for SimCold {
    const KIND: Kind = Kind::SimCold;

    fn setup(seed: u64) -> Self {
        let reqs = sim_requests(COLD_SCALE, seed);
        let pinned = pin(reqs.iter().map(|r| &r.workload));
        let mut stack = SimCold {
            reqs,
            pinned,
            warm: Vec::new(),
            expected: Vec::new(),
            counters: Counters::default(),
            stats: SimStats::default(),
            profiles: Profiles::new(),
        };
        stack.warm = stack.cold_pass(|_| {});
        stack
    }

    fn verify(&mut self) -> Checks {
        let (expected, checks, stats) =
            verify_sim(&self.reqs, &self.warm, &fresh_profiles(&self.pinned));
        self.expected = expected;
        self.stats = stats;
        checks
    }

    fn pass(&mut self, latencies: &mut Vec<f64>) -> u64 {
        let digests = self.cold_pass(|us| latencies.push(us));
        digests
            .iter()
            .zip(&self.expected)
            .filter(|(d, e)| d != e)
            .count() as u64
    }

    fn len(&self) -> usize {
        self.reqs.len()
    }

    fn counters(&self) -> Counters {
        self.counters
    }

    fn sim_stats(&self) -> SimStats {
        self.stats.clone()
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn adopt(&mut self, expected: &[u64]) {
        self.expected = expected.to_vec();
    }

    fn prepare_trace(&mut self) {
        self.profiles = fresh_profiles(&self.pinned);
    }

    fn trace_pass(&mut self, tr: &mut Tracer) -> Vec<Sample> {
        let n = self.reqs.len();
        let ids = tr.request_ids(n);
        let service = SimService::new();
        let mut samples = vec![Sample::default(); n];
        let mut resps = Vec::with_capacity(n);
        for (i, s) in samples.iter_mut().enumerate() {
            let (resp, us) = tr.time("service", "", ids[i], || service.submit(&self.reqs[i]));
            tr.failed += u64::from(digest_debug(&resp.metrics) != self.expected[i]);
            resps.push(resp);
            s.total = us;
        }
        // A cold service hashes and profiles a tensor on the first request
        // naming it; later variants of it hit the profile tier.
        let mut seen = HashSet::new();
        for (i, s) in samples.iter_mut().enumerate() {
            let name = self.reqs[i].workload.name;
            if seen.insert(name) {
                let a = &self.pinned[name];
                s.content_hash = tr
                    .time("tensor.content_hash", "service", ids[i], || {
                        a.content_hash()
                    })
                    .1;
                s.profile = tr
                    .time("tensor.profile", "service", ids[i], || a.profile())
                    .1;
            }
        }
        for (i, s) in samples.iter_mut().enumerate() {
            let req = &self.reqs[i];
            tr.model(ids[i], "service", req, &self.profiles[req.workload.name], s);
        }
        for (i, s) in samples.iter_mut().enumerate() {
            s.submit_hot = tr
                .time("service.hot", "", ids[i], || service.submit(&self.reqs[i]))
                .1;
        }
        for (i, (s, resp)) in samples.iter_mut().zip(resps).enumerate() {
            let work = Work::Sim(self.reqs[i].clone());
            tr.codec(ids[i], &work, &Ok(Reply::Sim(resp)), s);
            s.service_self = s.total - s.content_hash - s.profile - s.plan - s.model;
        }
        samples
    }

    fn teardown(self) {
        drop(self.pinned);
    }
}

// --- spmspm ----------------------------------------------------------------

struct Spmspm {
    reqs: Vec<FunctionalRequest>,
    pinned: HashMap<&'static str, Arc<CsrMatrix>>,
    service: SimService,
    expected: Vec<u64>,
    stats: SimStats,
}

impl Stack for Spmspm {
    const KIND: Kind = Kind::Spmspm;

    fn setup(seed: u64) -> Self {
        let reqs = functional_requests(seed);
        let pinned = pin(reqs.iter().map(|r| &r.workload));
        let service = SimService::new();
        // The analytical twin of each request fills exactly the identity,
        // profile and plan tiers the functional request reads.
        for r in &reqs {
            black_box(service.submit(&sim_twin(r)));
        }
        Spmspm {
            reqs,
            pinned,
            service,
            expected: Vec::new(),
            stats: SimStats::default(),
        }
    }

    fn verify(&mut self) -> Checks {
        let mut checks = Checks::default();
        let mut stats = SimStats::default();
        self.expected = self
            .reqs
            .iter()
            .map(|r| {
                checks.checked += 1;
                let Ok(resp) = self.service.run_functional(r) else {
                    checks.mismatches += 1;
                    return 0;
                };
                let served = digest_functional(&resp.result);
                let oracle = reference_run(&self.pinned[r.workload.name], &resp.config)
                    .map(|o| digest_functional(&o));
                checks.mismatches += u64::from(oracle != Ok(served));
                stats.dram_a_fetches += resp.result.dram_a_fetches;
                stats.dram_b_fetches += resp.result.dram_b_fetches;
                stats.overbooked_a_tiles += resp.result.overbooked_a_tiles as u64;
                served
            })
            .collect();
        let profiles = fresh_profiles(&self.pinned);
        let twins: Vec<SimRequest> = self.reqs.iter().map(sim_twin).collect();
        let oracles: Vec<RunMetrics> = twins
            .iter()
            .map(|r| {
                r.variant
                    .run_gridded(&profiles[r.workload.name], &r.arch, r.budget, r.grid)
            })
            .collect();
        let analytical = SimStats::from_oracles(
            twins
                .iter()
                .zip(&oracles)
                .map(|(r, m)| (r, &profiles[r.workload.name], m)),
        );
        stats.ob_speedups = analytical.ob_speedups;
        stats.ob_abs_err = analytical.ob_abs_err;
        self.stats = stats;
        checks
    }

    fn pass(&mut self, latencies: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for (r, expected) in self.reqs.iter().zip(&self.expected) {
            let t = Instant::now();
            let outcome = self.service.run_functional(r);
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            failed += u64::from(outcome.map(|o| digest_functional(&o.result)) != Ok(*expected));
        }
        failed
    }

    fn len(&self) -> usize {
        self.reqs.len()
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_service(self.service.stats());
        c
    }

    fn sim_stats(&self) -> SimStats {
        self.stats.clone()
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn adopt(&mut self, expected: &[u64]) {
        self.expected = expected.to_vec();
    }

    fn trace_pass(&mut self, tr: &mut Tracer) -> Vec<Sample> {
        let n = self.reqs.len();
        let ids = tr.request_ids(n);
        let mut samples = vec![Sample::default(); n];
        let mut outcomes = Vec::with_capacity(n);
        for (i, s) in samples.iter_mut().enumerate() {
            let req = &self.reqs[i];
            let (outcome, us) = tr.time("service", "", ids[i], || self.service.run_functional(req));
            let digest = outcome.as_ref().map(|o| digest_functional(&o.result));
            tr.failed += u64::from(digest != Ok(self.expected[i]));
            outcomes.push(outcome);
            s.total = us;
            s.submit_hot = us;
        }
        for (i, s) in samples.iter_mut().enumerate() {
            let req = &self.reqs[i];
            let Ok(resp) = &outcomes[i] else { continue };
            let a = &self.pinned[req.workload.name];
            s.engine = tr
                .time("functional.engine", "service", ids[i], || {
                    run_with_threads(a, &resp.config, req.threads)
                })
                .1;
            s.service_self = s.total - s.engine;
        }
        for (i, (s, outcome)) in samples.iter_mut().zip(outcomes).enumerate() {
            let work = Work::Functional(Box::new(self.reqs[i].clone()));
            let reply = outcome
                .map(|r| Reply::Functional(Box::new(r)))
                .map_err(|e| ServeError::Faulted {
                    panic: false,
                    message: e.to_string(),
                });
            tr.codec(ids[i], &work, &reply, s);
        }
        samples
    }

    fn teardown(self) {
        drop(self.pinned);
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded call: layer name, start and end (ns since tracing
/// began), the request it served, and the layer that calls it on the
/// served path. Twin calls run one after another, so a child's span does
/// not nest inside its parent's in time; `parent` records the path.
struct Span {
    name: &'static str,
    parent: &'static str,
    request: u64,
    start_ns: u128,
    end_ns: u128,
}

/// Per-request layer costs in µs (zero for a layer off the request's
/// path). `total` is the traced time of the workload's front door.
#[derive(Debug, Default, Clone, Copy)]
struct Sample {
    total: f64,
    route_self: f64,
    socket_self: f64,
    encode_request: f64,
    decode_request: f64,
    encode_reply: f64,
    decode_reply: f64,
    request_bytes: f64,
    reply_bytes: f64,
    hop: f64,
    service_self: f64,
    submit_hot: f64,
    content_hash: f64,
    profile: f64,
    swiftiles: f64,
    plan: f64,
    model: f64,
    engine: f64,
}

impl Sample {
    fn codec(&self) -> f64 {
        self.encode_request + self.decode_request + self.encode_reply + self.decode_reply
    }

    /// The self times of the layers on `kind`'s request path; by
    /// construction they add up to `total`.
    fn path_sum(&self, kind: Kind) -> f64 {
        match kind {
            Kind::SimHot => {
                self.route_self
                    + self.socket_self
                    + self.codec()
                    + self.hop
                    + self.service_self
                    + self.model
            }
            Kind::SimCold => {
                self.service_self + self.content_hash + self.profile + self.plan + self.model
            }
            Kind::Spmspm => self.service_self + self.engine,
        }
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    failed: u64,
    line: String,
    reply_line: String,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            failed: 0,
            line: String::new(),
            reply_line: String::new(),
        }
    }

    /// Fresh request ids for one pass of `n` requests.
    fn request_ids(&mut self, n: usize) -> Vec<u64> {
        let first = self.next_id + 1;
        self.next_id += n as u64;
        (first..=self.next_id).collect()
    }

    /// Runs `f` as one span; returns its result and duration in µs.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: (start - self.origin).as_nanos(),
            end_ns: (end - self.origin).as_nanos(),
        });
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Times what the service does on a plan miss (`Variant::plan` plus
    /// the induced execution plan) and on every request
    /// (`Variant::run_planned`, the model), and for the overbooked
    /// variant the two Swiftiles estimates its plan makes (global buffer
    /// and PE buffer).
    fn model(
        &mut self,
        id: u64,
        parent: &'static str,
        req: &SimRequest,
        profile: &MatrixProfile,
        s: &mut Sample,
    ) {
        let ((tile, exec), plan) = self.time("sim.plan", parent, id, || {
            let tile = req.variant.plan(profile, &req.arch);
            let exec =
                ExecutionPlan::for_tile_plan(profile.nrows(), profile.ncols(), &tile, req.budget);
            (tile, exec)
        });
        s.plan = plan;
        s.model = self
            .time("sim.model", parent, id, || {
                req.variant
                    .run_planned(profile, &req.arch, &tile, &exec, req.grid)
            })
            .1;
        if let Variant::ExTensorOB { y, k } = req.variant {
            let est = Swiftiles::new(SwiftilesConfig::new(y, k).expect("variant y is valid"));
            for cap in [req.arch.tile_capacity(), req.arch.pe_operand_capacity()] {
                s.swiftiles += self
                    .time("swiftiles.estimate", "sim.plan", id, || {
                        est.estimate(profile, cap)
                    })
                    .1;
            }
        }
    }

    /// Runs the four public codec functions on one request and its reply.
    fn codec(&mut self, id: u64, work: &Work, reply: &Result<Reply, ServeError>, s: &mut Sample) {
        let mut line = std::mem::take(&mut self.line);
        let mut reply_line = std::mem::take(&mut self.reply_line);
        s.encode_request = self
            .time("wire.encode_request", "wire.client", id, || {
                encode_request_into(id, work, &mut line)
            })
            .1;
        let (decoded, us) = self.time("wire.decode_request", "wire.client", id, || {
            decode_request_line(&line)
        });
        s.decode_request = us;
        self.failed += u64::from(decoded.is_err());
        s.encode_reply = self
            .time("wire.encode_reply", "wire.client", id, || {
                encode_reply_into(Some(id), reply, &mut reply_line)
            })
            .1;
        let (decoded, us) = self.time("wire.decode_reply", "wire.client", id, || {
            decode_reply(&reply_line)
        });
        s.decode_reply = us;
        self.failed += u64::from(decoded.is_err());
        s.request_bytes = line.len() as f64;
        s.reply_bytes = reply_line.len() as f64;
        self.line = line;
        self.reply_line = reply_line;
    }

    /// Writes the spans as JSON lines to `path`.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// What one timed phase observed.
#[derive(Default)]
struct Phase {
    latencies: Vec<f64>,
    /// Wall time of each pass, in seconds.
    pass_walls: Vec<f64>,
    failed: u64,
}

impl Phase {
    fn requests(&self) -> usize {
        self.latencies.len()
    }

    fn sample_count(&self, per_pass: bool) -> usize {
        if per_pass {
            self.pass_walls.len()
        } else {
            self.latencies.len()
        }
    }

    /// The latency samples in µs: one per request, or one per pass.
    fn samples(&self, per_pass: bool) -> Vec<f64> {
        if per_pass {
            self.pass_walls.iter().map(|s| s * 1e6).collect()
        } else {
            self.latencies.clone()
        }
    }

    fn wall_s(&self) -> f64 {
        self.pass_walls.iter().sum()
    }

    fn merge(mut self, other: Phase) -> Phase {
        self.latencies.extend(other.latencies);
        self.pass_walls.extend(other.pass_walls);
        self.failed += other.failed;
        self
    }
}

impl Phase {
    /// Runs and records one pass.
    fn pass<S: Stack>(&mut self, stack: &mut S) {
        let served = self.requests();
        let t = Instant::now();
        self.failed += stack.pass(&mut self.latencies);
        self.pass_walls.push(t.elapsed().as_secs_f64());
        assert_eq!(
            self.requests(),
            served + stack.len(),
            "a pass sends every request once"
        );
    }
}

/// The final JSON line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

fn run<S: Stack>(args: &Args) -> String {
    if args.trace {
        traced_run::<S>(args)
    } else {
        untraced_run::<S>(args)
    }
}

fn untraced_run<S: Stack>(args: &Args) -> String {
    let kind = S::KIND;
    let tail_p = kind.tail_percentile();
    let min_samples = samples_for(tail_p);
    let per_pass_latency = kind.pass_latency();
    let rounds = kind.rounds();
    let share = args.seconds / rounds as f64;
    let (mut setups, mut rss, mut phases) = (Vec::new(), Vec::new(), Vec::new());
    let (mut checks, mut expected, mut per_pass) = (Checks::default(), Vec::new(), 0);
    for round in 0..rounds {
        let t = Instant::now();
        let mut stack = S::setup(args.seed);
        setups.push(t.elapsed().as_secs_f64());
        if round == 0 {
            checks = stack.verify();
            expected = stack.expected().to_vec();
        } else {
            stack.adopt(&expected);
        }
        reset_peak_rss();
        // A fresh client thread per round, so the client's CPU placement
        // varies across rounds like the stack's own threads do.
        let phase = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut phase = Phase::default();
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < share
                        || phase.sample_count(per_pass_latency) * rounds < min_samples
                    {
                        phase.pass(&mut stack);
                    }
                    phase
                })
                .join()
                .expect("the client thread does not panic")
        });
        rss.push(peak_rss_mb());
        per_pass = stack.len();
        stack.teardown();
        phases.push(phase);
    }

    // Each round is a window when it alone supports the tail percentile;
    // otherwise all rounds pool into one.
    let windows: Vec<Phase> = if phases
        .iter()
        .all(|p| p.sample_count(per_pass_latency) >= min_samples)
    {
        phases
    } else {
        vec![phases.into_iter().fold(Phase::default(), Phase::merge)]
    };
    let mut per_window: [Vec<f64>; 3] = Default::default();
    for w in &windows {
        let mut sorted = w.samples(per_pass_latency);
        sorted.sort_by(f64::total_cmp);
        per_window[0].push(w.requests() as f64 / w.wall_s());
        per_window[1].push(percentile(&sorted, 50.0).expect("a window holds enough samples"));
        per_window[2].push(percentile(&sorted, tail_p).expect("a window holds enough samples"));
    }
    let [throughput, p50, tail] = per_window.map(|v| median(&v).expect("at least one window"));
    let n: usize = windows.iter().map(Phase::requests).sum();
    let passes: usize = windows.iter().map(|w| w.pass_walls.len()).sum();
    let wall: f64 = windows.iter().map(Phase::wall_s).sum();
    let attempted = n as u64 + checks.checked;
    let failed = windows.iter().map(|w| w.failed).sum::<u64>() + checks.mismatches;
    let setup_s = median(&setups).expect("set-ups ran");
    // The first stack serves in a fresh process, so its peak does not
    // depend on what earlier rounds left in the allocator.
    let rss_rounds: Vec<f64> = rss.iter().map(|m| (m * 10.0).round() / 10.0).collect();
    let rss = rss[0];

    println!(
        "# {rounds} rounds, each on a fresh stack: {n} requests in {passes} passes of {per_pass}, {wall:.3} s; \
         figures are medians over {} window(s) of >= {min_samples} requests",
        windows.len()
    );
    println!(
        "# setup_s         {setup_s:>12.4} s     median of {} set-ups {:?}",
        setups.len(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!("# throughput_rps  {throughput:>12.2} 1/s");
    let unit = if per_pass_latency { "pass" } else { "request" };
    println!("# latency_p50_us  {p50:>12.2} us    p50 per {unit}");
    println!("# latency_tail_us {tail:>12.2} us    p{tail_p} per {unit}");
    println!(
        "# peak_rss_mb     {rss:>12.2} MB    VmHWM while the first stack serves (each round: {rss_rounds:?})"
    );
    println!(
        "# error_rate      {:>12.6}       {failed} of {attempted} attempts ({} oracle checks, {} mismatches)",
        failed as f64 / attempted as f64,
        checks.checked,
        checks.mismatches
    );
    let values = [throughput, p50, tail, rss, setup_s];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    result_line(failed == 0, attempted, failed, &metrics)
}

fn traced_run<S: Stack>(args: &Args) -> String {
    let kind = S::KIND;
    let mut stack = S::setup(args.seed);
    let checks = stack.verify();
    let stats = stack.sim_stats();
    let mut twin = S::setup(args.seed);
    twin.adopt(stack.expected());
    twin.prepare_trace();

    // Untraced passes on the workload's stack alternate with traced passes
    // on the twin, so both see the same machine conditions.
    let mut tracer = Tracer::new();
    let mut samples = Vec::new();
    let mut phase = Phase::default();
    let before = stack.counters();
    let start = Instant::now();
    while phase.pass_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        phase.pass(&mut stack);
        samples.extend(twin.trace_pass(&mut tracer));
    }
    let counters = stack.counters().since(before);
    let per_pass = twin.len();
    twin.teardown();
    stack.teardown();

    let out_dir = std::path::Path::new("perfbench/out");
    let span_file = out_dir.join(format!("{}-seed{}.spans.jsonl", kind.name(), args.seed));
    tracer.write(&span_file).expect("write the span file");

    let col = |f: fn(&Sample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    let untraced_mean = phase.wall_s() * 1e6 / phase.requests() as f64;
    let untraced_p50 = median(&phase.latencies).expect("untraced phase ran");
    let traced_p50 = median(&samples.iter().map(|s| s.total).collect::<Vec<_>>()).unwrap_or(0.0);
    let path_sum = mean(&samples.iter().map(|s| s.path_sum(kind)).collect::<Vec<_>>());
    let unattributed = untraced_mean - path_sum;
    let unattributed_pct = 100.0 * unattributed / untraced_mean;
    let overhead_pct = 100.0 * (traced_p50 - untraced_p50) / untraced_p50;
    let plan_lookups = counters.plan_hits + counters.plan_misses;
    let profile_lookups = counters.profile_hits + counters.profile_misses;
    let rate = |hits: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };

    let values: Vec<f64> = vec![
        col(|s| s.route_self),
        counters.failovers as f64,
        counters.spills as f64,
        counters.reconnects as f64,
        col(|s| s.encode_request),
        col(|s| s.decode_request),
        col(|s| s.encode_reply),
        col(|s| s.decode_reply),
        col(|s| s.request_bytes),
        col(|s| s.reply_bytes),
        col(|s| s.socket_self),
        col(|s| s.hop),
        counters.rejected as f64,
        counters.timed_out as f64,
        counters.faulted as f64,
        col(|s| s.service_self),
        col(|s| s.submit_hot),
        rate(counters.plan_hits, plan_lookups),
        plan_lookups as f64,
        rate(counters.profile_hits, profile_lookups),
        profile_lookups as f64,
        col(|s| s.content_hash) / 1e3,
        col(|s| s.profile) / 1e3,
        col(|s| s.swiftiles),
        col(|s| s.plan),
        col(|s| s.model),
        col(|s| s.engine) / 1e3,
        stats.geomean_speedup(),
        mean(&stats.ob_abs_err),
        stats.dram_a_fetches as f64,
        stats.dram_b_fetches as f64,
        stats.overbooked_a_tiles as f64,
        samples.len() as f64,
        untraced_mean,
        unattributed,
        unattributed_pct,
        untraced_p50,
        overhead_pct,
    ];
    assert_eq!(values.len(), PER_LAYER.len(), "one value per layer metric");

    for (m, v) in PER_LAYER.iter().zip(&values) {
        println!(
            "# {:<31} {v:>14.3} {:<6} moves: {}",
            m.name, m.unit, m.moves
        );
    }
    println!(
        "# untraced phase: {} requests in {} passes, {:.3} s; traced phase: {} requests ({} per pass), {} spans -> {}",
        phase.requests(),
        phase.pass_walls.len(),
        phase.wall_s(),
        samples.len(),
        per_pass,
        tracer.spans.len(),
        span_file.display()
    );
    let verdict = if unattributed_pct.abs() <= RECONCILE_PCT {
        "within"
    } else {
        "OUTSIDE"
    };
    println!(
        "# reconciliation: path layers sum to {path_sum:.2} us of {untraced_mean:.2} us untraced mean \
         ({:.2} ms of {:.2} ms per pass); residual {unattributed:.2} us = {unattributed_pct:.2}% ({verdict} {RECONCILE_PCT}%)",
        path_sum * per_pass as f64 / 1e3,
        untraced_mean * per_pass as f64 / 1e3,
    );
    println!(
        "# tracing overhead: traced p50 {traced_p50:.2} us vs untraced p50 {untraced_p50:.2} us ({overhead_pct:+.2}%)"
    );

    let attempted = phase.requests() as u64 + samples.len() as u64 + checks.checked;
    let failed = phase.failed + tracer.failed + checks.mismatches;
    println!(
        "# error_rate {:.6} ({failed} of {attempted} attempts)",
        failed as f64 / attempted as f64
    );
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    result_line(failed == 0, attempted, failed, &metrics)
}

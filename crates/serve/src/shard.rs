//! Sharded multi-worker routing: a consistent-hash ring over N
//! `serve --wire` shard processes, with LPT-balanced batch fan-out,
//! typed failover, and elastic membership.
//!
//! A single wire runtime serves one process as fast as the hardware
//! allows; the ROADMAP north star needs more than one worker. The
//! [`ShardRouter`] here is the thin layer in front of a fleet of shard
//! processes:
//!
//! * **Key ownership** — every request's workload spec resolves to its
//!   [`MatrixId`] (content hash + shape; memoized per spec exactly as
//!   [`SimService`](crate::SimService) memoizes it), and a
//!   consistent-hash [`HashRing`] (64 vnodes per shard) maps that
//!   identity to a *primary* shard. Each shard therefore sees a stable
//!   slice of the corpus and its cache tiers (and TSPILL corpus) stay
//!   hot for that slice; adding or removing a shard moves only ~K/N keys
//!   instead of reshuffling everything. [`RouterConfig::replicas`]` = R`
//!   widens the owner set to the first R live candidates with read-one
//!   semantics: the primary answers, and a dead primary costs a
//!   zero-backoff hop to an already-designated replica instead of a
//!   discovery timeout.
//! * **Balance** — [`ShardRouter::submit_batch`] groups a batch by
//!   primary shard, then splits each shard's group across that shard's
//!   connection pool in cost-balanced LPT bins using the *same* cost
//!   currency [`SimService::submit_batch`](crate::SimService::submit_batch)
//!   uses for its thread bins. Replies reassemble in request order, so
//!   batch payloads keep the bit-exact determinism contract: every shard
//!   computes the same bytes for the same request, and order is restored
//!   by index.
//! * **Failover** — shards fail in typed ways. A transport failure
//!   (connection refused/reset after the wire client's own
//!   reconnect-and-retry under [`RetryPolicy::default`] is exhausted, or
//!   an empty pool whose two redials both fail) or a [`ServeError::Shutdown`]
//!   reply marks the shard **down** and the request moves clockwise to
//!   the next live shard on the ring. An exhausted *retryable* overload
//!   ([`ServeError::retryable`]) spills to the next shard too, but does
//!   **not** mark the shard down — it is busy, not gone. Deterministic
//!   outcomes (`Faulted`, `BadRequest`, `Timeout`) return to the caller
//!   unchanged: every shard would answer the same, so failing over would
//!   only repeat the answer slower.
//! * **Recovery** — down marks are no longer sticky: when
//!   [`RouterConfig::probe_interval`] is set, a background prober
//!   periodically pings every down shard ([`WireClient::ping`] — a
//!   session-level liveness op that never enters the shard's ledger) and
//!   a successful pong clears the mark, so a kill is transient.
//!   [`ShardRouter::probe_now`] runs the same sweep synchronously for
//!   deterministic tests and tooling.
//! * **Elastic membership** — [`ShardRouter::join`] dials a new shard
//!   and rebuilds the ring in place; [`ShardRouter::leave`] retires one.
//!   Both take the fleet write lock, which drains in-flight requests
//!   (every [`ShardRouter::submit`] holds the read lock for its whole
//!   route walk), and the [`HashRing`] churn property guarantees only
//!   the moved member's keys remap. Departed members keep their slot
//!   index forever (a tombstone), so surviving members' vnode positions
//!   — and therefore every unaffected key's owner — never change.
//! * **Warm-up replay** — the router keeps a bounded LRU log of
//!   recently served request specs: up to 4 distinct specs for each of
//!   the 128 most recently served routing keys. On join and on
//!   probe recovery it replays the keys the (re)admitted shard now owns
//!   against it on the server's **low-priority lane** (`"warm":true`
//!   envelopes), so the shard's tensor/profile/plan tiers are hot before
//!   live traffic arrives — recovery without a cold-miss cliff. Warm
//!   replies are counted in separate `warmups` counters and never touch
//!   the router ledger or per-shard `replies`.
//!
//! The router keeps the runtime's accounting invariant across the fleet:
//! [`RouterStats::accounted`]` == submitted` whenever no submission is in
//! flight, no matter how many shards died, joined, left, or recovered.
//! One router submission is one ledger entry — internal retries,
//! reconnects, failover hops, probes, and warm replays are observability
//! counters, never extra ledger rows.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tailors_sim::balanced_partition;

use crate::lru::Lru;
use crate::runtime::{Reply, RetryPolicy, ServeError, Work};
use crate::service::{request_cost, MatrixId, SpecKey};
use crate::sync::{PoisonFreeCondvar, PoisonFreeMutex, PoisonFreeRwLock};
use crate::wire::{WireClient, WireError};

// FNV-1a, the same hash family `CsrMatrix::content_hash` uses — tiny,
// dependency-free, and well-mixed enough for ring placement.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A consistent-hash ring: each member owns `vnodes` pseudo-random
/// positions on the `u64` circle, and a key belongs to the member owning
/// the first position at or clockwise-after the key's own position.
///
/// Virtual nodes smooth the per-member share toward K/N, and consistency
/// bounds churn: a member's vnode positions depend only on its **id**
/// (not on who else is on the ring), so adding or removing a member only
/// reassigns keys whose first live position belonged to it — every other
/// key's walk is unchanged. The ring is deterministic in (member ids,
/// vnodes): two routers built with the same parameters agree on every
/// assignment.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(position, member)` pairs.
    vnodes: Vec<(u64, usize)>,
    /// The member ids on the ring, sorted ascending.
    members: Vec<usize>,
    /// One past the largest member id — the length a `down`/`seen` mask
    /// indexed by member id must have.
    slots: usize,
}

impl HashRing {
    /// A ring over members `0..shards` with `vnodes` positions each.
    ///
    /// # Panics
    ///
    /// If `shards` or `vnodes` is zero.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards > 0, "a ring needs at least one shard");
        let members: Vec<usize> = (0..shards).collect();
        Self::over(&members, vnodes)
    }

    /// A ring over an explicit set of member ids (duplicates collapse)
    /// with `vnodes` positions each. Member ids need not be contiguous:
    /// an elastic fleet keeps a departed member's slot as a tombstone, so
    /// a live fleet of slots `{0, 2, 3}` is a ring over exactly those
    /// ids — and every surviving member's vnode positions are the same
    /// ones it had before the departure.
    ///
    /// # Panics
    ///
    /// If `members` is empty or `vnodes` is zero.
    pub fn over(members: &[usize], vnodes: usize) -> HashRing {
        assert!(!members.is_empty(), "a ring needs at least one member");
        assert!(vnodes > 0, "a ring needs at least one vnode per member");
        let mut members: Vec<usize> = members.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut positions = Vec::with_capacity(members.len() * vnodes);
        for &member in &members {
            for v in 0..vnodes {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&(member as u64).to_le_bytes());
                bytes[8..].copy_from_slice(&(v as u64).to_le_bytes());
                positions.push((fnv1a(FNV_OFFSET, &bytes), member));
            }
        }
        // Sort by (position, member) so equal positions tie-break
        // deterministically.
        positions.sort_unstable();
        let slots = members.last().copied().unwrap_or(0) + 1;
        HashRing {
            vnodes: positions,
            members,
            slots,
        }
    }

    /// Number of members on the ring.
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// The member ids on the ring, sorted ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// One past the largest member id (the mask length
    /// [`HashRing::assign_excluding`] expects).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The key position of a matrix identity: all four identity fields
    /// feed the hash so shape-differing matrices with colliding content
    /// hashes still spread.
    fn position(id: &MatrixId) -> u64 {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&id.hash.to_le_bytes());
        bytes[8..16].copy_from_slice(&(id.nrows as u64).to_le_bytes());
        bytes[16..24].copy_from_slice(&(id.ncols as u64).to_le_bytes());
        bytes[24..].copy_from_slice(&(id.nnz as u64).to_le_bytes());
        fnv1a(FNV_OFFSET, &bytes)
    }

    /// Index of the first vnode at or clockwise-after `id`'s position.
    fn first_vnode(&self, id: &MatrixId) -> usize {
        let pos = Self::position(id);
        match self.vnodes.binary_search(&(pos, 0)) {
            Ok(i) => i,
            Err(i) if i == self.vnodes.len() => 0, // wrap
            Err(i) => i,
        }
    }

    /// The member owning `id` when every member is live.
    pub fn assign(&self, id: &MatrixId) -> usize {
        self.vnodes[self.first_vnode(id)].1
    }

    /// The member owning `id` when the members flagged in `down` are
    /// excluded: the first clockwise position belonging to a live member.
    /// `None` when every member is down.
    ///
    /// Consistency guarantee: if [`HashRing::assign`]`(id)` is live in
    /// `down`, this returns exactly that member — taking members down
    /// never moves keys the downed members did not own.
    ///
    /// # Panics
    ///
    /// If `down` is shorter than [`HashRing::slots`].
    pub fn assign_excluding(&self, id: &MatrixId, down: &[bool]) -> Option<usize> {
        assert!(
            down.len() >= self.slots,
            "down mask must cover every member slot"
        );
        self.candidates(id).find(|&s| !down[s])
    }

    /// All members in clockwise ring order from `id`'s position, each
    /// once: the failover order. The first element is
    /// [`HashRing::assign`]`(id)`.
    pub fn candidates(&self, id: &MatrixId) -> impl Iterator<Item = usize> + '_ {
        let start = self.first_vnode(id);
        let mut seen = vec![false; self.slots];
        let n = self.vnodes.len();
        (0..n).filter_map(move |step| {
            let member = self.vnodes[(start + step) % n].1;
            if seen[member] {
                None
            } else {
                seen[member] = true;
                Some(member)
            }
        })
    }

    /// The replica set for `id` under R-way placement: the first
    /// `r.max(1)` members in candidate order (so the primary is always
    /// `replicas(..)[0]`). Degenerate `r >= shards()` clamps naturally to
    /// every member, each once.
    pub fn replicas(&self, id: &MatrixId, r: usize) -> Vec<usize> {
        self.candidates(id).take(r.max(1)).collect()
    }
}

/// Virtual nodes per shard on the router's [`HashRing`].
const VNODES: usize = 64;

/// Dial attempts a pool checkout may spend when the pool is empty before
/// giving up with a typed [`PoolError`] — the cap that keeps an empty
/// pool on a dead shard from redialing unboundedly.
const REDIALS: u32 = 2;

/// Routing keys the warm-up log remembers (LRU-bounded).
const WARMUP_KEYS: usize = 128;

/// Distinct request specs remembered per routing key (oldest forgotten
/// first).
const WARMUP_SPECS_PER_KEY: usize = 4;

/// Sizing knobs for a [`ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Wire connections dialed per shard up front. Batch fan-out splits a
    /// shard's sub-batch across its connections in LPT bins; the pool
    /// grows past this high-water mark only if checkout finds it empty.
    pub connections: usize,
    /// Owners per key: the first R live candidates on the ring, with
    /// read-one semantics. The primary answers; while cheaper replicas
    /// remain, the router fails over after a **single** zero-backoff
    /// attempt — a kill costs no reconnect-retry ladder and no discovery
    /// timeout, because the fallback owner is already designated (and
    /// kept warm by membership replay). `1` (the default) is
    /// primary-only placement, where failover discovers a survivor
    /// clockwise; `0` behaves like `1`.
    pub replicas: usize,
    /// Health-probe cadence for down-marked shards. `None` (the default)
    /// disables the background prober — down marks stay sticky unless
    /// [`ShardRouter::probe_now`] is called. Deployments that want
    /// self-healing arm it explicitly (the serve bin's `--probe-ms`).
    pub probe_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            connections: 2,
            replicas: 1,
            probe_interval: None,
        }
    }
}

/// Why a pool checkout failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The pool was empty and every capped dial attempt failed.
    DialExhausted {
        /// Dial attempts made before giving up.
        attempts: u32,
        /// The last dial error observed.
        last: String,
    },
}

impl core::fmt::Display for PoolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PoolError::DialExhausted { attempts, last } => {
                write!(
                    f,
                    "pool empty and {attempts} dial attempt(s) failed: {last}"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Why a membership operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipError {
    /// The member id names no slot this router has ever had.
    UnknownShard(usize),
    /// The member already left the fleet.
    AlreadyDeparted(usize),
    /// The operation would leave the fleet empty — a router with no
    /// members cannot route; shut it down instead.
    LastShard,
}

impl core::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MembershipError::UnknownShard(m) => write!(f, "unknown shard {m}"),
            MembershipError::AlreadyDeparted(m) => write!(f, "shard {m} already left the fleet"),
            MembershipError::LastShard => {
                write!(f, "refusing to remove the last live shard")
            }
        }
    }
}

impl std::error::Error for MembershipError {}

/// Per-shard observability counters (snapshot; see
/// [`ShardRouter::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Wire calls attempted against this shard (each may retry
    /// internally per the router's [`RetryPolicy`]).
    pub calls: u64,
    /// Calls that returned a successful [`Reply`].
    pub replies: u64,
    /// Calls that returned a typed [`ServeError`].
    pub typed_errors: u64,
    /// Calls lost to transport failure after reconnect-retry exhaustion.
    pub transport_errors: u64,
    /// In-place stream reconnects performed by this shard's clients.
    pub reconnects: u64,
    /// Warm-up replays served by this shard (never counted in
    /// `replies` — warm traffic is not router traffic).
    pub warmups: u64,
    /// Whether the router currently has the shard marked down
    /// (transient when probing is armed).
    pub down: bool,
    /// Whether the shard has left the fleet (tombstoned slot; final).
    pub departed: bool,
}

#[derive(Debug, Default)]
struct ShardCounters {
    calls: AtomicU64,
    replies: AtomicU64,
    typed_errors: AtomicU64,
    transport_errors: AtomicU64,
    reconnects: AtomicU64,
    warmups: AtomicU64,
}

/// The router's fleet-wide accounting ledger — the multi-shard rollup of
/// [`RuntimeStats`](crate::RuntimeStats): one row per router submission,
/// regardless of how many shards the request visited on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Requests submitted to the router.
    pub submitted: u64,
    /// Requests that returned a [`Reply`].
    pub completed: u64,
    /// Typed rejections (overload on every live shard, bad request,
    /// shutdown / all shards down).
    pub rejected: u64,
    /// Requests whose per-shard deadline elapsed.
    pub timed_out: u64,
    /// Structured `Faulted` outcomes (isolated panics, engine errors,
    /// unretried protocol errors).
    pub faulted: u64,
    /// Requests that moved to another shard after a transport failure or
    /// shutdown reply (counted once per hop).
    pub failovers: u64,
    /// Requests that spilled to another shard after exhausting retryable
    /// overload on one (the busy shard stays up; counted once per hop).
    pub spills: u64,
    /// Stream reconnects across every shard's clients.
    pub reconnects: u64,
    /// Down marks cleared by health probes (background or
    /// [`ShardRouter::probe_now`]).
    pub recoveries: u64,
    /// Warm-up replay requests served fleet-wide (never ledger rows).
    pub warmups: u64,
    /// Shards currently marked down (departed slots excluded).
    pub shards_down: u64,
}

impl RouterStats {
    /// Requests accounted for by a terminal outcome. The router-level
    /// invariant matches the single-runtime one:
    /// `accounted() == submitted` whenever no submission is in flight —
    /// failover, probing, and membership churn never lose or
    /// double-count a request.
    pub fn accounted(&self) -> u64 {
        self.completed + self.rejected + self.timed_out + self.faulted
    }
}

#[derive(Debug, Default)]
struct RouterCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    faulted: AtomicU64,
    failovers: AtomicU64,
    spills: AtomicU64,
    recoveries: AtomicU64,
    warmups: AtomicU64,
}

/// One shard endpoint: its address, a checkout/checkin pool of wire
/// clients, its transient down flag, its tombstone, and its counters.
#[derive(Debug)]
struct Shard {
    addr: SocketAddr,
    pool: PoisonFreeMutex<Vec<WireClient>>,
    down: AtomicBool,
    departed: AtomicBool,
    /// Held (true) by the one prober currently attempting this shard's
    /// recovery, so a synchronous [`ShardRouter::probe_now`] and the
    /// background prober never double-probe or double-replay it.
    probing: AtomicBool,
    counters: ShardCounters,
}

impl Shard {
    fn fresh(addr: SocketAddr, pool: Vec<WireClient>) -> Arc<Shard> {
        Arc::new(Shard {
            addr,
            pool: PoisonFreeMutex::new(pool),
            down: AtomicBool::new(false),
            departed: AtomicBool::new(false),
            probing: AtomicBool::new(false),
            counters: ShardCounters::default(),
        })
    }

    /// Pops a pooled client, dialing up to `redials` fresh streams when
    /// the pool is momentarily empty (every client checked out, or
    /// dropped after failures). Bounded: a dead shard costs at most
    /// `redials` refused dials per checkout, never an unbounded redial
    /// loop.
    fn checkout(&self, redials: u32) -> Result<WireClient, PoolError> {
        if let Some(client) = self.pool.lock().pop() {
            return Ok(client);
        }
        let attempts = redials.max(1);
        let mut last = String::new();
        for _ in 0..attempts {
            match WireClient::connect(self.addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = e.to_string(),
            }
        }
        Err(PoolError::DialExhausted { attempts, last })
    }
}

/// What one shard said about one request — the router's failover
/// decision input.
enum ShardOutcome {
    Reply(Box<Reply>),
    Typed(ServeError),
    Transport(String),
}

/// The membership view every request routes against: the slot list
/// (only ever grows; departed slots are tombstones) and the ring over
/// the live members. Guarded by a read-write lock — requests hold the
/// read side for their whole route walk, so a membership write is a
/// drain barrier against the old ring.
#[derive(Debug)]
struct Fleet {
    shards: Vec<Arc<Shard>>,
    ring: HashRing,
}

/// The shared state behind a [`ShardRouter`] (also referenced by the
/// background prober thread).
#[derive(Debug)]
struct RouterInner {
    fleet: PoisonFreeRwLock<Fleet>,
    config: RouterConfig,
    counters: RouterCounters,
    /// Spec → identity memo, mirroring `SimService`'s: the first request
    /// for a spec generates (or disk-loads) the tensor once to learn its
    /// content hash; every later request routes without touching tensor
    /// bytes.
    ids: PoisonFreeMutex<HashMap<SpecKey, MatrixId>>,
    /// Bounded per-key log of recently served request specs, for warm-up
    /// replay on join/recovery. Entries carry a semantic fingerprint so
    /// repeats of the same spec don't crowd out distinct ones.
    /// Lock order: `fleet` before `warmup`, always.
    warmup: PoisonFreeMutex<Lru<MatrixId, Vec<(u64, Work)>>>,
    stop: AtomicBool,
    probe_mx: PoisonFreeMutex<()>,
    probe_cv: PoisonFreeCondvar,
}

/// A consistent-hash router over N wire shard endpoints. See the
/// [module docs](self) for placement, balance, failover, recovery, and
/// membership semantics.
#[derive(Debug)]
pub struct ShardRouter {
    inner: Arc<RouterInner>,
    prober: Option<JoinHandle<()>>,
}

impl ShardRouter {
    /// Dials every endpoint ([`RouterConfig::connections`] streams each)
    /// and builds the ring. Construction is strict: a shard that cannot
    /// be dialed at all is an error, because a fleet that starts degraded
    /// should fail loudly at deploy time rather than quietly at the first
    /// unlucky request. When [`RouterConfig::probe_interval`] is set, the
    /// background prober starts immediately.
    ///
    /// # Errors
    ///
    /// Connection failures, an empty endpoint list, or a zero
    /// [`RouterConfig::probe_interval`] (a prober that never waits).
    pub fn connect<A: ToSocketAddrs>(
        endpoints: &[A],
        config: RouterConfig,
    ) -> std::io::Result<ShardRouter> {
        if endpoints.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard router needs at least one endpoint",
            ));
        }
        if config.probe_interval == Some(Duration::ZERO) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the probe interval must be positive",
            ));
        }
        let connections = config.connections.max(1);
        let mut shards = Vec::with_capacity(endpoints.len());
        for endpoint in endpoints {
            let mut pool = Vec::with_capacity(connections);
            for _ in 0..connections {
                pool.push(WireClient::connect(endpoint)?);
            }
            let addr = pool[0].addr();
            shards.push(Shard::fresh(addr, pool));
        }
        let ring = HashRing::new(shards.len(), VNODES);
        let inner = Arc::new(RouterInner {
            fleet: PoisonFreeRwLock::new(Fleet { shards, ring }),
            config,
            counters: RouterCounters::default(),
            ids: PoisonFreeMutex::new(HashMap::new()),
            warmup: PoisonFreeMutex::new(Lru::new(WARMUP_KEYS)),
            stop: AtomicBool::new(false),
            probe_mx: PoisonFreeMutex::new(()),
            probe_cv: PoisonFreeCondvar::new(),
        });
        let prober = config.probe_interval.map(|interval| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tailors-shard-prober".into())
                .spawn(move || prober_loop(&inner, interval))
                .expect("prober thread spawn")
        });
        Ok(ShardRouter { inner, prober })
    }

    /// A snapshot of the ring this router currently places requests
    /// with (the live membership view at call time).
    pub fn ring(&self) -> HashRing {
        self.inner.fleet.read().ring.clone()
    }

    /// The primary member for `work`'s matrix identity (ignoring down
    /// flags) — where the request goes when its shard is healthy.
    pub fn primary(&self, work: &Work) -> usize {
        let id = self.inner.identify(work);
        self.inner.fleet.read().ring.assign(&id)
    }

    /// Serves one request with failover. The outcome is terminal: a
    /// reply, or the typed error of the last shard consulted
    /// ([`ServeError::Shutdown`] when every shard is down).
    ///
    /// # Errors
    ///
    /// The typed [`ServeError`] for this request. Transport failures are
    /// absorbed into failover; only when no live shard remains do they
    /// surface, as `Shutdown`.
    pub fn submit(&self, work: &Work) -> Result<Reply, ServeError> {
        self.inner.counters.submitted.fetch_add(1, Ordering::SeqCst);
        let outcome = self.inner.route(work);
        match &outcome {
            Ok(_) => &self.inner.counters.completed,
            Err(ServeError::Timeout { .. }) => &self.inner.counters.timed_out,
            Err(ServeError::Faulted { .. }) => &self.inner.counters.faulted,
            Err(_) => &self.inner.counters.rejected,
        }
        .fetch_add(1, Ordering::SeqCst);
        outcome
    }

    /// Serves a whole batch across the fleet: requests group by primary
    /// shard, each group splits over its shard's connection pool in LPT
    /// bins priced by the same cost formula
    /// [`SimService::submit_batch`](crate::SimService::submit_batch)
    /// uses, every (shard, connection) bin runs on its own thread, and
    /// outcomes reassemble in request order — so the reply sequence is
    /// bit-identical to a single process serving the same batch.
    pub fn submit_batch(&self, works: &[Work]) -> Vec<Result<Reply, ServeError>> {
        let primaries: Vec<usize> = works.iter().map(|w| self.primary(w)).collect();
        // Size the group table by the largest member id seen, not a
        // membership snapshot: a concurrent join between the primary
        // resolutions must not make indexing panic.
        let slots = primaries.iter().copied().max().map_or(0, |m| m + 1);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); slots];
        for (i, &p) in primaries.iter().enumerate() {
            groups[p].push(i);
        }
        let mut slots_out: Vec<Option<Result<Reply, ServeError>>> = Vec::new();
        slots_out.resize_with(works.len(), || None);
        let outcomes = PoisonFreeMutex::new(slots_out);
        std::thread::scope(|scope| {
            for group in &groups {
                if group.is_empty() {
                    continue;
                }
                let costs: Vec<u128> = group
                    .iter()
                    .map(|&i| match &works[i] {
                        Work::Sim(r) => request_cost(&r.workload, r.variant),
                        // A functional request executes the dataflow, not
                        // just its analytics — weight it like a cold
                        // overbooked planning pass on top of its size.
                        Work::Functional(r) => request_cost(&r.workload, r.variant) * 4,
                    })
                    .collect();
                let bins = self.inner.config.connections.max(1).min(group.len());
                for bin in balanced_partition(&costs, bins) {
                    let group = group.as_slice();
                    let outcomes = &outcomes;
                    scope.spawn(move || {
                        for local in bin {
                            let i = group[local];
                            let outcome = self.submit(&works[i]);
                            outcomes.lock()[i] = Some(outcome);
                        }
                    });
                }
            }
        });
        let results: Vec<Result<Reply, ServeError>> = outcomes
            .lock()
            .drain(..)
            .map(|slot| slot.expect("every batch index is owned by exactly one bin"))
            .collect();
        results
    }

    /// Adds a new shard to the live fleet: dials its connection pool,
    /// takes the fleet write lock (draining in-flight requests routed on
    /// the old ring), appends the shard at the next member id, rebuilds
    /// the ring over the live members, and — after releasing the lock —
    /// replays the warm-up log entries the new member now owns against
    /// it on the low-priority lane. Returns the new member id.
    ///
    /// Only the new member's keys remap (the [`HashRing`] churn
    /// property); an in-flight request either routed on the old ring
    /// (completing wherever it was placed) or waits for the new one —
    /// it is never dropped or double-accounted, because the ledger rows
    /// are written by `submit` outside the membership lock.
    ///
    /// # Errors
    ///
    /// Dial failures (the fleet is unchanged in that case).
    pub fn join<A: ToSocketAddrs>(&self, endpoint: A) -> std::io::Result<usize> {
        let connections = self.inner.config.connections.max(1);
        let mut pool = Vec::with_capacity(connections);
        for _ in 0..connections {
            pool.push(WireClient::connect(&endpoint)?);
        }
        let addr = pool[0].addr();
        let shard = Shard::fresh(addr, pool);
        let (member, replay) = {
            let mut fleet = self.inner.fleet.write();
            let member = fleet.shards.len();
            fleet.shards.push(Arc::clone(&shard));
            fleet.ring = HashRing::over(&live_members(&fleet.shards), VNODES);
            // The logged keys whose replica set now includes the joiner
            // are exactly the keys that moved to it.
            (
                member,
                self.inner.logged_works_owned_by(&fleet.ring, member),
            )
        };
        self.inner.replay_to(&shard, &replay);
        Ok(member)
    }

    /// Retires a live member: takes the fleet write lock (draining
    /// in-flight requests), tombstones the slot, clears its connection
    /// pool, rebuilds the ring over the survivors, and — after releasing
    /// the lock — replays the departed member's logged keys against
    /// their new owners so the handoff is warm. The slot index is never
    /// reused, so every survivor's vnode positions (and every unaffected
    /// key's owner) are untouched.
    ///
    /// # Errors
    ///
    /// [`MembershipError`] when the member is unknown, already departed,
    /// or the last live shard.
    pub fn leave(&self, member: usize) -> Result<(), MembershipError> {
        let r = self.inner.replica_count();
        let replay: Vec<(Arc<Shard>, Vec<Work>)> = {
            let mut fleet = self.inner.fleet.write();
            if member >= fleet.shards.len() {
                return Err(MembershipError::UnknownShard(member));
            }
            if fleet.shards[member].departed.load(Ordering::SeqCst) {
                return Err(MembershipError::AlreadyDeparted(member));
            }
            if live_members(&fleet.shards).len() <= 1 {
                return Err(MembershipError::LastShard);
            }
            // The leaver's logged keys and their *old* owner sets, read
            // against the old ring before the rebuild.
            let affected: Vec<(MatrixId, Vec<usize>, Vec<Work>)> = self
                .inner
                .warmup
                .lock()
                .iter()
                .filter_map(|(id, specs)| {
                    let owners = fleet.ring.replicas(id, r);
                    owners
                        .contains(&member)
                        .then(|| (*id, owners, logged_works(specs)))
                })
                .collect();
            fleet.shards[member].departed.store(true, Ordering::SeqCst);
            fleet.shards[member].pool.lock().clear();
            fleet.ring = HashRing::over(&live_members(&fleet.shards), VNODES);
            // Each affected key's new owners that weren't old owners get
            // the key's logged specs replayed.
            let mut per_member: HashMap<usize, Vec<Work>> = HashMap::new();
            for (id, old_owners, works) in &affected {
                for new_owner in fleet.ring.replicas(id, r) {
                    if !old_owners.contains(&new_owner) {
                        per_member
                            .entry(new_owner)
                            .or_default()
                            .extend(works.iter().cloned());
                    }
                }
            }
            let mut replay: Vec<(Arc<Shard>, Vec<Work>)> = per_member
                .into_iter()
                .map(|(m, works)| (Arc::clone(&fleet.shards[m]), works))
                .collect();
            // Deterministic replay order (HashMap iteration is not).
            replay.sort_by_key(|(shard, _)| shard.addr);
            replay
        };
        for (shard, works) in &replay {
            self.inner.replay_to(shard, works);
        }
        Ok(())
    }

    /// Probes every down-marked shard once, synchronously: a fresh dial
    /// plus a [`WireClient::ping`]; a pong clears the down mark,
    /// re-admits the shard, and warm-replays the keys it owns. Returns
    /// how many shards recovered. This is the same sweep the background
    /// prober runs on its interval — callable directly for deterministic
    /// tests and tooling.
    pub fn probe_now(&self) -> usize {
        self.inner.probe_once()
    }

    /// Down flags by member slot (departed slots report their last
    /// state; the vector grows as members join).
    pub fn down_shards(&self) -> Vec<bool> {
        self.inner
            .fleet
            .read()
            .shards
            .iter()
            .map(|s| s.down.load(Ordering::SeqCst))
            .collect()
    }

    /// Snapshot of the fleet ledger.
    pub fn stats(&self) -> RouterStats {
        let c = &self.inner.counters;
        let fleet = self.inner.fleet.read();
        RouterStats {
            submitted: c.submitted.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            timed_out: c.timed_out.load(Ordering::SeqCst),
            faulted: c.faulted.load(Ordering::SeqCst),
            failovers: c.failovers.load(Ordering::SeqCst),
            spills: c.spills.load(Ordering::SeqCst),
            reconnects: fleet
                .shards
                .iter()
                .map(|s| s.counters.reconnects.load(Ordering::SeqCst))
                .sum(),
            recoveries: c.recoveries.load(Ordering::SeqCst),
            warmups: c.warmups.load(Ordering::SeqCst),
            shards_down: fleet
                .shards
                .iter()
                .filter(|s| s.down.load(Ordering::SeqCst) && !s.departed.load(Ordering::SeqCst))
                .count() as u64,
        }
    }

    /// Per-shard counter snapshots, in member-slot order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner
            .fleet
            .read()
            .shards
            .iter()
            .map(|s| ShardStats {
                calls: s.counters.calls.load(Ordering::SeqCst),
                replies: s.counters.replies.load(Ordering::SeqCst),
                typed_errors: s.counters.typed_errors.load(Ordering::SeqCst),
                transport_errors: s.counters.transport_errors.load(Ordering::SeqCst),
                reconnects: s.counters.reconnects.load(Ordering::SeqCst),
                warmups: s.counters.warmups.load(Ordering::SeqCst),
                down: s.down.load(Ordering::SeqCst),
                departed: s.departed.load(Ordering::SeqCst),
            })
            .collect()
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.probe_cv.notify_all();
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

/// The member ids of every non-departed slot.
fn live_members(shards: &[Arc<Shard>]) -> Vec<usize> {
    shards
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.departed.load(Ordering::SeqCst))
        .map(|(i, _)| i)
        .collect()
}

fn prober_loop(inner: &RouterInner, interval: Duration) {
    let mut guard = inner.probe_mx.lock();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let (g, _) = inner.probe_cv.wait_timeout(guard, interval);
        guard = g;
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        drop(guard);
        inner.probe_once();
        guard = inner.probe_mx.lock();
    }
}

impl RouterInner {
    fn replica_count(&self) -> usize {
        self.config.replicas.max(1)
    }

    /// Every logged spec whose key's replica set on `ring` contains
    /// `member` — what a (re)admitted member must be warmed with. The
    /// caller holds the fleet lock that guards `ring` (lock order: fleet
    /// before warm-up log).
    fn logged_works_owned_by(&self, ring: &HashRing, member: usize) -> Vec<Work> {
        let r = self.replica_count();
        self.warmup
            .lock()
            .iter()
            .filter(|(id, _)| ring.replicas(id, r).contains(&member))
            .flat_map(|(_, specs)| logged_works(specs))
            .collect()
    }

    /// Walks the failover order for `work`: primary first, then clockwise
    /// ring successors, skipping shards marked down. The fleet read lock
    /// is held for the whole walk — membership writes drain behind it.
    fn route(&self, work: &Work) -> Result<Reply, ServeError> {
        // Identity resolution may generate the tensor; keep it outside
        // the fleet lock.
        let id = self.identify(work);
        let fleet = self.fleet.read();
        let r = self.replica_count();
        let mut last_refusal: Option<ServeError> = None;
        let mut live_tried = 0usize;
        let mut outcome_reply: Option<Reply> = None;
        let retry = RetryPolicy::default();
        for member in fleet.ring.candidates(&id) {
            let shard = &fleet.shards[member];
            if shard.down.load(Ordering::SeqCst) {
                continue;
            }
            // Inside the replica set (and with cheaper designated owners
            // still ahead), a dead shard must cost nothing: one attempt,
            // no backoff, no reconnect ladder — the next replica is
            // already warm. The last replica (and every post-replica
            // discovery hop) gets the full retry policy back.
            let fail_fast = live_tried + 1 < r;
            live_tried += 1;
            let policy = if fail_fast {
                RetryPolicy {
                    max_attempts: 1,
                    ..retry
                }
            } else {
                retry
            };
            match self.call_shard(shard, work, &policy) {
                ShardOutcome::Reply(reply) => {
                    outcome_reply = Some(*reply);
                    break;
                }
                ShardOutcome::Typed(e) if e.retryable() => {
                    // Busy, not gone: spill clockwise without condemning
                    // the shard.
                    self.counters.spills.fetch_add(1, Ordering::SeqCst);
                    last_refusal = Some(e);
                }
                ShardOutcome::Typed(ServeError::Shutdown) => {
                    shard.down.store(true, Ordering::SeqCst);
                    self.counters.failovers.fetch_add(1, Ordering::SeqCst);
                    last_refusal = Some(ServeError::Shutdown);
                }
                // Deterministic outcomes: every shard computes the same
                // answer for the same request, so moving on would only
                // repeat it.
                ShardOutcome::Typed(e) => return Err(e),
                ShardOutcome::Transport(m) => {
                    eprintln!(
                        "router: shard {member} ({}) lost: {m} — failing over",
                        shard.addr
                    );
                    shard.down.store(true, Ordering::SeqCst);
                    self.counters.failovers.fetch_add(1, Ordering::SeqCst);
                    last_refusal = Some(ServeError::Shutdown);
                }
            }
        }
        drop(fleet);
        match outcome_reply {
            Some(reply) => {
                self.record_warm(&id, work);
                Ok(reply)
            }
            None => Err(last_refusal.unwrap_or(ServeError::Shutdown)),
        }
    }

    /// One request against one shard, through a checked-out pool client.
    /// A client that saw a transport or protocol failure is dropped, not
    /// returned — its stream state is unknown and the pool re-dials on
    /// demand (capped; see [`Shard::checkout`]).
    fn call_shard(&self, shard: &Shard, work: &Work, policy: &RetryPolicy) -> ShardOutcome {
        shard.counters.calls.fetch_add(1, Ordering::SeqCst);
        let mut client = match shard.checkout(REDIALS) {
            Ok(c) => c,
            Err(e) => {
                shard
                    .counters
                    .transport_errors
                    .fetch_add(1, Ordering::SeqCst);
                return ShardOutcome::Transport(e.to_string());
            }
        };
        let before = client.reconnects();
        let result = client.call_with_retry(work, policy);
        shard
            .counters
            .reconnects
            .fetch_add(client.reconnects() - before, Ordering::SeqCst);
        match result {
            Ok(outcome) => {
                shard.pool.lock().push(client);
                match outcome {
                    Ok(reply) => {
                        shard.counters.replies.fetch_add(1, Ordering::SeqCst);
                        ShardOutcome::Reply(Box::new(reply))
                    }
                    Err(e) => {
                        shard.counters.typed_errors.fetch_add(1, Ordering::SeqCst);
                        ShardOutcome::Typed(e)
                    }
                }
            }
            Err(WireError::Io(m)) => {
                shard
                    .counters
                    .transport_errors
                    .fetch_add(1, Ordering::SeqCst);
                ShardOutcome::Transport(m)
            }
            Err(WireError::Malformed(m)) => {
                // A codec disagreement is deterministic — surface it as a
                // fault instead of hammering other shards with it.
                shard.counters.typed_errors.fetch_add(1, Ordering::SeqCst);
                ShardOutcome::Typed(ServeError::Faulted {
                    panic: false,
                    message: format!("wire protocol error: {m}"),
                })
            }
        }
    }

    /// Remembers `work` in the warm-up log under its routing key,
    /// deduplicated by semantic fingerprint and bounded both per key and
    /// across keys.
    fn record_warm(&self, id: &MatrixId, work: &Work) {
        let fp = work_fingerprint(work);
        let mut log = self.warmup.lock();
        if let Some(specs) = log.get_mut(id) {
            if specs.iter().any(|(f, _)| *f == fp) {
                return;
            }
            if specs.len() >= WARMUP_SPECS_PER_KEY {
                specs.remove(0);
            }
            specs.push((fp, work.clone()));
        } else {
            log.insert(*id, vec![(fp, work.clone())]);
        }
    }

    /// One probe sweep over every down, non-departed shard: fresh dial +
    /// ping; a pong warm-replays the keys the shard owns, then clears
    /// the down mark — the shard is re-admitted only after its caches
    /// are primed, so returning live traffic never races the replay.
    /// The per-shard `probing` flag elects exactly one prober (a
    /// concurrent [`ShardRouter::probe_now`] and the background prober
    /// can't double-count a recovery or double-replay).
    fn probe_once(&self) -> usize {
        let targets: Vec<(usize, Arc<Shard>)> = {
            let fleet = self.fleet.read();
            fleet
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.down.load(Ordering::SeqCst) && !s.departed.load(Ordering::SeqCst)
                })
                .map(|(i, s)| (i, Arc::clone(s)))
                .collect()
        };
        let mut recovered = 0;
        for (member, shard) in targets {
            if shard
                .probing
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue; // another prober owns this shard's recovery
            }
            let pong = match WireClient::connect(shard.addr) {
                Ok(mut client) => client.ping().is_ok().then_some(client),
                Err(_) => None,
            };
            if let Some(client) = pong {
                // Another path may have raced `down` back to false only
                // via an earlier probe; re-check under the probing flag.
                if shard.down.load(Ordering::SeqCst) {
                    shard.pool.lock().push(client);
                    let replay = self.logged_works_owned_by(&self.fleet.read().ring, member);
                    self.replay_to(&shard, &replay);
                    shard.down.store(false, Ordering::SeqCst);
                    self.counters.recoveries.fetch_add(1, Ordering::SeqCst);
                    recovered += 1;
                }
            }
            shard.probing.store(false, Ordering::SeqCst);
        }
        recovered
    }

    /// Replays `works` against `shard` on the server's low-priority lane
    /// (`"warm":true` envelopes). Best effort: a transport failure
    /// abandons the rest of the replay (the shard will warm organically);
    /// successes bump the `warmups` counters and nothing else — warm
    /// traffic is never a ledger row and never a shard `reply`.
    fn replay_to(&self, shard: &Shard, works: &[Work]) {
        if works.is_empty() || shard.departed.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut client) = shard.checkout(REDIALS) else {
            return;
        };
        for work in works {
            match client.call_warm(work) {
                Ok(_) => {
                    shard.counters.warmups.fetch_add(1, Ordering::SeqCst);
                    self.counters.warmups.fetch_add(1, Ordering::SeqCst);
                }
                Err(_) => return, // stream state unknown: drop the client
            }
        }
        shard.pool.lock().push(client);
    }

    /// Resolves `work`'s routing identity, generating the tensor only on
    /// first sight of its spec (see the `ids` field).
    fn identify(&self, work: &Work) -> MatrixId {
        let wl = work.workload();
        let spec = SpecKey::of(wl);
        if let Some(id) = self.ids.lock().get(&spec) {
            return *id;
        }
        let tensor = tailors_workloads::generate_cached(wl);
        let id = MatrixId::of(&tensor);
        self.ids.lock().insert(spec, id);
        id
    }
}

/// The request specs of one warm-up log entry, without their
/// fingerprints.
fn logged_works(specs: &[(u64, Work)]) -> Vec<Work> {
    specs.iter().map(|(_, w)| w.clone()).collect()
}

/// A semantic fingerprint of a request for warm-log deduplication: two
/// works with equal fingerprints would warm the same cache tiers. A
/// collision only causes a missed (or extra) warm replay — harmless.
fn work_fingerprint(work: &Work) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let (wl, variant, arch, budget, grid, auto_plan, kind, threads) = match work {
        Work::Sim(r) => (
            &r.workload,
            r.variant,
            &r.arch,
            r.budget,
            r.grid,
            r.auto_plan,
            0u8,
            0usize,
        ),
        Work::Functional(r) => (
            &r.workload,
            r.variant,
            &r.arch,
            r.budget,
            r.grid,
            r.auto_plan,
            1u8,
            r.threads,
        ),
    };
    SpecKey::of(wl).hash(&mut h);
    variant.cache_key().hash(&mut h);
    arch.cache_key().hash(&mut h);
    budget.limit_bytes().hash(&mut h);
    matches!(grid, tailors_sim::GridMode::Grid2D).hash(&mut h);
    auto_plan.hash(&mut h);
    kind.hash(&mut h);
    threads.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<MatrixId> {
        (0..n)
            .map(|i| MatrixId {
                hash: fnv1a(FNV_OFFSET, &i.to_le_bytes()),
                nrows: 64 + (i as usize % 7),
                ncols: 64,
                nnz: 100 + i as usize,
            })
            .collect()
    }

    #[test]
    fn ring_assignment_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(5, 64);
        let b = HashRing::new(5, 64);
        let mut hit = [false; 5];
        for id in ids(500) {
            let s = a.assign(&id);
            assert_eq!(s, b.assign(&id));
            assert!(s < 5);
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "500 keys must touch all 5 shards");
    }

    #[test]
    fn excluding_a_shard_moves_only_its_keys() {
        let ring = HashRing::new(4, 64);
        let mut down = [false; 4];
        down[2] = true;
        for id in ids(400) {
            let primary = ring.assign(&id);
            let fallback = ring.assign_excluding(&id, &down).unwrap();
            if primary != 2 {
                assert_eq!(fallback, primary, "live shards must keep their keys");
            } else {
                assert_ne!(fallback, 2);
            }
        }
    }

    #[test]
    fn candidates_enumerate_every_shard_once_starting_at_primary() {
        let ring = HashRing::new(6, 32);
        for id in ids(50) {
            let order: Vec<usize> = ring.candidates(&id).collect();
            assert_eq!(order[0], ring.assign(&id));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn all_shards_down_yields_no_assignment() {
        let ring = HashRing::new(3, 8);
        let id = ids(1)[0];
        assert_eq!(ring.assign_excluding(&id, &[true, true, true]), None);
    }

    #[test]
    fn member_rings_preserve_survivor_positions() {
        // A ring over {0,1,2,3} and a ring over {0,1,3} (member 2 left)
        // must agree on every key that wasn't member 2's: the churn
        // property elastic membership is built on.
        let full = HashRing::new(4, 64);
        let survivors = HashRing::over(&[0, 1, 3], 64);
        assert_eq!(survivors.shards(), 3);
        assert_eq!(survivors.members(), &[0, 1, 3]);
        assert_eq!(survivors.slots(), 4);
        for id in ids(400) {
            let before = full.assign(&id);
            let after = survivors.assign(&id);
            if before != 2 {
                assert_eq!(after, before, "unaffected keys must not move");
            } else {
                assert_ne!(after, 2);
                // And the destination matches failover on the full ring.
                let down = [false, false, true, false];
                assert_eq!(after, full.assign_excluding(&id, &down).unwrap());
            }
        }
    }

    #[test]
    fn replicas_are_distinct_and_clamp_to_fleet_size() {
        let ring = HashRing::new(5, 32);
        for id in ids(100) {
            let reps = ring.replicas(&id, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], ring.assign(&id));
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
            // Degenerate r >= fleet size clamps to every member once.
            let all = ring.replicas(&id, 99);
            assert_eq!(all.len(), 5);
            // r == 0 behaves like primary-only.
            assert_eq!(ring.replicas(&id, 0), vec![ring.assign(&id)]);
        }
    }

    #[test]
    fn checkout_caps_redials_with_a_typed_error() {
        // Grab an ephemeral port that nothing listens on: bind, note the
        // address, drop the listener.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let shard = Shard::fresh(dead_addr, Vec::new());
        let err = shard.checkout(3).expect_err("dead port cannot dial");
        let PoolError::DialExhausted { attempts, last } = &err;
        assert_eq!(*attempts, 3);
        assert!(!last.is_empty());
        assert!(err.to_string().contains("3 dial attempt(s)"));
        // Zero clamps to one attempt, never an unbounded loop.
        let PoolError::DialExhausted { attempts, .. } = shard.checkout(0).expect_err("still dead");
        assert_eq!(attempts, 1);
    }

    #[test]
    fn connect_refuses_a_zero_probe_interval_before_dialing() {
        // Nothing listens on the endpoint, so a router that dialed would
        // fail with a connection error instead.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let config = RouterConfig {
            probe_interval: Some(Duration::ZERO),
            ..RouterConfig::default()
        };
        let err = ShardRouter::connect(&[dead_addr], config).expect_err("zero interval");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn work_fingerprints_separate_semantics_not_instances() {
        let a =
            crate::SimRequest::suite("email-Enron", 1.0 / 512.0, tailors_sim::Variant::ExTensorP)
                .expect("suite");
        let b = a.clone();
        assert_eq!(
            work_fingerprint(&Work::Sim(a.clone())),
            work_fingerprint(&Work::Sim(b))
        );
        let other =
            crate::SimRequest::suite("email-Enron", 1.0 / 512.0, tailors_sim::Variant::ExTensorN)
                .expect("suite");
        assert_ne!(
            work_fingerprint(&Work::Sim(a)),
            work_fingerprint(&Work::Sim(other))
        );
    }
}

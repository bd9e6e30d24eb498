//! Elastic fleet membership, end to end against in-process wire shards:
//! a killed-and-restarted shard is re-admitted by health probes (with
//! warm-up replay observable on its fresh runtime), R-way replicated
//! placement absorbs a kill without a single timeout, live join/leave
//! remap only the moved keys, and the fleet accounting ledger
//! (`completed + rejected + timed_out + faulted == submitted`) holds
//! through every probe, join, leave, and failover — including membership
//! churn concurrent with a driven batch.

use std::sync::Arc;
use std::time::Duration;

use tailors_serve::wire::WireTcpServer;
use tailors_serve::{
    MembershipError, Reply, RouterConfig, RuntimeConfig, ServiceRuntime, ShardRouter, SimRequest,
    SimResponse, SimService, Work,
};
use tailors_sim::{GridMode, MemBudget, Variant};

const SCALE: f64 = 1.0 / 256.0;
const SHARDS: usize = 3;

/// The shared 24-request stream the wire determinism suite uses: 8
/// workloads × 3 variants with budgets and grids cycled.
fn batch() -> Vec<SimRequest> {
    let names = [
        "cant",
        "email-Enron",
        "pdb1HYS",
        "rma10",
        "soc-Epinions1",
        "p2p-Gnutella31",
        "webbase-1M",
        "roadNet-CA",
    ];
    let variants = [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ];
    names
        .iter()
        .enumerate()
        .flat_map(|(i, name)| {
            variants.into_iter().enumerate().map(move |(j, variant)| {
                let mut req = SimRequest::suite(name, SCALE, variant).expect("suite workload");
                if (i + j) % 2 == 0 {
                    req.budget = MemBudget::bytes(64 << 10);
                }
                if j % 2 == 1 {
                    req.grid = GridMode::Grid2D;
                }
                req
            })
        })
        .collect()
}

struct Fleet {
    runtimes: Vec<Arc<ServiceRuntime>>,
    servers: Vec<WireTcpServer>,
}

impl Fleet {
    fn spawn(n: usize) -> Fleet {
        let mut fleet = Fleet {
            runtimes: Vec::new(),
            servers: Vec::new(),
        };
        for _ in 0..n {
            fleet.grow("127.0.0.1:0");
        }
        fleet
    }

    /// Spawns one more shard (fresh runtime + wire server) at `addr` and
    /// returns its endpoint.
    fn grow(&mut self, addr: &str) -> String {
        let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        }));
        let server = WireTcpServer::spawn(Arc::clone(&runtime), addr).expect("bind shard");
        let endpoint = server.addr().to_string();
        self.runtimes.push(runtime);
        self.servers.push(server);
        endpoint
    }

    fn endpoints(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    /// Takes shard `i` down completely: accept loop joined, sessions
    /// closed, workers drained, port freed.
    fn kill(&mut self, i: usize) {
        self.servers[i].stop();
        self.runtimes[i].shutdown();
    }

    /// Brings shard `i` back on its original port with a cold runtime —
    /// a crashed-and-restarted process, as far as the router can tell.
    fn restart(&mut self, i: usize) {
        let addr = self.servers[i].addr().to_string();
        let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        }));
        self.servers[i] =
            WireTcpServer::spawn(Arc::clone(&runtime), addr.as_str()).expect("rebind shard");
        self.runtimes[i] = runtime;
    }

    fn shutdown(mut self) {
        for server in &mut self.servers {
            server.stop();
        }
        for runtime in &self.runtimes {
            runtime.shutdown();
        }
    }
}

fn sim_replies(outcomes: Vec<Result<Reply, tailors_serve::ServeError>>) -> Vec<SimResponse> {
    outcomes
        .into_iter()
        .map(|o| o.expect("served").into_sim().expect("sim reply"))
        .collect()
}

fn assert_bit_identical(served: &[SimResponse], baseline: &[SimResponse], context: &str) {
    assert_eq!(served.len(), baseline.len(), "{context}");
    for (s, b) in served.iter().zip(baseline) {
        assert_eq!(s.name, b.name, "{context}");
        assert_eq!(s.metrics, b.metrics, "{context}: {}", s.name);
        assert_eq!(
            s.metrics.cycles.to_bits(),
            b.metrics.cycles.to_bits(),
            "{context}: {} cycles bits",
            s.name
        );
        assert_eq!(
            s.metrics.energy_pj.to_bits(),
            b.metrics.energy_pj.to_bits(),
            "{context}: {} energy bits",
            s.name
        );
    }
}

#[test]
fn killed_shard_is_readmitted_by_probes_with_warmup_and_ledger_intact() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();

    let mut fleet = Fleet::spawn(SHARDS);
    let router =
        ShardRouter::connect(&fleet.endpoints(), RouterConfig::default()).expect("router dials");

    let owners: Vec<usize> = works.iter().map(|w| router.primary(w)).collect();
    let victim = owners[0];
    assert!(owners.iter().filter(|&&o| o == victim).count() > 0);

    // Healthy leg populates the warm-up log.
    let first = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&first, &baseline, "healthy leg");

    // Kill the victim; its keys fail over and the shard is marked down.
    fleet.kill(victim);
    let second = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&second, &baseline, "failover leg");
    assert!(router.down_shards()[victim]);
    assert_eq!(router.stats().shards_down, 1);

    // Probing while the shard is still dead changes nothing.
    assert_eq!(router.probe_now(), 0);
    assert!(router.down_shards()[victim], "dead shard must stay down");
    assert_eq!(router.stats().recoveries, 0);

    // Restart on the same port (cold runtime — a process restart) and
    // probe: the shard is re-admitted and warm-replayed before any live
    // traffic reaches it.
    fleet.restart(victim);
    assert_eq!(router.probe_now(), 1);
    assert!(!router.down_shards()[victim], "probe must clear the mark");
    let stats = router.stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.shards_down, 0);
    // Warm-up replay reached the victim's fresh runtime on the low lane:
    // its shard-local ledger saw the replays, while the router ledger and
    // the shard's router-visible replies never counted them.
    assert!(
        fleet.runtimes[victim].stats().submitted > 0,
        "warm replay must prime the restarted shard"
    );
    assert!(stats.warmups > 0, "router must count warm replays");
    let replies_before = router.shard_stats()[victim].replies;

    // Traffic returns to the recovered primary, bit-identical.
    let third = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&third, &baseline, "recovered leg");
    assert!(
        router.shard_stats()[victim].replies > replies_before,
        "recovered shard must serve its ring keys again"
    );

    // The fleet ledger held across kill, probe, recovery, and replay.
    let stats = router.stats();
    assert_eq!(stats.submitted, 3 * works.len() as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.accounted(), stats.submitted);
    let per_shard = router.shard_stats();
    assert_eq!(
        per_shard.iter().map(|s| s.replies).sum::<u64>(),
        stats.completed,
        "warm replays must not inflate router-visible replies"
    );
    fleet.shutdown();
}

#[test]
fn background_prober_readmits_without_manual_sweeps() {
    let reqs = &batch()[..6];
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();

    let mut fleet = Fleet::spawn(SHARDS);
    let config = RouterConfig {
        probe_interval: Some(Duration::from_millis(10)),
        ..RouterConfig::default()
    };
    let router = ShardRouter::connect(&fleet.endpoints(), config).expect("router dials");
    for work in &works {
        router.submit(work).expect("healthy fleet serves");
    }

    let victim = router.primary(&works[0]);
    fleet.kill(victim);
    for work in &works {
        router.submit(work).expect("failover serves");
    }
    assert!(router.down_shards()[victim]);

    fleet.restart(victim);
    // Bounded poll: the background prober must clear the mark on its own.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.down_shards()[victim] {
        assert!(
            std::time::Instant::now() < deadline,
            "prober failed to re-admit the restarted shard in 5s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = router.stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.accounted(), stats.submitted);
    fleet.shutdown();
}

#[test]
fn replicated_placement_absorbs_a_kill_without_timeouts() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();

    let mut fleet = Fleet::spawn(SHARDS);
    let config = RouterConfig {
        replicas: 2,
        ..RouterConfig::default()
    };
    let router = ShardRouter::connect(&fleet.endpoints(), config).expect("router dials");

    let first = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&first, &baseline, "healthy replicated leg");

    // Kill one shard: every one of its keys already has a designated
    // live replica, so the batch completes bit-identically with no
    // deadline ever reached — failovers advance, timeouts must not.
    let victim = router.primary(&works[0]);
    fleet.kill(victim);
    let second = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&second, &baseline, "replicated failover leg");

    let stats = router.stats();
    assert_eq!(stats.submitted, 2 * works.len() as u64);
    assert_eq!(stats.completed, stats.submitted, "no request lost");
    assert_eq!(stats.accounted(), stats.submitted);
    assert_eq!(
        stats.timed_out, 0,
        "replicated placement must never pay a discovery timeout"
    );
    assert!(stats.failovers >= 1, "the kill is visible as failover hops");
    fleet.shutdown();
}

#[test]
fn live_join_and_leave_remap_only_moved_keys() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();

    let mut fleet = Fleet::spawn(SHARDS);
    let router =
        ShardRouter::connect(&fleet.endpoints(), RouterConfig::default()).expect("router dials");

    let before: Vec<usize> = works.iter().map(|w| router.primary(w)).collect();
    let first = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&first, &baseline, "pre-join leg");

    // Join a fourth shard: only keys the joiner now owns may move, and
    // those keys are warm-replayed onto it before live traffic.
    let endpoint = fleet.grow("127.0.0.1:0");
    let joined = router.join(endpoint.as_str()).expect("join dials");
    assert_eq!(joined, SHARDS);
    assert_eq!(router.ring().shards(), SHARDS + 1);
    let after: Vec<usize> = works.iter().map(|w| router.primary(w)).collect();
    let mut moved = 0;
    for (b, a) in before.iter().zip(&after) {
        if a != b {
            assert_eq!(*a, joined, "keys may only move to the joiner");
            moved += 1;
        }
    }
    if moved > 0 {
        // The joiner's keys arrived warm: its cold runtime served the
        // replays on the low lane before any router traffic.
        assert!(fleet.runtimes[joined].stats().submitted > 0);
        assert!(router.stats().warmups > 0);
        assert_eq!(router.shard_stats()[joined].replies, 0);
    }

    let second = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&second, &baseline, "post-join leg");
    if moved > 0 {
        assert!(
            router.shard_stats()[joined].replies > 0,
            "the joiner must serve its keys"
        );
    }

    // Leave: the departed member's keys re-home to survivors; everyone
    // else's keys stay put. The wire server keeps running — leaving is
    // administrative, not a crash — so in-flight work drains cleanly.
    let leaver = after[0];
    router.leave(leaver).expect("leave a live member");
    let third_owners: Vec<usize> = works.iter().map(|w| router.primary(w)).collect();
    for (prev, now) in after.iter().zip(&third_owners) {
        assert_ne!(*now, leaver, "departed members own nothing");
        if *prev != leaver {
            assert_eq!(now, prev, "only the leaver's keys may move");
        }
    }
    let calls_before = router.shard_stats()[leaver].calls;
    let third = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&third, &baseline, "post-leave leg");
    assert_eq!(
        router.shard_stats()[leaver].calls,
        calls_before,
        "departed shards take no further calls"
    );
    assert!(router.shard_stats()[leaver].departed);

    // Membership errors are typed.
    assert_eq!(router.leave(99), Err(MembershipError::UnknownShard(99)));
    assert_eq!(
        router.leave(leaver),
        Err(MembershipError::AlreadyDeparted(leaver))
    );

    // The ledger held across join, leave, and every replay.
    let stats = router.stats();
    assert_eq!(stats.submitted, 3 * works.len() as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.accounted(), stats.submitted);
    fleet.shutdown();
}

#[test]
fn membership_churn_during_a_driven_batch_never_drops_a_request() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();
    const PASSES: usize = 3;

    let mut fleet = Fleet::spawn(SHARDS);
    let router =
        ShardRouter::connect(&fleet.endpoints(), RouterConfig::default()).expect("router dials");
    let endpoint = fleet.grow("127.0.0.1:0");

    // One thread drives batches continuously while the main thread joins
    // a shard and retires another mid-stream: requests route on whichever
    // ring they catch (a membership write drains in-flight reads), and
    // every payload must still be bit-identical with the ledger whole.
    std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            for pass in 0..PASSES {
                let served = sim_replies(router.submit_batch(&works));
                assert_bit_identical(&served, &baseline, &format!("churn pass={pass}"));
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        let joined = router.join(endpoint.as_str()).expect("join mid-stream");
        std::thread::sleep(Duration::from_millis(5));
        router.leave(0).expect("leave mid-stream");
        driver.join().expect("driver thread");
        assert_eq!(joined, SHARDS);
    });

    let stats = router.stats();
    assert_eq!(stats.submitted, (PASSES * works.len()) as u64);
    assert_eq!(stats.completed, stats.submitted, "no request lost to churn");
    assert_eq!(stats.accounted(), stats.submitted);
    // Post-churn placement agrees with the final membership: member 0 is
    // gone, the joiner is live.
    for work in &works {
        assert_ne!(router.primary(work), 0);
    }
    assert_eq!(router.ring().shards(), SHARDS);
    fleet.shutdown();
}

//! Wire-codec round-trip properties: arbitrary requests and replies
//! encode → decode bit-identically (floats travel as bit patterns, so
//! even NaNs and signed zeros survive), and malformed / truncated /
//! mutated lines come back as typed protocol errors — never panics.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use tailors_serve::wire::{
    decode_reply, decode_request_line, encode_malformed_reply_into, encode_ping_into,
    encode_pong_into, encode_reply_into, encode_request_flagged_into, encode_request_into,
    WireRequest,
};
use tailors_serve::{
    FunctionalRequest, OverloadReason, Reply, RuntimeStats, ServeError, SimRequest, WireError, Work,
};
use tailors_sim::functional::{FunctionalConfig, FunctionalResult};
use tailors_sim::{
    ActivityCounts, ArchConfig, DramBreakdown, GridMode, MemBudget, ReuseStats, RunMetrics,
    ScratchStats, TilePlan, Variant,
};
use tailors_tensor::gen::GenSpec;
use tailors_tensor::CsrMatrix;
use tailors_workloads::{Workload, WorkloadClass};

const NAMES: [&str; 5] = [
    "cant",
    "email-Enron",
    "webbase-1M",
    "roadNet-CA",
    "not-a-suite-name",
];

fn workload_from(
    name_idx: usize,
    dims: (usize, usize, usize),
    class_sel: u8,
    sparsity_bits: u64,
    variability_bits: u64,
    seed: u64,
) -> Workload {
    let class = match class_sel % 3 {
        0 => WorkloadClass::LinearSystem,
        1 => WorkloadClass::Graph,
        _ => WorkloadClass::RoadNetwork,
    };
    Workload {
        // Decoding interns unknown names, so a non-suite name must
        // round-trip too; suite names must come back pointer-stable.
        name: match tailors_workloads::by_name(NAMES[name_idx % NAMES.len()]) {
            Some(w) => w.name,
            None => "not-a-suite-name",
        },
        nrows: dims.0,
        ncols: dims.1,
        target_nnz: dims.2,
        class,
        // Raw bit patterns: includes NaNs, infinities, subnormals, -0.0.
        paper_sparsity: f64::from_bits(sparsity_bits),
        variability: f64::from_bits(variability_bits),
        seed,
    }
}

fn variant_from(sel: u8, y_bits: u64, k: usize) -> Variant {
    match sel % 3 {
        0 => Variant::ExTensorN,
        1 => Variant::ExTensorP,
        _ => Variant::ExTensorOB {
            y: f64::from_bits(y_bits),
            k,
        },
    }
}

fn assert_workloads_bit_eq(a: &Workload, b: &Workload) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.nrows, b.nrows);
    assert_eq!(a.ncols, b.ncols);
    assert_eq!(a.target_nnz, b.target_nnz);
    assert_eq!(a.class, b.class);
    assert_eq!(a.paper_sparsity.to_bits(), b.paper_sparsity.to_bits());
    assert_eq!(a.variability.to_bits(), b.variability.to_bits());
    assert_eq!(a.seed, b.seed);
}

fn assert_variants_bit_eq(a: Variant, b: Variant) {
    match (a, b) {
        (Variant::ExTensorN, Variant::ExTensorN) | (Variant::ExTensorP, Variant::ExTensorP) => {}
        (Variant::ExTensorOB { y: ya, k: ka }, Variant::ExTensorOB { y: yb, k: kb }) => {
            assert_eq!(ya.to_bits(), yb.to_bits());
            assert_eq!(ka, kb);
        }
        (a, b) => panic!("variant mismatch: {a:?} vs {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sim_requests_round_trip_bitwise(
        id in 0u64..u64::MAX,
        name_idx in 0usize..NAMES.len(),
        dims in (1usize..1_000_000, 1usize..1_000_000, 0usize..10_000_000),
        class_sel in 0u8..3,
        wl_bits in (0u64..u64::MAX, 0u64..u64::MAX),
        seed in 0u64..u64::MAX,
        variant_sel in 0u8..3,
        y_bits in 0u64..u64::MAX,
        k in 1usize..100,
        arch_scale_denom in 1u32..512,
        budget in (proptest::bool::ANY, 0u64..u64::MAX),
        flags in (proptest::bool::ANY, proptest::bool::ANY),
    ) {
        let req = SimRequest {
            workload: workload_from(name_idx, dims, class_sel, wl_bits.0, wl_bits.1, seed),
            variant: variant_from(variant_sel, y_bits, k),
            arch: ArchConfig::extensor().scaled(1.0 / f64::from(arch_scale_denom)),
            budget: if budget.0 { MemBudget::Unbounded } else { MemBudget::Bytes(budget.1) },
            grid: if flags.0 { GridMode::Grid2D } else { GridMode::Panels },
            auto_plan: flags.1,
        };
        let mut line = String::new();
        encode_request_into(id, &Work::Sim(req.clone()), &mut line);
        prop_assert!(!line.contains('\n'), "one request must stay one line");
        let (decoded_id, decoded) = decode_request_line(&line).expect("round trip");
        prop_assert_eq!(decoded_id, id);
        let WireRequest::Work { work: Work::Sim(d), warm: false } = decoded else {
            panic!("wrong kind")
        };
        assert_workloads_bit_eq(&d.workload, &req.workload);
        assert_variants_bit_eq(d.variant, req.variant);
        prop_assert_eq!(d.arch, req.arch);
        prop_assert_eq!(d.budget, req.budget);
        prop_assert_eq!(d.grid, req.grid);
        prop_assert_eq!(d.auto_plan, req.auto_plan);
    }

    #[test]
    fn functional_requests_round_trip_bitwise(
        name_idx in 0usize..NAMES.len(),
        dims in (1usize..100_000, 1usize..100_000, 0usize..1_000_000),
        threads in 1usize..64,
        budget_bytes in 1u64..u64::MAX,
    ) {
        let req = FunctionalRequest {
            workload: workload_from(name_idx, dims, 1, 0, 0, 7),
            variant: Variant::default_ob(),
            arch: ArchConfig::extensor(),
            budget: MemBudget::Bytes(budget_bytes),
            grid: GridMode::Grid2D,
            auto_plan: true,
            threads,
        };
        let mut line = String::new();
        encode_request_into(3, &Work::Functional(Box::new(req.clone())), &mut line);
        let (_, decoded) = decode_request_line(&line).expect("round trip");
        let WireRequest::Work { work: Work::Functional(d), warm: false } = decoded else {
            panic!("wrong kind")
        };
        assert_workloads_bit_eq(&d.workload, &req.workload);
        prop_assert_eq!(d.threads, req.threads);
        prop_assert_eq!(d.budget, req.budget);
        prop_assert_eq!(d.auto_plan, req.auto_plan);
    }

    #[test]
    fn functional_replies_round_trip_bitwise(
        n in 2usize..48,
        nnz in 0usize..300,
        seed in 0u64..10_000,
        fetches in (0u64..u64::MAX, 0u64..u64::MAX),
        overbooked in 0usize..1_000,
    ) {
        // A real generated CSR payload (row_ptr / cols / value bits all
        // cross the wire).
        let z = GenSpec::uniform(n, n, nnz.min(n * n)).seed(seed).generate();
        let reply = Reply::Functional(Box::new(tailors_serve::FunctionalResponse {
            config: FunctionalConfig {
                capacity: 1 + n,
                fifo_region: n / 2,
                rows_a: 1 + n / 3,
                cols_b: 1 + n / 2,
                overbooking: seed % 2 == 0,
                mem_budget: MemBudget::mib(4),
                grid: GridMode::Panels,
                auto_plan: false,
            },
            result: FunctionalResult {
                z: z.clone(),
                dram_a_fetches: fetches.0,
                dram_b_fetches: fetches.1,
                overbooked_a_tiles: overbooked,
            },
            hits: tailors_serve::CacheHits { tensor: true, profile: false, plan: true },
        }));
        let mut line = String::new();
        encode_reply_into(Some(9), &Ok(reply), &mut line);
        let (id, outcome) = decode_reply(&line).expect("round trip");
        prop_assert_eq!(id, Some(9));
        let Ok(Reply::Functional(d)) = outcome else { panic!("wrong reply") };
        prop_assert_eq!(d.result.z.nrows(), z.nrows());
        prop_assert_eq!(d.result.z.row_ptr(), z.row_ptr());
        prop_assert_eq!(d.result.z.col_indices(), z.col_indices());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(d.result.z.values()), bits(z.values()));
        prop_assert_eq!(d.result.dram_a_fetches, fetches.0);
        prop_assert_eq!(d.result.dram_b_fetches, fetches.1);
        prop_assert_eq!(d.result.overbooked_a_tiles, overbooked);
    }

    #[test]
    fn error_replies_round_trip(
        sel in 0u8..6,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        msg_chars in proptest::collection::vec(32u8..127, 0..60),
        panicked in proptest::bool::ANY,
    ) {
        let message: String = msg_chars.iter().map(|&c| c as char).collect();
        let err = match sel {
            0 => ServeError::Overloaded(OverloadReason::MailboxFull { capacity: a as usize }),
            1 => ServeError::Overloaded(OverloadReason::TensorBytes { estimated: a, limit: b }),
            2 => ServeError::Timeout {
                deadline: std::time::Duration::new(a % (1 << 40), (b % 1_000_000_000) as u32),
            },
            3 => ServeError::Faulted { panic: panicked, message },
            4 => ServeError::BadRequest(message),
            _ => ServeError::Shutdown,
        };
        let mut line = String::new();
        encode_reply_into(Some(a), &Err(err.clone()), &mut line);
        let (id, outcome) = decode_reply(&line).expect("round trip");
        prop_assert_eq!(id, Some(a));
        prop_assert_eq!(outcome.unwrap_err(), err);
    }

    /// Truncating a request line at any interior byte boundary must yield
    /// a typed protocol error — never a panic, never a bogus decode.
    #[test]
    fn truncated_requests_error_cleanly(
        cut_frac in 0u32..1000,
        variant_sel in 0u8..3,
    ) {
        let req = SimRequest::suite("cant", 1.0 / 256.0, variant_from(variant_sel, 0, 10))
            .expect("suite workload");
        let mut line = String::new();
        encode_request_into(1, &Work::Sim(req), &mut line);
        let mut cut = (line.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        while cut < line.len() && !line.is_char_boundary(cut) {
            cut += 1;
        }
        if cut < line.len() {
            prop_assert!(decode_request_line(&line[..cut]).is_err());
        }
    }

    /// Arbitrary byte soup (valid UTF-8 or not after lossy conversion)
    /// must come back as Ok or Err — decoding never panics. The server
    /// turns every Err into a protocol-level error reply.
    #[test]
    fn garbage_never_panics_the_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = decode_request_line(&text);
        let _ = decode_reply(&text);
    }

    /// Corrupting one byte of a valid line must never panic, and if the
    /// result still decodes it must carry the same id (the mutation can
    /// only have hit a payload field, which decodes to *different* typed
    /// values, not to UB).
    #[test]
    fn single_byte_corruption_is_contained(
        pos_frac in 0u32..1000,
        replacement in 32u8..127,
    ) {
        let req = SimRequest::suite("email-Enron", 1.0 / 256.0, Variant::ExTensorP)
            .expect("suite workload");
        let mut line = String::new();
        encode_request_into(77, &Work::Sim(req), &mut line);
        let mut bytes = line.into_bytes();
        let pos = (bytes.len() as u64 * u64::from(pos_frac) / 1000) as usize % bytes.len();
        bytes[pos] = replacement;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = decode_request_line(&mutated);
    }
}

// ---------------------------------------------------------------------------
// Byte-exact transcript: literal lines pin the wire format itself, so a
// codec rewrite cannot drift a single byte without failing here. Each
// line is checked both ways: the encoder must produce it verbatim, and
// decoding it then re-encoding must reproduce it.
// ---------------------------------------------------------------------------

fn transcript_workload() -> Workload {
    Workload {
        name: "email-Enron",
        nrows: 145,
        ncols: 145,
        target_nnz: 1_342,
        class: WorkloadClass::Graph,
        paper_sparsity: 0.99973,
        variability: -0.0,
        seed: 111,
    }
}

fn transcript_sim_request() -> SimRequest {
    SimRequest {
        workload: transcript_workload(),
        variant: Variant::ExTensorOB { y: 0.1, k: 10 },
        arch: ArchConfig {
            gb_bytes: 122_880,
            pe_buf_bytes: 256,
            pe_count: 128,
            bytes_per_element: 12,
            dram_bytes_per_cycle: 68.25,
            gb_elems_per_cycle: 256.0,
            isect_coords_per_cycle: 256.0,
            macs_per_pe_per_cycle: 1.0,
            operand_fraction: 0.4,
            dram_latency_cycles: 100,
            gb_latency_cycles: 10,
        },
        budget: MemBudget::Unbounded,
        grid: GridMode::Panels,
        auto_plan: false,
    }
}

fn transcript_functional_request() -> FunctionalRequest {
    FunctionalRequest {
        workload: transcript_workload(),
        variant: Variant::ExTensorP,
        arch: ArchConfig {
            gb_bytes: 31_457_280,
            pe_buf_bytes: 65_536,
            ..transcript_sim_request().arch
        },
        budget: MemBudget::Bytes(1 << 20),
        grid: GridMode::Grid2D,
        auto_plan: true,
        threads: 2,
    }
}

fn transcript_sim_reply() -> Reply {
    Reply::Sim(tailors_serve::SimResponse {
        name: "email-Enron",
        metrics: RunMetrics {
            cycles: 12_345.5,
            energy_pj: f64::NAN,
            activity: ActivityCounts {
                dram_elems: 1,
                gb_accesses: u128::MAX,
                pe_buf_accesses: 3,
                macs: 4,
                isect_coords: 0,
            },
            dram: DramBreakdown {
                total: 10,
                baseline: 8,
                overbook_extra: 2,
            },
            reuse: ReuseStats {
                bumped_fraction: 0.25,
                reused_fraction: 0.75,
                overbooked_a_tiles: 3,
                total_a_tiles: 12,
                overbooked_b_tiles: 0,
                total_b_tiles: 6,
            },
            plan: TilePlan {
                gb_rows_a: 16,
                gb_cols_b: 32,
                pe_rows_a: 4,
                pe_cols_b: 8,
                full_k: true,
                overbooking: false,
            },
            scratch: ScratchStats {
                col_blocks: 1,
                block_cols: 145,
                bytes_per_thread: 1_160,
                fits_budget: true,
                grid: GridMode::Grid2D,
                parallel_units: 5,
            },
            bound_by: "dram",
        },
        hits: tailors_serve::CacheHits {
            tensor: true,
            profile: true,
            plan: false,
        },
    })
}

fn transcript_functional_reply() -> Reply {
    let z = CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.5, -0.0, 1e-300])
        .expect("valid CSR");
    Reply::Functional(Box::new(tailors_serve::FunctionalResponse {
        config: FunctionalConfig {
            capacity: 64,
            fifo_region: 8,
            rows_a: 2,
            cols_b: 3,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        },
        result: FunctionalResult {
            z,
            dram_a_fetches: 7,
            dram_b_fetches: 9,
            overbooked_a_tiles: 1,
        },
        hits: tailors_serve::CacheHits {
            tensor: false,
            profile: true,
            plan: true,
        },
    }))
}

fn transcript_errors() -> Vec<ServeError> {
    vec![
        ServeError::Overloaded(OverloadReason::MailboxFull { capacity: 64 }),
        ServeError::Overloaded(OverloadReason::TensorBytes {
            estimated: 10,
            limit: 5,
        }),
        ServeError::Timeout {
            deadline: std::time::Duration::new(1, 500),
        },
        ServeError::Faulted {
            panic: true,
            message: "quote \" slash \\ nl \n cr \r tab \t bell \u{7} é ✓ 𝄞".into(),
        },
        ServeError::BadRequest("no such workload".into()),
        ServeError::Shutdown,
    ]
}

fn encode_reply(id: Option<u64>, outcome: &Result<Reply, ServeError>) -> String {
    let mut line = String::new();
    encode_reply_into(id, outcome, &mut line);
    line
}

/// `line` decodes as a request and re-encodes to itself.
fn assert_request_fixed_point(line: &str) {
    let (id, decoded) = decode_request_line(line).expect("transcript request decodes");
    let mut again = String::new();
    match decoded {
        WireRequest::Work { work, warm } => {
            encode_request_flagged_into(id, &work, warm, &mut again)
        }
        WireRequest::Ping => encode_ping_into(id, &mut again),
    }
    assert_eq!(again, line);
}

/// `line` decodes as a reply and re-encodes to itself.
fn assert_reply_fixed_point(line: &str) {
    let (id, outcome) = decode_reply(line).expect("transcript reply decodes");
    assert_eq!(encode_reply(id, &outcome), line);
}

const SIM_REQUEST: &str = r#"{"id":1,"kind":"sim","req":{"workload":{"name":"email-Enron","nrows":145,"ncols":145,"target_nnz":1342,"class":"graph","paper_sparsity":4607179986856218628,"variability":9223372036854775808,"seed":111},"variant":{"kind":"ob","y":4591870180066957722,"k":10},"arch":{"gb_bytes":122880,"pe_buf_bytes":256,"pe_count":128,"bytes_per_element":12,"dram_bytes_per_cycle":4634503083726995456,"gb_elems_per_cycle":4643211215818981376,"isect_coords_per_cycle":4643211215818981376,"macs_per_pe_per_cycle":4607182418800017408,"operand_fraction":4600877379321698714,"dram_latency_cycles":100,"gb_latency_cycles":10},"budget":"unbounded","grid":"panels","auto_plan":false}}"#;

const FUNCTIONAL_REQUEST: &str = r#"{"id":2,"kind":"functional","req":{"workload":{"name":"email-Enron","nrows":145,"ncols":145,"target_nnz":1342,"class":"graph","paper_sparsity":4607179986856218628,"variability":9223372036854775808,"seed":111},"variant":{"kind":"p"},"arch":{"gb_bytes":31457280,"pe_buf_bytes":65536,"pe_count":128,"bytes_per_element":12,"dram_bytes_per_cycle":4634503083726995456,"gb_elems_per_cycle":4643211215818981376,"isect_coords_per_cycle":4643211215818981376,"macs_per_pe_per_cycle":4607182418800017408,"operand_fraction":4600877379321698714,"dram_latency_cycles":100,"gb_latency_cycles":10},"budget":1048576,"grid":"grid2d","auto_plan":true,"threads":2}}"#;

const WARM_REQUEST: &str = r#"{"id":3,"kind":"sim","req":{"workload":{"name":"email-Enron","nrows":145,"ncols":145,"target_nnz":1342,"class":"graph","paper_sparsity":4607179986856218628,"variability":9223372036854775808,"seed":111},"variant":{"kind":"ob","y":4591870180066957722,"k":10},"arch":{"gb_bytes":122880,"pe_buf_bytes":256,"pe_count":128,"bytes_per_element":12,"dram_bytes_per_cycle":4634503083726995456,"gb_elems_per_cycle":4643211215818981376,"isect_coords_per_cycle":4643211215818981376,"macs_per_pe_per_cycle":4607182418800017408,"operand_fraction":4600877379321698714,"dram_latency_cycles":100,"gb_latency_cycles":10},"budget":"unbounded","grid":"panels","auto_plan":false},"warm":true}"#;

const PING: &str = r#"{"id":4,"kind":"ping"}"#;

const PONG: &str = r#"{"id":4,"ok":{"kind":"pong","stats":{"submitted":7,"completed":5,"rejected":1,"timed_out":1,"faulted":0,"panics_isolated":0,"retries":3,"injected_panics":0,"injected_latency":2,"injected_rejects":0,"injected_drops":18446744073709551615}}}"#;

const SIM_REPLY: &str = r#"{"id":5,"ok":{"kind":"sim","resp":{"name":"email-Enron","metrics":{"cycles":4668012624728817664,"energy_pj":9221120237041090560,"activity":{"dram_elems":1,"gb_accesses":340282366920938463463374607431768211455,"pe_buf_accesses":3,"macs":4,"isect_coords":0},"dram":{"total":10,"baseline":8,"overbook_extra":2},"reuse":{"bumped_fraction":4598175219545276416,"reused_fraction":4604930618986332160,"overbooked_a_tiles":3,"total_a_tiles":12,"overbooked_b_tiles":0,"total_b_tiles":6},"plan":{"gb_rows_a":16,"gb_cols_b":32,"pe_rows_a":4,"pe_cols_b":8,"full_k":true,"overbooking":false},"scratch":{"col_blocks":1,"block_cols":145,"bytes_per_thread":1160,"fits_budget":true,"grid":"grid2d","parallel_units":5},"bound_by":"dram"},"hits":{"tensor":true,"profile":true,"plan":false}}}}"#;

const FUNCTIONAL_REPLY: &str = r#"{"id":6,"ok":{"kind":"functional","resp":{"config":{"capacity":64,"fifo_region":8,"rows_a":2,"cols_b":3,"overbooking":true,"mem_budget":"unbounded","grid":"panels","auto_plan":false},"result":{"z":{"nrows":2,"ncols":3,"row_ptr":[0,2,3],"cols":[0,2,1],"vals":[4609434218613702656,9223372036854775808,118622047889322841]},"dram_a_fetches":7,"dram_b_fetches":9,"overbooked_a_tiles":1},"hits":{"tensor":false,"profile":true,"plan":true}}}}"#;

/// One line per [`transcript_errors`] entry, in order.
const ERROR_REPLIES: [&str; 6] = [
    r#"{"id":7,"err":{"code":"overloaded","reason":"mailbox-full","capacity":64}}"#,
    r#"{"id":7,"err":{"code":"overloaded","reason":"tensor-bytes","estimated":10,"limit":5}}"#,
    r#"{"id":7,"err":{"code":"timeout","deadline_secs":1,"deadline_nanos":500}}"#,
    r#"{"id":7,"err":{"code":"faulted","panic":true,"message":"quote \" slash \\ nl \n cr \r tab \t bell \u0007 é ✓ 𝄞"}}"#,
    r#"{"id":7,"err":{"code":"bad-request","message":"no such workload"}}"#,
    r#"{"id":7,"err":{"code":"shutdown"}}"#,
];

/// An overload reason no server emits: a reply naming it is a protocol
/// error, not a typed overload.
const RETIRED_PLAN_PRESSURE_REPLY: &str = r#"{"id":7,"err":{"code":"overloaded","reason":"plan-pressure","pressure":4607182418800017408,"hit_rate":4593671619917905920}}"#;

const MALFORMED_REPLY: &str = r#"{"id":null,"err":{"code":"malformed","message":"malformed wire message: expected ':' at offset 9"}}"#;

#[test]
fn request_lines_match_the_transcript_byte_for_byte() {
    let mut line = String::new();
    encode_request_into(1, &Work::Sim(transcript_sim_request()), &mut line);
    assert_eq!(line, SIM_REQUEST);
    let functional = Work::Functional(Box::new(transcript_functional_request()));
    encode_request_into(2, &functional, &mut line);
    assert_eq!(line, FUNCTIONAL_REQUEST);
    encode_request_flagged_into(3, &Work::Sim(transcript_sim_request()), true, &mut line);
    assert_eq!(line, WARM_REQUEST);
    encode_ping_into(4, &mut line);
    assert_eq!(line, PING);
    for line in [SIM_REQUEST, FUNCTIONAL_REQUEST, WARM_REQUEST, PING] {
        assert_request_fixed_point(line);
    }
}

#[test]
fn reply_lines_match_the_transcript_byte_for_byte() {
    let stats = RuntimeStats {
        submitted: 7,
        completed: 5,
        rejected: 1,
        timed_out: 1,
        faulted: 0,
        panics_isolated: 0,
        retries: 3,
        injected_panics: 0,
        injected_latency: 2,
        injected_rejects: 0,
        injected_drops: u64::MAX,
    };
    let mut line = String::new();
    encode_pong_into(4, &stats, &mut line);
    assert_eq!(line, PONG);
    assert_eq!(
        encode_reply(Some(5), &Ok(transcript_sim_reply())),
        SIM_REPLY
    );
    assert_eq!(
        encode_reply(Some(6), &Ok(transcript_functional_reply())),
        FUNCTIONAL_REPLY
    );
    for (err, expected) in transcript_errors().into_iter().zip(ERROR_REPLIES) {
        assert_eq!(encode_reply(Some(7), &Err(err)), expected);
    }
    for line in [SIM_REPLY, FUNCTIONAL_REPLY]
        .into_iter()
        .chain(ERROR_REPLIES)
    {
        assert_reply_fixed_point(line);
    }
    assert_eq!(
        decode_reply(RETIRED_PLAN_PRESSURE_REPLY).unwrap_err(),
        WireError::Malformed("unknown overload reason \"plan-pressure\"".into())
    );
    let err = WireError::Malformed("expected ':' at offset 9".into());
    encode_malformed_reply_into(&err, &mut line);
    assert_eq!(line, MALFORMED_REPLY);
    // A protocol-level reply surfaces as the bad request it was.
    let (id, outcome) = decode_reply(MALFORMED_REPLY).expect("malformed reply decodes");
    assert_eq!(id, None);
    assert_eq!(
        outcome.unwrap_err(),
        ServeError::BadRequest(
            "protocol error: malformed wire message: expected ':' at offset 9".into()
        )
    );
}

/// Decoding is linear in the line length: a reply carrying a 1 MiB error
/// message (escapes and multi-byte characters included) round-trips well
/// inside 2 s even in an unoptimized build, where a decoder that rescans
/// the rest of the line per character would run for minutes.
#[test]
fn megabyte_error_messages_round_trip_in_linear_time() {
    let mut message = String::new();
    while message.len() < 1 << 20 {
        message.push_str("overbooked \"tile\" ✓ ");
    }
    let err = ServeError::Faulted {
        panic: false,
        message,
    };
    let start = Instant::now();
    let line = encode_reply(Some(1), &Err(err.clone()));
    let (id, outcome) = decode_reply(&line).expect("round trip");
    let took = start.elapsed();
    assert_eq!(id, Some(1));
    assert_eq!(outcome.unwrap_err(), err);
    assert!(
        took < Duration::from_secs(2),
        "1 MiB reply took {took:?} to round-trip"
    );
}

/// Decoding does not depend on the encoder's field order: keys may
/// come in any order, unknown keys of any shape are skipped, and the
/// first occurrence of a repeated key wins.
#[test]
fn request_fields_decode_in_any_order_and_unknown_keys_are_skipped() {
    let req = SimRequest::suite("email-Enron", 1.0 / 256.0, Variant::default_ob()).unwrap();
    let mut canonical = String::new();
    encode_request_into(5, &Work::Sim(req.clone()), &mut canonical);
    // Reverse the envelope: `req` before `kind`, an unknown field
    // of every shape, and repeated keys whose first occurrence wins.
    let (_, payload) = canonical.split_once(r#""req":"#).unwrap();
    let payload = payload.strip_suffix('}').unwrap();
    let shuffled = format!(
        r#"{{"extra":{{"deep":[1,-2.5e3,null,"s"]}},"req":{payload},"warm":false,"warm":7,"kind":"sim","id":5,"id":"x","kind":"ping"}}"#
    );
    let (id, decoded) = decode_request_line(&shuffled).unwrap();
    assert_eq!(id, 5);
    let WireRequest::Work {
        work: Work::Sim(d),
        warm: false,
    } = decoded
    else {
        panic!("wrong kind")
    };
    assert_eq!(d.workload, req.workload);
    assert_eq!(d.arch, req.arch);
    // A ping skips whatever payload it carries.
    let ping = format!(r#"{{"req":{payload},"kind":"ping","id":3}}"#);
    assert!(matches!(
        decode_request_line(&ping),
        Ok((3, WireRequest::Ping))
    ));
    // A missing field is named.
    let err = decode_request_line(r#"{"kind":"ping"}"#).unwrap_err();
    assert_eq!(err, WireError::Malformed("missing field \"id\"".into()));
}

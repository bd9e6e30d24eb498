//! Property tests for the storage-handle layer: pooled-scratch runs are
//! bit-identical to fresh-alloc runs across arbitrary interleavings of
//! request shapes through one shared per-thread pool (shape-class
//! collisions, pool eviction under tight `MemBudget`, 1/4/8 threads),
//! and spilled runs ([`run_spilled`] over a file-backed operand paged in
//! panel-by-panel and tile-by-tile) diff clean against `reference_run`
//! in every reported field. Also pins the spill tier's page-in index
//! checks and the typed configuration errors every entry point shares.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tailors_sim::functional::{
    clear_scratch_pool, reference_run, run_spilled, run_with_threads, scratch_pool_spa_stats,
    scratch_pool_stats, ConfigError, EngineError, FunctionalConfig,
};
use tailors_sim::{GridMode, MemBudget};
use tailors_tensor::gen::GenSpec;
use tailors_tensor::storage::{pooling_enabled, set_pooling, MmapStorage};

/// Serializes tests that toggle the process-wide pooling switch, so a
/// concurrently running test never observes a half-finished toggle.
static POOL_TOGGLE: Mutex<()> = Mutex::new(());

/// Restores the pooling switch when a test scope ends, panic or not.
struct PoolingGuard(bool);

impl PoolingGuard {
    fn hold() -> (std::sync::MutexGuard<'static, ()>, PoolingGuard) {
        let lock = POOL_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        (lock, PoolingGuard(pooling_enabled()))
    }
}

impl Drop for PoolingGuard {
    fn drop(&mut self) {
        set_pooling(self.0);
    }
}

fn config(
    capacity: usize,
    fifo_frac: usize,
    rows_a: usize,
    cols_b: usize,
    overbooking: bool,
    budget: MemBudget,
) -> FunctionalConfig {
    FunctionalConfig {
        capacity,
        fifo_region: (capacity * fifo_frac / 100).clamp(1, capacity.saturating_sub(1).max(1)),
        rows_a,
        cols_b,
        overbooking,
        mem_budget: budget,
        grid: GridMode::Panels,
        auto_plan: false,
    }
}

fn unique_spill_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tailors_pooltest_{}_{}_{}.tspill",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An arbitrary interleaving of differently-shaped requests through
    /// one shared pool — shape-class collisions, recycled buffers, and
    /// eviction under arbitrary (including tiny) retention budgets —
    /// produces bit-identical results to the same sequence with pooling
    /// disabled (every buffer freshly allocated), at 1, 4, and 8 threads.
    #[test]
    fn pooled_interleavings_match_fresh_alloc_runs(
        seed in 0u64..30,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        shapes in proptest::collection::vec((1usize..70, 1usize..70, 0u64..40_000), 1..6),
        threads_sel in 0usize..3,
    ) {
        let threads = [1usize, 4, 8][threads_sel];
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let configs: Vec<FunctionalConfig> = shapes
            .iter()
            .map(|&(rows_a, cols_b, budget)| {
                config(capacity, fifo_frac, rows_a, cols_b, true, MemBudget::bytes(budget))
            })
            .collect();

        let (_lock, _restore) = PoolingGuard::hold();
        set_pooling(true);
        let pooled: Vec<_> = configs
            .iter()
            .map(|c| run_with_threads(&a, c, threads).expect("pooled run"))
            .collect();
        // Same sequence again through the now-warm pool: recycled
        // buffers must change nothing.
        let warm: Vec<_> = configs
            .iter()
            .map(|c| run_with_threads(&a, c, threads).expect("warm pooled run"))
            .collect();
        set_pooling(false);
        let fresh: Vec<_> = configs
            .iter()
            .map(|c| run_with_threads(&a, c, threads).expect("fresh-alloc run"))
            .collect();
        prop_assert_eq!(&pooled, &fresh);
        prop_assert_eq!(&warm, &fresh);
        for (c, r) in configs.iter().zip(&fresh) {
            let oracle = reference_run(&a, c).expect("seed engine");
            prop_assert_eq!(&r.z, &oracle.z);
            prop_assert_eq!(r.dram_a_fetches, oracle.dram_a_fetches);
            prop_assert_eq!(r.dram_b_fetches, oracle.dram_b_fetches);
            prop_assert_eq!(r.overbooked_a_tiles, oracle.overbooked_a_tiles);
        }
    }

    /// A spilled run — `A` panels and `B = Aᵀ` tiles paged in from the
    /// spill file under an arbitrary (often single-tile) residency
    /// budget — is bit-identical to `reference_run` and to the in-RAM
    /// engine in every reported field, at every thread count.
    #[test]
    fn spilled_runs_diff_clean_vs_reference(
        seed in 0u64..30,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        rows_a in 1usize..70,
        tile_exp in 0u32..7,
        budget_bytes in 0u64..40_000,
        residency_sel in 0usize..4,
        threads_sel in 0usize..3,
    ) {
        let residency = [None, Some(1u64), Some(4_096), Some(1 << 20)][residency_sel];
        let threads = [1usize, 2, 4][threads_sel];
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let cols_b = 1usize << tile_exp; // 1..=64
        let cfg = config(capacity, fifo_frac, rows_a, cols_b, true, MemBudget::bytes(budget_bytes));

        let path = unique_spill_path("prop");
        MmapStorage::store(&a, cols_b, &path).expect("store spill file");
        let store = MmapStorage::open(&path, residency).expect("open spill file");
        let spilled = run_spilled(&store, &cfg, threads).expect("spilled run");
        std::fs::remove_file(&path).ok();

        let in_ram = run_with_threads(&a, &cfg, 1).expect("in-RAM run");
        prop_assert_eq!(&spilled, &in_ram);
        let oracle = reference_run(&a, &cfg).expect("seed engine");
        prop_assert_eq!(&spilled.z, &oracle.z);
        prop_assert_eq!(spilled.dram_a_fetches, oracle.dram_a_fetches);
        prop_assert_eq!(spilled.dram_b_fetches, oracle.dram_b_fetches);
        prop_assert_eq!(spilled.overbooked_a_tiles, oracle.overbooked_a_tiles);
    }
}

/// The steady-state contract behind the serve-side zero-alloc pin, seen
/// from the pool's own counters: once a shape class has been through the
/// per-thread pool, repeating the same request is all hits — the kernel
/// path allocates no new scratch.
#[test]
fn warm_pool_serves_repeat_runs_without_misses() {
    let a = GenSpec::power_law(64, 64, 700).seed(5).generate();
    // Roomy budget: retention must exceed the scratch working set, or the
    // pool (correctly) evicts between runs and every repeat re-allocates.
    let cfg = config(64, 25, 16, 16, true, MemBudget::bytes(1 << 20));

    let (_lock, _restore) = PoolingGuard::hold();
    set_pooling(true);
    clear_scratch_pool();
    run_with_threads(&a, &cfg, 1).expect("warmup run");
    let warm = scratch_pool_stats();
    for _ in 0..3 {
        run_with_threads(&a, &cfg, 1).expect("steady-state run");
    }
    let steady = scratch_pool_stats();
    assert_eq!(
        steady.misses, warm.misses,
        "steady-state repeats must not allocate new pool inventory"
    );
    assert!(steady.checkouts > warm.checkouts);
    assert_eq!(steady.checkouts, steady.hits + steady.misses);
}

/// A budget the planner sizes exactly — two 40 × 40 tiles' slots — must
/// not evict the scratch it sized: the SPA fits the budget it was planned
/// under, and the output buffers are not budgeted at all, so warm repeats
/// of the run allocate no new pool inventory.
#[test]
fn budget_sized_scratch_stays_pooled() {
    let a = GenSpec::power_law(400, 400, 3_000).seed(7).generate();
    let cfg = config(64, 25, 40, 40, true, MemBudget::bytes(2 * 40 * 40 * 8));

    let (_lock, _restore) = PoolingGuard::hold();
    set_pooling(true);
    clear_scratch_pool();
    run_with_threads(&a, &cfg, 1).expect("warm-up run");
    let warm = scratch_pool_stats();
    for _ in 0..3 {
        run_with_threads(&a, &cfg, 1).expect("repeat run");
    }
    let steady = scratch_pool_stats();
    assert_eq!(
        steady.misses - warm.misses,
        0,
        "budget-sized scratch was evicted between runs ({} of {} repeat checkouts missed)",
        steady.misses - warm.misses,
        steady.checkouts - warm.checkouts,
    );
    assert!(steady.checkouts > warm.checkouts);
}

/// With an unbounded budget on a matrix far wider than one streamed tile,
/// the SPA scratch a warm worker keeps is one `rows_a × cols_b` unit plus
/// its occupancy words and touched lists — not a `rows_a × ncols` panel.
/// The spilled run of the same configuration agrees with the resident run
/// and the seed engine.
#[test]
fn unbounded_panels_scratch_is_one_tile_wide() {
    let (n, rows_a, cols_b) = (2_000usize, 64usize, 32usize);
    let a = GenSpec::power_law(n, n, 12_000).seed(4).generate();
    let cfg = config(256, 25, rows_a, cols_b, true, MemBudget::Unbounded);

    let (_lock, _restore) = PoolingGuard::hold();
    set_pooling(true);
    clear_scratch_pool();
    let resident = run_with_threads(&a, &cfg, 1).expect("resident run");
    let spa = scratch_pool_spa_stats();
    let words = cols_b.div_ceil(64);
    let touched_cap = words.next_power_of_two().max(4);
    let one_unit = rows_a * cols_b * 8
        + rows_a * words * 8
        + rows_a * (std::mem::size_of::<Vec<u32>>() + touched_cap * 4);
    assert!(spa.resident_bytes > 0, "the SPA must be retained");
    assert!(
        spa.resident_bytes <= one_unit as u64,
        "SPA scratch {} B exceeds one {rows_a} x {cols_b} unit ({one_unit} B); \
         a {rows_a} x {n} panel would be {} B",
        spa.resident_bytes,
        rows_a * n * 8,
    );

    let path = unique_spill_path("bound");
    MmapStorage::store(&a, cols_b, &path).expect("store spill file");
    let store = MmapStorage::open(&path, None).expect("open spill file");
    let spilled = run_spilled(&store, &cfg, 1).expect("spilled run");
    std::fs::remove_file(&path).ok();
    assert_eq!(spilled, resident);
    let oracle = reference_run(&a, &cfg).expect("seed engine");
    assert_eq!(resident.z, oracle.z);
    assert_eq!(resident.dram_a_fetches, oracle.dram_a_fetches);
    assert_eq!(resident.dram_b_fetches, oracle.dram_b_fetches);
    assert_eq!(resident.overbooked_a_tiles, oracle.overbooked_a_tiles);
}

/// A retention cap smaller than any SPA forces the pool to evict every
/// SPA at return time — and results still match the seed engine exactly
/// (eviction only frees memory, never changes behaviour).
#[test]
fn tight_budget_evicts_pool_inventory_without_changing_results() {
    let a = GenSpec::uniform(48, 48, 300).seed(9).generate();
    // A 1-byte scratch budget: the plan degenerates to single-tile blocks
    // and the pool can retain no SPA.
    let cfg = config(32, 50, 8, 8, true, MemBudget::bytes(1));

    let (_lock, _restore) = PoolingGuard::hold();
    set_pooling(true);
    clear_scratch_pool();
    let before = scratch_pool_stats();
    let run = run_with_threads(&a, &cfg, 1).expect("tight-budget run");
    let after = scratch_pool_stats();
    assert!(after.evictions > before.evictions, "nothing was evicted");
    assert_eq!(
        scratch_pool_spa_stats().resident_bytes,
        0,
        "cap must hold after the run"
    );

    let oracle = reference_run(&a, &cfg).expect("seed engine");
    assert_eq!(run.z, oracle.z);
    assert_eq!(run.dram_a_fetches, oracle.dram_a_fetches);
    assert_eq!(run.dram_b_fetches, oracle.dram_b_fetches);
}

/// Mismatched `cols_b` is a typed config error, not a wrong answer.
#[test]
fn spill_tile_mismatch_is_rejected() {
    let a = GenSpec::uniform(32, 32, 150).seed(3).generate();
    let path = unique_spill_path("mismatch");
    MmapStorage::store(&a, 8, &path).expect("store spill file");
    let store = MmapStorage::open(&path, None).expect("open spill file");
    let cfg = config(32, 50, 8, 16, true, MemBudget::Unbounded);
    let err = run_spilled(&store, &cfg, 1).expect_err("cols_b mismatch must be rejected");
    assert_eq!(
        err,
        EngineError::Config(ConfigError::SpillTileMismatch {
            file_cols: 8,
            config_cols: 16
        })
    );
    std::fs::remove_file(&path).ok();
}

fn read_u64(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize
}

/// A spill file with one index overwritten still opens (the header, row
/// pointers and offsets are intact), but paging the bad panel or tile in
/// is a typed `InvalidData` error: an `A` column `>= ncols` (which would
/// index past `B`'s rows) and a `B` column moved into a neighbouring tile
/// (which would silently land in the wrong output column).
#[test]
fn corrupt_spill_indices_are_rejected_at_page_in() {
    let a = GenSpec::uniform(32, 32, 150).seed(3).generate();
    let (n, tile_cols) = (32usize, 8usize);
    let path = unique_spill_path("corrupt");
    MmapStorage::store(&a, tile_cols, &path).expect("store spill file");
    let bytes = std::fs::read(&path).expect("read spill file");
    std::fs::remove_file(&path).ok();

    // TSPILL01 layout: magic + 5 header words, A row pointers, tile
    // offsets, A columns, A values, then one B segment per tile (row
    // pointers, columns, values).
    let n_tiles = n.div_ceil(tile_cols);
    let tile_offsets_at = 8 + 5 * 8 + (n + 1) * 8;
    let a_cols_at = tile_offsets_at + (n_tiles + 1) * 8;
    let tile0_at = read_u64(&bytes, tile_offsets_at);
    assert!(
        read_u64(&bytes, tile0_at + n * 8) > 0,
        "tile 0 must hold a nonzero to corrupt"
    );
    let tile0_cols_at = tile0_at + (n + 1) * 8;

    // A column moved into tile 1 would fall outside tile 0's block; the
    // page-in check must reject it before any traversal reads it.
    let cfg = config(32, 50, 8, tile_cols, true, MemBudget::Unbounded);
    for (tag, at, value) in [
        ("a_col_out_of_range", a_cols_at, n as u32),
        ("b_col_outside_tile", tile0_cols_at, tile_cols as u32),
    ] {
        let mut corrupt = bytes.clone();
        corrupt[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let path = unique_spill_path(tag);
        std::fs::write(&path, &corrupt).expect("write corrupt spill file");
        let store = MmapStorage::open(&path, None).expect("structure is intact");
        let got = run_spilled(&store, &cfg, 1).map(|_| ());
        std::fs::remove_file(&path).ok();
        assert_eq!(
            got,
            Err(EngineError::Spill(std::io::ErrorKind::InvalidData)),
            "{tag}"
        );
    }
}

/// One table of degenerate configurations, each rejected with the same
/// typed [`ConfigError`] by every entry point: the in-RAM engine in both
/// grid modes, the spilled engine and the seed oracle (which has no
/// thread count, so it skips the `threads == 0` row). A non-square
/// operand is checked on the CSR entry points; a spill file always
/// stores a square `A·Aᵀ` operand pair.
#[test]
fn config_errors_match_across_entry_points() {
    let a = GenSpec::uniform(32, 32, 150).seed(3).generate();
    let path = unique_spill_path("parity");
    MmapStorage::store(&a, 8, &path).expect("store spill file");
    let store = MmapStorage::open(&path, None).expect("open spill file");
    std::fs::remove_file(&path).ok();
    let ok = config(32, 50, 8, 8, true, MemBudget::Unbounded);
    let table = [
        (
            FunctionalConfig { capacity: 0, ..ok },
            1,
            ConfigError::ZeroCapacity,
        ),
        (
            FunctionalConfig { rows_a: 0, ..ok },
            1,
            ConfigError::ZeroTileDims {
                rows_a: 0,
                cols_b: 8,
            },
        ),
        (
            FunctionalConfig { cols_b: 0, ..ok },
            1,
            ConfigError::ZeroTileDims {
                rows_a: 8,
                cols_b: 0,
            },
        ),
        (ok, 0, ConfigError::ZeroThreads),
    ];
    for (cfg, threads, err) in table {
        let want = Err(EngineError::Config(err));
        for grid in [GridMode::Panels, GridMode::Grid2D] {
            let got = run_with_threads(&a, &FunctionalConfig { grid, ..cfg }, threads);
            assert_eq!(got.map(|_| ()), want, "run_with_threads {grid}: {err}");
        }
        let got = run_spilled(&store, &cfg, threads).map(|_| ());
        assert_eq!(got, want, "run_spilled: {err}");
        if threads > 0 {
            assert_eq!(
                reference_run(&a, &cfg).map(|_| ()),
                want,
                "reference_run: {err}"
            );
        }
    }

    let wide = GenSpec::uniform(16, 24, 60).seed(1).generate();
    let want = Err(EngineError::Config(ConfigError::NonSquare {
        nrows: 16,
        ncols: 24,
    }));
    for grid in [GridMode::Panels, GridMode::Grid2D] {
        let got = run_with_threads(&wide, &FunctionalConfig { grid, ..ok }, 1);
        assert_eq!(got.map(|_| ()), want, "run_with_threads {grid}");
    }
    assert_eq!(reference_run(&wide, &ok).map(|_| ()), want, "reference_run");
}

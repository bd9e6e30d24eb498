//! The functional engine: executes the tiled `Z = A·Aᵀ` dataflow
//! operation-by-operation through real `tailors-eddo` buffers.
//!
//! This is the ground truth the analytical model is validated against:
//!
//! * the computed output matrix must equal the reference
//!   [`tailors_tensor::ops::spmspm_a_at`];
//! * the counted DRAM fetches must equal the closed-form expressions in
//!   [`crate::dataflow`] (the integration tests cross-check this).
//!
//! The engine models one buffered level (DRAM → operand buffer → compute),
//! i.e. the analytical model with a degenerate PE level — exactly the part
//! of the hierarchy overbooking changes.
//!
//! # Execution substrate
//!
//! Row panels of `A` produce disjoint row ranges of `Z`, so panels execute
//! independently — serially in deterministic order with `threads == 1`, or
//! fanned out across a rayon pool with [`run_with_threads`]. Within a
//! panel the engine walks CSR row slices directly (the stationary tile is
//! never materialized as a coordinate list), slices each streamed B tile
//! through a precomputed [`TileColPtr`] column-pointer view instead of a
//! per-element binary search, and accumulates into a bitmask-blocked
//! dense scratch ([`BlockedSpa`]): one dense write plus one occupancy-word
//! OR per effectual multiply, with extraction walking only set words/bits
//! (ascending by construction — no per-row sort, no full zero-scan).
//!
//! # Memory governance
//!
//! The per-panel scratch is governed by an [`ExecutionPlan`]: under a
//! finite [`MemBudget`] the panel's streamed tiles are grouped into
//! *column blocks* and the scratch spans `rows_a × block_cols` instead of
//! `rows_a × ncols`. A block is a run of whole B tiles traversed in the
//! same global order, every output coordinate is owned by exactly one
//! block, and a panel's blocks are extracted and merged in column order —
//! so the budgeted run is bit-identical to the unbudgeted one in every
//! reported field, and large column counts become feasible (the scratch
//! no longer scales with `ncols`).
//!
//! # Grid parallelism and per-block traffic accounting
//!
//! [`GridMode`] picks the parallel decomposition. Under
//! [`GridMode::Panels`] all column blocks of a panel run on the panel's
//! thread through one shared buffer driver, so every DRAM count is the
//! shared-driver count by construction. Under [`GridMode::Grid2D`] every
//! (panel × block) [`PlanUnit`] is its own work
//! item with its **own** buffer driver — `panels × blocks`-way
//! parallelism — and traffic is accounted per block ([`UnitTraffic`])
//! with an exact reduction back to the shared-driver totals:
//!
//! * A private driver's first traversal cold-fills the whole panel
//!   (`occ` fetches); in the shared traversal order only the *first*
//!   block of a panel pays that cold fill, and every later traversal
//!   refetches exactly the steady-state volume `r` (`occ − resident` for
//!   an overbooked Tailor, `occ` for an overbooked buffet, `0` when the
//!   tile fits — see `TileDriver::steady_refetch`).
//! * So a non-first block with a private driver (`occ + (k−1)·r` actual
//!   fetches over its `k` tiles) is charged `k·r`: its private fetches
//!   minus the cold fill plus one steady refetch. Summed over a panel's
//!   blocks this telescopes to `occ + (Σk − 1)·r` — **exactly** the
//!   shared driver's count, for every tiling and budget (property-tested
//!   in `crates/sim/tests/functional_equivalence.rs`).
//! * Streamed-operand traffic partitions exactly: each unit owns the B
//!   columns of its block, and per-panel block sums equal one full pass
//!   over B (`nnz`).
//!
//! Work items are distributed across threads by cost-balanced bins
//! ([`crate::exec::balanced_partition`]) and reassembled in unit order,
//! so results — including every floating-point accumulation order and
//! every reported traffic count — are bit-identical for every thread
//! count, every memory budget, and both grid modes, and bit-identical to
//! the retained seed engine [`reference_run`].
//!
//! # One pipeline, two operand homes
//!
//! The panel pipeline is written once, generic over where the operands
//! live (a private `Operand` seam): validation, costing, the panel and
//! block loops, kernel dispatch, the output sinks and the stitch are
//! shared. The operand home only answers "page in stationary panel
//! `[m0, m1)`" and "`B` row `k` inside streamed tile `tj`":
//!
//! * **resident** ([`run`], [`run_with_threads`], [`run_grid`]): the
//!   panel borrows `A`'s own CSR slices, and a tile is a window onto the
//!   in-RAM transpose through its [`TileColPtr`] view;
//! * **spilled** ([`run_spilled`], panels mode only): the panel is loaded
//!   from an [`MmapStorage`] file, and each tile is checked out of its
//!   residency cache on demand, just before its traversal (there is no
//!   read-ahead). Both payloads are index-checked as they page in.

use crate::exec::{
    run_balanced, AutoPlanner, BufferParams, CostModel, ExecutionPlan, GridMode, MemBudget,
    PlanUnit,
};
use std::sync::Arc;
use tailors_eddo::{Buffet, EddoError, Tailor, TailorConfig};
use tailors_tensor::ops::BlockedSpa;
use tailors_tensor::storage::{
    MmapStorage, PanelBuffers, PoolHandle, PoolStats, ScratchPool, ShapeClass, SpillTile,
};
use tailors_tensor::{CooMatrix, CsrMatrix, TileColPtr};

/// A structurally invalid engine configuration, reported through the
/// `Err` channel instead of a panic so a long-lived server can answer a
/// bad request with a typed error and keep serving (the serving layer's
/// workers must never abort on caller input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `Z = A·Aᵀ` requires a square stationary operand.
    NonSquare {
        /// Rows of the supplied matrix.
        nrows: usize,
        /// Columns of the supplied matrix.
        ncols: usize,
    },
    /// The operand buffer has no capacity.
    ZeroCapacity,
    /// A tile dimension is zero.
    ZeroTileDims {
        /// Configured rows of `A` per tile.
        rows_a: usize,
        /// Configured columns of `B` per tile.
        cols_b: usize,
    },
    /// The worker-thread count is zero.
    ZeroThreads,
    /// A spilled run's `cols_b` does not match the tile width the spill
    /// file was written with (the file's per-tile segments *are* the
    /// streamed tiles, so the two must agree).
    SpillTileMismatch {
        /// Columns per tile in the spill file.
        file_cols: usize,
        /// Columns per tile in the run configuration.
        config_cols: usize,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NonSquare { nrows, ncols } => {
                write!(f, "A·Aᵀ expects a square matrix, got {nrows}x{ncols}")
            }
            ConfigError::ZeroCapacity => write!(f, "capacity must be positive"),
            ConfigError::ZeroTileDims { rows_a, cols_b } => {
                write!(
                    f,
                    "tile dimensions must be positive, got rows_a={rows_a} cols_b={cols_b}"
                )
            }
            ConfigError::ZeroThreads => write!(f, "thread count must be positive"),
            ConfigError::SpillTileMismatch {
                file_cols,
                config_cols,
            } => write!(
                f,
                "spill file was tiled at cols_b={file_cols} but the run asks for {config_cols}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything a functional run can fail with: a rejected configuration or
/// a buffer-protocol error (the latter never occurs for well-formed
/// input — it indicates an engine bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The configuration was rejected before any work ran.
    Config(ConfigError),
    /// A buffer-protocol violation surfaced mid-run.
    Buffer(EddoError),
    /// The spill tier failed to page an operand in ([`run_spilled`]);
    /// carries the I/O error kind (the error itself is not `Copy`).
    Spill(std::io::ErrorKind),
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<EddoError> for EngineError {
    fn from(e: EddoError) -> Self {
        EngineError::Buffer(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Spill(e.kind())
    }
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid configuration: {e}"),
            EngineError::Buffer(e) => write!(f, "buffer protocol error: {e}"),
            EngineError::Spill(kind) => write!(f, "spill-tier I/O error: {kind}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Shared request validation for every engine entry point (and
/// [`reference_run`], which must reject exactly what the rewritten engine
/// rejects so the oracle stays callable wherever the engine is).
/// `(nrows, ncols)` is the stationary operand's shape, wherever it lives.
fn validate(
    (nrows, ncols): (usize, usize),
    config: &FunctionalConfig,
    threads: usize,
) -> Result<(), ConfigError> {
    if nrows != ncols {
        return Err(ConfigError::NonSquare { nrows, ncols });
    }
    if config.capacity == 0 {
        return Err(ConfigError::ZeroCapacity);
    }
    if config.rows_a == 0 || config.cols_b == 0 {
        return Err(ConfigError::ZeroTileDims {
            rows_a: config.rows_a,
            cols_b: config.cols_b,
        });
    }
    if threads == 0 {
        return Err(ConfigError::ZeroThreads);
    }
    Ok(())
}

/// Configuration of a functional run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalConfig {
    /// Operand-buffer capacity in nonzeros.
    pub capacity: usize,
    /// Tailors FIFO-region size (ignored when `overbooking` is false).
    pub fifo_region: usize,
    /// Rows of `A` per tile (`K`-spanning row panels).
    pub rows_a: usize,
    /// Columns of `B = Aᵀ` per tile.
    pub cols_b: usize,
    /// Whether the operand buffer is a Tailor (otherwise a plain buffet,
    /// which drops everything and refills when a tile does not fit).
    pub overbooking: bool,
    /// Per-thread dense-scratch budget; the [`ExecutionPlan`] derived from
    /// it groups streamed tiles into column blocks. Any budget yields
    /// bit-identical results; it only bounds memory.
    pub mem_budget: MemBudget,
    /// Parallel decomposition: row panels only, or the full 2-D
    /// (panel × block) grid with per-unit buffer drivers. Either mode
    /// yields bit-identical results; it only changes the available
    /// parallelism.
    pub grid: GridMode,
    /// Opt-in budget-aware auto-tiling: when set, `rows_a` is only the
    /// *baseline* candidate — the engine re-plans the panel height
    /// against `mem_budget` through the
    /// [`AutoPlanner`] (see
    /// [`auto_execution_plan`], under [`CostModel::UNIFORM`]) before
    /// running. The output matrix is
    /// bit-identical to [`reference_run`] either way (results never
    /// depend on the tiling); the DRAM counts are those of the chosen
    /// tiling.
    pub auto_plan: bool,
}

impl FunctionalConfig {
    /// The memory-governed execution plan this configuration induces on an
    /// `nrows × ncols` output **at the fixed `rows_a`** — what every run
    /// without [`FunctionalConfig::auto_plan`] executes. An auto-planned
    /// run derives its plan from the matrix instead; see
    /// [`auto_execution_plan`].
    pub fn execution_plan(&self, nrows: usize, ncols: usize) -> ExecutionPlan {
        ExecutionPlan::new(nrows, ncols, self.rows_a, self.cols_b, self.mem_budget)
    }

    /// The operand-buffer parameters the auto planner prices its refetch
    /// term against — exactly the buffer [`TileDriver`] drives.
    fn buffer_params(&self) -> BufferParams {
        BufferParams {
            capacity: self.capacity,
            fifo_region: self.fifo_region,
            overbooking: self.overbooking,
        }
    }
}

/// The auto-tiled execution plan for `config` on `a`: the
/// [`AutoPlanner`] over the matrix's occupancy
/// profile, with the config's buffer as the refetch model, its `rows_a`
/// as the baseline candidate and `model` weighting the terms. A fixed
/// run at `plan.rows_a()` executes exactly this plan; an auto-planned
/// run ([`FunctionalConfig::auto_plan`]) derives it itself under
/// [`CostModel::UNIFORM`], so callers that plan under another model (the
/// `--calibrate` knob, a service's configured model) resolve the plan
/// here and run it fixed. Either way the *results* of the run are
/// bit-identical — only the chosen tiling (and therefore the traffic
/// counters) can move.
pub fn auto_execution_plan(
    a: &CsrMatrix,
    config: &FunctionalConfig,
    model: CostModel,
) -> ExecutionPlan {
    let profile = a.profile();
    AutoPlanner::new(&profile, config.cols_b, config.mem_budget)
        .with_buffer(config.buffer_params())
        .with_baseline(config.rows_a)
        .with_cost_model(model)
        .plan()
}

/// Result of a functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalResult {
    /// The computed output `Z = A·Aᵀ`.
    pub z: CsrMatrix,
    /// Elements fetched from DRAM for the stationary operand `A`
    /// (including overbooking restreams).
    pub dram_a_fetches: u64,
    /// Elements fetched from DRAM for the streamed operand `B`.
    pub dram_b_fetches: u64,
    /// Number of A tiles that overbooked the buffer.
    pub overbooked_a_tiles: usize,
}

/// One stored nonzero of the stationary operand as it moves through the
/// buffer.
type Elem = (u32, u32, f64);

/// Executes the tiled dataflow on `a`, returning the output and DRAM
/// traffic counts.
///
/// Uses every thread rayon currently advertises (honoring
/// `RAYON_NUM_THREADS` and any enclosing pool); see [`run_with_threads`]
/// to pin the count. The result does not depend on the thread count.
///
/// # Errors
///
/// Propagates buffer-protocol errors (none occur for well-formed input).
///
/// # Errors
///
/// [`EngineError::Config`] if `a` is not square or the configuration is
/// degenerate (`capacity == 0`, `rows_a == 0`, or `cols_b == 0`);
/// [`EngineError::Buffer`] for buffer-protocol errors, including an
/// invalid Tailor sizing (`fifo_region == 0` or `fifo_region >= capacity`
/// while overbooking). No caller input panics the engine.
pub fn run(a: &CsrMatrix, config: &FunctionalConfig) -> Result<FunctionalResult, EngineError> {
    run_with_threads(a, config, rayon::current_num_threads())
}

/// [`run`] with an explicit worker-thread count (`1` = fully serial,
/// deterministic-by-construction path; results are identical either way).
///
/// # Errors
///
/// As [`run`]; additionally rejects `threads == 0`
/// ([`ConfigError::ZeroThreads`]).
pub fn run_with_threads(
    a: &CsrMatrix,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<FunctionalResult, EngineError> {
    match config.grid {
        GridMode::Panels => {
            let (op, plan) = Resident::setup(a, config, threads)?;
            run_panels(&op, config, &plan, a.nrows(), threads)
        }
        GridMode::Grid2D => Ok(run_grid(a, config, threads)?.0),
    }
}

/// The panels-mode pipeline over any operand home: one work item per row
/// panel, all blocks of a panel sharing its buffer driver, panels stitched
/// in order into one `n × n` CSR output. [`run_with_threads`] runs it over
/// a [`Resident`] matrix and [`run_spilled`] over an [`MmapStorage`].
fn run_panels<O: Operand>(
    op: &O,
    config: &FunctionalConfig,
    plan: &ExecutionPlan,
    n: usize,
    threads: usize,
) -> Result<FunctionalResult, EngineError> {
    let n_a_tiles = plan.n_row_panels();

    // Streamed-operand traffic: every A tile streams all of B exactly once
    // (tile occupancies are row-pointer differences summing to nnz), so the
    // per-(ti, tj) row scans of the seed engine collapse to one constant.
    let dram_b_per_a_tile: u64 = op.nnz() as u64;

    // Panel cost ≈ occupancy (what both the traversals and the accumulate
    // work scale with); +1 keeps empty panels schedulable. Read from the
    // resident row pointers in either home — no I/O.
    let costs: Vec<u128> = (0..n_a_tiles)
        .map(|ti| {
            let r = plan.panel_rows(ti);
            op.row_range_nnz(r.start, r.end) as u128 + 1
        })
        .collect();
    let panel_results = run_balanced(n_a_tiles, &costs, threads, |ti| {
        run_panel(op, config, plan, ti)
    });

    // Stitch disjoint row panels, in panel order, into one CSR output.
    let mut row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut dram_a = 0u64;
    let mut dram_b = 0u64;
    let mut overbooked = 0usize;
    for result in panel_results {
        let p = result?;
        for &len in &p.out.row_lens {
            row_ptr.push(row_ptr.last().expect("non-empty") + len);
        }
        cols.extend_from_slice(&p.out.cols);
        vals.extend_from_slice(&p.out.vals);
        dram_a += p.dram_a_fetches;
        dram_b += dram_b_per_a_tile;
        overbooked += usize::from(p.overbooked);
    }
    let z = CsrMatrix::from_parts(n, n, row_ptr, cols, vals)
        .expect("panel emission produces canonical CSR");
    Ok(FunctionalResult {
        z,
        dram_a_fetches: dram_a,
        dram_b_fetches: dram_b,
        overbooked_a_tiles: overbooked,
    })
}

/// Block-local traffic accounting of one (panel × block)
/// [`PlanUnit`] executed with its own buffer
/// driver ([`GridMode::Grid2D`]).
///
/// `dram_a_fetches` applies the per-block reduction (see the
/// [module docs](self)): per panel, block 0 is charged its private
/// fetches and every later block `private − occ + steady_refetch`, which
/// sums *exactly* to the shared-driver total. `dram_a_private` is what
/// this unit's driver actually fetched (the cost of making blocks
/// independent: each non-first block cold-fills the panel once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitTraffic {
    /// Row-panel index of the unit.
    pub row_panel: usize,
    /// Column-block index of the unit.
    pub col_block: usize,
    /// Shared-driver-equivalent stationary-operand fetches charged to this
    /// unit; summing these over a panel's blocks reproduces the shared
    /// driver's count exactly.
    pub dram_a_fetches: u64,
    /// Stationary-operand fetches this unit's private driver actually
    /// performed.
    pub dram_a_private: u64,
    /// Streamed-operand nonzeros this unit owns (the B columns of its
    /// block); per-panel block sums equal one full pass over B.
    pub dram_b_fetches: u64,
    /// Whether the panel overbooks the operand buffer; reported on
    /// `col_block == 0` only so panel sums count each panel once.
    pub overbooked: bool,
}

/// [`run_with_threads`] in [`GridMode::Grid2D`], also returning the
/// per-unit traffic breakdown. The [`FunctionalResult`] is bit-identical
/// to the [`GridMode::Panels`] run (and to [`reference_run`]) in every
/// field; the breakdown additionally exposes what each unit's private
/// driver really did.
///
/// # Errors
///
/// As [`run_with_threads`].
pub fn run_grid(
    a: &CsrMatrix,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<(FunctionalResult, Vec<UnitTraffic>), EngineError> {
    let (op, plan) = Resident::setup(a, config, threads)?;
    let n = a.nrows();
    let units: Vec<PlanUnit> = plan.units().collect();

    // Unit cost ≈ panel occupancy × its share of the streamed operand
    // (the accumulate work) plus the traversal cost of the panel itself.
    let costs: Vec<u128> = units
        .iter()
        .map(|u| {
            let occ = a.row_range_nnz(u.rows.start, u.rows.end) as u128;
            let block = a.row_range_nnz(u.cols.start, u.cols.end) as u128;
            occ * block + occ + block + 1
        })
        .collect();
    let unit_results = run_balanced(units.len(), &costs, threads, |ui| {
        run_unit(&op, config, &units[ui])
    });
    let mut outputs: Vec<UnitOutput> = Vec::with_capacity(unit_results.len());
    let mut traffic: Vec<UnitTraffic> = Vec::with_capacity(unit_results.len());
    for r in unit_results {
        let (o, t) = r?;
        outputs.push(o);
        traffic.push(t);
    }

    // Stitch: units are in (panel, block) row-major order; per panel,
    // concatenate each output row's block segments in block order —
    // exactly the staged merge the shared-driver path performs. A
    // zero-dimensional input has no blocks at all (`outputs` is empty and
    // the chunk loop must simply not run); `max(1)` keeps `chunks` legal.
    let n_blocks = plan.n_col_blocks().max(1);
    let mut row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    for (pi, panel_outputs) in outputs.chunks(n_blocks).enumerate() {
        let panel_rows = plan.panel_rows(pi).len();
        // Per-unit cursors advance monotonically because rows were
        // drained in order.
        let mut cursors = vec![0usize; panel_outputs.len()];
        for lr in 0..panel_rows {
            let before = cols.len();
            for (u, cursor) in panel_outputs.iter().zip(cursors.iter_mut()) {
                let len = u.out.row_lens[lr];
                cols.extend_from_slice(&u.out.cols[*cursor..*cursor + len]);
                vals.extend_from_slice(&u.out.vals[*cursor..*cursor + len]);
                *cursor += len;
            }
            row_ptr.push(row_ptr.last().expect("non-empty") + (cols.len() - before));
        }
    }
    let z = CsrMatrix::from_parts(n, n, row_ptr, cols, vals)
        .expect("unit emission produces canonical CSR");
    let result = FunctionalResult {
        z,
        dram_a_fetches: traffic.iter().map(|t| t.dram_a_fetches).sum(),
        dram_b_fetches: traffic.iter().map(|t| t.dram_b_fetches).sum(),
        overbooked_a_tiles: traffic.iter().filter(|t| t.overbooked).count(),
    };
    Ok((result, traffic))
}

/// Output of one stationary row panel.
///
/// The assembly buffers (`row_lens` per output row, sorted `cols`, and
/// `vals`, rows concatenated) travel as a pooled handle: the stitch reads
/// through it and the drop at end of stitching returns the buffers to the
/// worker's scratch slab for the next panel.
struct PanelOutput {
    out: PoolHandle<PanelBuffers>,
    dram_a_fetches: u64,
    overbooked: bool,
}

/// Output of one (panel × block) unit: the panel's rows restricted to the
/// block's columns, in the same pooled assembly buffers as
/// [`PanelOutput`].
struct UnitOutput {
    out: PoolHandle<PanelBuffers>,
}

/// The accumulator interface the per-unit kernel dispatch needs: the
/// bitmask-blocked scratch's masked mode and its dense mode
/// ([`DenseMode`]) both provide it with identical semantics
/// (bit-identical emission on the same write sequence — property-tested
/// in `crates/tensor/tests/proptests.rs`), so [`run_block`]
/// monomorphizes over the choice and the accumulate hot loop carries no
/// per-write dispatch branch. Both modes drive the *same* per-thread
/// [`BlockedSpa`] allocation, so dispatching never grows the scratch
/// beyond the planner's per-thread budget.
trait UnitSpa {
    fn reset_shape(&mut self, rows: usize, width: usize);
    fn accumulate(&mut self, row: usize, col: usize, v: f64);
    fn drain_row(&mut self, row: usize, base: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>);
    fn clear(&mut self);
}

impl UnitSpa for BlockedSpa {
    fn reset_shape(&mut self, rows: usize, width: usize) {
        BlockedSpa::reset_shape(self, rows, width)
    }
    #[inline]
    fn accumulate(&mut self, row: usize, col: usize, v: f64) {
        BlockedSpa::accumulate(self, row, col, v)
    }
    fn drain_row(&mut self, row: usize, base: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>) {
        BlockedSpa::drain_row(self, row, base, cols, vals)
    }
    fn clear(&mut self) {
        BlockedSpa::clear(self)
    }
}

/// The dense kernel: the same [`BlockedSpa`] driven in its unmasked mode
/// (no occupancy maintenance per accumulate, full-width scan-and-wipe
/// extraction) — the profitable trade for blocks predicted to fill.
struct DenseMode<'a>(&'a mut BlockedSpa);

impl UnitSpa for DenseMode<'_> {
    fn reset_shape(&mut self, rows: usize, width: usize) {
        BlockedSpa::reset_shape(self.0, rows, width)
    }
    #[inline]
    fn accumulate(&mut self, row: usize, col: usize, v: f64) {
        self.0.accumulate_dense(row, col, v)
    }
    fn drain_row(&mut self, row: usize, base: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>) {
        self.0.drain_row_dense(row, base, cols, vals)
    }
    fn clear(&mut self) {
        BlockedSpa::clear(self.0)
    }
}

/// Predicted-fill dispatch threshold: expected accumulate writes per
/// scratch slot at or above which a block runs on the plain dense kernel.
/// At half a write per slot most occupancy words are populated anyway, so
/// the mask OR + touched-word bookkeeping per accumulate buys nothing and
/// the dense kernel's full-width extraction wipe costs at most ~2 slots
/// per write. Correctness never depends on the value — the kernels are
/// bit-identical — so it only moves the crossover.
const DENSE_FILL_THRESHOLD: f64 = 0.5;

/// Whether `unit` should run on the dense kernel: predicted fill density
/// from the profile quantities already on hand. The expected effectual
/// multiplies landing in a (panel × block) unit are
/// `occ_panel × occ_block / nnz` for unstructured sparsity (each of the
/// panel's elements meets the streamed elements sharing its `k`
/// coordinate; `Σ_k panel_k × block_k` with both factors proportional to
/// their totals), and writes-per-slot is that over the unit's area. Read
/// from the resident row pointers, so every operand home makes the same
/// per-unit choice.
fn dense_kernel_for<O: Operand>(op: &O, unit: &PlanUnit) -> bool {
    let slots = unit.rows.len() as f64 * unit.cols.len() as f64;
    let nnz = op.nnz() as f64;
    if slots == 0.0 || nnz == 0.0 {
        return false;
    }
    let occ_panel = op.row_range_nnz(unit.rows.start, unit.rows.end) as f64;
    // The streamed block's occupancy: B columns [c0, c1) are A rows.
    let occ_block = op.row_range_nnz(unit.cols.start, unit.cols.end) as f64;
    occ_panel * occ_block >= DENSE_FILL_THRESHOLD * slots * nnz
}

/// Runs one column block on whichever kernel [`dense_kernel_for`] picks
/// for `unit` — the single dispatch point both grid modes and both operand
/// homes go through.
fn run_block_dispatch<O: Operand>(
    op: &O,
    spa: &mut BlockedSpa,
    driver: &mut TileDriver<PanelElems<'_>>,
    unit: &PlanUnit,
    sink: BlockSink<'_>,
) -> Result<(), EngineError> {
    if dense_kernel_for(op, unit) {
        run_block(&mut DenseMode(spa), driver, op, unit, sink)
    } else {
        run_block(spa, driver, op, unit, sink)
    }
}

/// Where [`run_block`] extracts its rows to: per-row staging (a panel
/// with several blocks, merged at the end) or straight into the flat
/// output (single-block panels and 2-D grid units).
enum BlockSink<'a> {
    Staged(&'a mut [(Vec<u32>, Vec<f64>)]),
    Direct {
        row_lens: &'a mut Vec<usize>,
        cols: &'a mut Vec<u32>,
        vals: &'a mut Vec<f64>,
    },
}

impl<'a> BlockSink<'a> {
    /// The sink of a panel's assembly buffers: staged rows when the panel
    /// has several blocks, the flat output otherwise.
    fn of(out: &'a mut PanelBuffers, staged_rows: Option<usize>) -> Self {
        match staged_rows {
            Some(rows) => BlockSink::Staged(&mut out.staged[..rows]),
            None => BlockSink::Direct {
                row_lens: &mut out.row_lens,
                cols: &mut out.cols,
                vals: &mut out.vals,
            },
        }
    }
}

/// Executes one column block of a stationary panel: shapes `spa` to the
/// unit, runs all its tile traversals through `driver`, and drains every
/// row into `sink`. Generic over the accumulator kernel — the caller
/// picks the masked or dense mode per unit via [`dense_kernel_for`].
fn run_block<O: Operand, A: UnitSpa>(
    spa: &mut A,
    driver: &mut TileDriver<PanelElems<'_>>,
    op: &O,
    unit: &PlanUnit,
    sink: BlockSink<'_>,
) -> Result<(), EngineError> {
    let (m0, c0) = (unit.rows.start, unit.cols.start);
    spa.reset_shape(unit.rows.len(), unit.cols.len());
    for tj in unit.tiles.clone() {
        if let Err(e) = traverse_tile(driver, op, tj, m0, c0, spa) {
            // Restore the all-zero invariant before propagating.
            spa.clear();
            return Err(e);
        }
    }
    // Extract in row order; blocks own disjoint column ranges and run
    // left to right, so per-row concatenation preserves sorted order.
    match sink {
        BlockSink::Staged(staged) => {
            for (lr, (row_cols, row_vals)) in staged.iter_mut().enumerate() {
                spa.drain_row(lr, c0 as u32, row_cols, row_vals);
            }
        }
        BlockSink::Direct {
            row_lens,
            cols,
            vals,
        } => {
            for lr in 0..unit.rows.len() {
                let before = cols.len();
                spa.drain_row(lr, c0 as u32, cols, vals);
                row_lens.push(cols.len() - before);
            }
        }
    }
    Ok(())
}

/// One in-order traversal of the stationary tile against streamed tile
/// `tj` (checked out of `op` for the traversal), accumulating into `spa`
/// (block-local columns, re-based at `c0`). On error the caller must
/// restore the scratch invariant via [`UnitSpa::clear`].
fn traverse_tile<O: Operand, A: UnitSpa>(
    driver: &mut TileDriver<PanelElems<'_>>,
    op: &O,
    tj: usize,
    m0: usize,
    c0: usize,
    spa: &mut A,
) -> Result<(), EngineError> {
    let tile = op.tile(tj)?;
    driver.traverse(|&(m, k, va)| {
        let (cols, vals) = O::b_row(&tile, k as usize);
        let local_row = m as usize - m0;
        for (&nn, &vb) in cols.iter().zip(vals) {
            spa.accumulate(local_row, nn as usize - c0, va * vb);
        }
    })?;
    Ok(())
}

/// Executes all B-tile traversals for stationary panel `ti`, one plan
/// column block at a time (all blocks share the panel's buffer driver, so
/// traversal order — and therefore every DRAM fetch count — is identical
/// for every memory budget). Each block runs on the accumulator kernel
/// [`dense_kernel_for`] picks: the bitmask-blocked scratch in the sparse
/// regime, the plain dense one when the block is predicted to fill.
fn run_panel<O: Operand>(
    op: &O,
    config: &FunctionalConfig,
    plan: &ExecutionPlan,
    ti: usize,
) -> Result<PanelOutput, EngineError> {
    let rows = plan.panel_rows(ti);
    let panel_rows = rows.len();
    op.with_panel(rows.start, rows.end, |tile| {
        let overbooked = tile.len() > config.capacity;
        // SPA scratch spanning the panel's output rows × one plan column
        // block, and the panel's assembly buffers — both checked out of the
        // worker's scratch pool by shape class, so steady-state runs on warm
        // threads allocate nothing here. Extraction restores the SPA's
        // all-zero invariant as it goes.
        let class = ShapeClass::of(panel_rows, plan.block_cols());
        SCRATCH_POOL.with(|pool| {
            pool.set_retention(config.mem_budget.limit_bytes());
            let mut spa = pool.checkout_spa(class);
            let mut out = pool.checkout_buffers(class);

            let mut driver = TileDriver::new(tile, config)?;
            // Per-row staging across blocks. A single-block plan (the
            // unbudgeted default) extracts rows directly into the flat
            // output instead, skipping the staging copy on the historical
            // hot path.
            let staged_rows = (plan.n_col_blocks() > 1).then_some(panel_rows);
            if staged_rows.is_some() {
                out.ensure_staged_rows(panel_rows);
            }
            for unit in plan.panel_units(ti) {
                let sink = BlockSink::of(&mut out, staged_rows);
                run_block_dispatch(op, &mut spa, &mut driver, &unit, sink)?;
            }
            if staged_rows.is_some() {
                merge_staged(&mut out, panel_rows);
            }

            Ok(PanelOutput {
                out,
                dram_a_fetches: driver.fetches(),
                overbooked,
            })
        })
    })
}

/// Concatenates a panel's per-row staged block segments (in row order,
/// blocks already in column order within each row) into the flat assembly
/// buffers, draining each staging vector in place so its capacity is
/// recycled with the pooled buffer set.
fn merge_staged(out: &mut PanelBuffers, panel_rows: usize) {
    let PanelBuffers {
        row_lens,
        cols,
        vals,
        staged,
    } = out;
    for (row_cols, row_vals) in staged[..panel_rows].iter_mut() {
        row_lens.push(row_cols.len());
        cols.extend_from_slice(row_cols);
        vals.extend_from_slice(row_vals);
        row_cols.clear();
        row_vals.clear();
    }
}

/// Executes one (panel × block) unit with a private buffer driver,
/// returning the block-restricted output and its [`UnitTraffic`].
fn run_unit(
    op: &Resident<'_>,
    config: &FunctionalConfig,
    unit: &PlanUnit,
) -> Result<(UnitOutput, UnitTraffic), EngineError> {
    // This unit's share of the streamed operand: the nonzeros of B columns
    // [c0, c1) are the nonzeros of A rows [c0, c1).
    let dram_b = op.row_range_nnz(unit.cols.start, unit.cols.end) as u64;
    let class = ShapeClass::of(unit.rows.len(), unit.cols.len());
    op.with_panel(unit.rows.start, unit.rows.end, |tile| {
        let occ = tile.len() as u64;
        let overbooked = tile.len() > config.capacity;
        SCRATCH_POOL.with(|pool| {
            pool.set_retention(config.mem_budget.limit_bytes());
            let mut spa = pool.checkout_spa(class);
            let mut out = pool.checkout_buffers(class);
            let mut driver = TileDriver::new(tile, config)?;
            let sink = BlockSink::of(&mut out, None);
            run_block_dispatch(op, &mut spa, &mut driver, unit, sink)?;

            // The per-block reduction (see the module docs): block 0 is the
            // shared driver's own prefix; later blocks replace their private
            // cold fill (occ) with one steady-state refetch.
            let private = driver.fetches();
            debug_assert!(private >= occ, "a traversal fetches the tile at least once");
            let dram_a = if unit.col_block == 0 {
                private
            } else {
                private - occ + driver.steady_refetch()
            };
            Ok((
                UnitOutput { out },
                UnitTraffic {
                    row_panel: unit.row_panel,
                    col_block: unit.col_block,
                    dram_a_fetches: dram_a,
                    dram_a_private: private,
                    dram_b_fetches: dram_b,
                    overbooked: overbooked && unit.col_block == 0,
                },
            ))
        })
    })
}

thread_local! {
    /// Per-thread scratch pool for [`run_panel`] / [`run_unit`] /
    /// [`run_spilled`]: SPA accumulators (all-zero between panels by
    /// construction — extraction drains them) and panel assembly buffers,
    /// recycled by shape class across panels, runs, and served requests
    /// on the same thread. One SPA serves both dispatch kernels —
    /// [`DenseMode`] is a view over it — so the per-thread footprint
    /// stays within the planner's budget no matter how blocks dispatch;
    /// retention is re-capped from each run's `MemBudget`.
    static SCRATCH_POOL: ScratchPool = ScratchPool::new();
}

/// Counters of the **calling thread's** engine scratch pool (each worker
/// thread keeps its own; a serve runtime worker reports its own numbers).
/// `misses` staying flat across warmed runs is what "the kernel path
/// allocates nothing" looks like from the inside; the allocator-level
/// regression test in `tailors-serve` pins it from the outside.
pub fn scratch_pool_stats() -> PoolStats {
    SCRATCH_POOL.with(|pool| pool.stats())
}

/// Frees the calling thread's idle pooled scratch (outstanding handles
/// are unaffected). Useful for tests that want a cold pool.
pub fn clear_scratch_pool() {
    SCRATCH_POOL.with(|pool| pool.clear());
}

/// Executes the tiled dataflow against a file-backed operand
/// ([`MmapStorage`]) instead of an in-RAM [`CsrMatrix`], paging row
/// panels of `A` and column tiles of `B = Aᵀ` in on demand — so matrices
/// whose CSR payload exceeds the configured RAM budget stream through the
/// planner's row-panel × column-block working sets.
///
/// It runs the same panels-mode pipeline as [`run_with_threads`]:
/// validation, costing, the panel and block loops, kernel dispatch and
/// the stitch are shared, and only the operand home differs — each
/// panel's `A` payload is loaded once per panel, and each streamed `B`
/// tile is checked out of the store's residency cache just before its
/// traversal (no read-ahead). So the result — every field — is
/// **bit-identical** to the in-RAM run and to [`reference_run`] (the
/// property suite pins it).
///
/// `config.grid` and `config.auto_plan` are ignored: a spilled run is
/// always panel-mode (a private driver per (panel, block) unit has no
/// residency advantage when tiles page in per checkout anyway), and
/// auto-planning needs the occupancy profile of a resident matrix —
/// callers that want an auto plan derive it where the profile lives and
/// pass the chosen `rows_a` in.
///
/// # Errors
///
/// As [`run_with_threads`], plus [`ConfigError::SpillTileMismatch`] when
/// `config.cols_b` differs from the tile width the spill file was written
/// with, and [`EngineError::Spill`] when paging fails mid-run — including
/// `InvalidData` for a payload whose indices fall outside the matrix or
/// their tile (checked as each panel and tile is paged in).
pub fn run_spilled(
    store: &MmapStorage,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<FunctionalResult, EngineError> {
    validate((store.nrows(), store.ncols()), config, threads)?;
    if config.cols_b != store.tile_cols() {
        return Err(ConfigError::SpillTileMismatch {
            file_cols: store.tile_cols(),
            config_cols: config.cols_b,
        }
        .into());
    }
    let n = store.nrows();
    run_panels(store, config, &config.execution_plan(n, n), n, threads)
}

/// Where the engine's operands live: the one seam between the panel
/// pipeline and its operand homes. Everything above it — validation,
/// costing, [`run_panel`], [`run_block_dispatch`]/[`run_block`], the
/// sinks and the stitch — exists once and is monomorphized per home, so
/// the resident hot loop compiles to a direct slice walk.
trait Operand: Sync {
    /// One streamed `B` column tile, held for a traversal.
    type Tile<'t>
    where
        Self: 't;

    /// Nonzeros of `A` (and of `B = Aᵀ`).
    fn nnz(&self) -> usize;

    /// Nonzeros of `A` rows `[m0, m1)`, without touching the payload.
    fn row_range_nnz(&self, m0: usize, m1: usize) -> usize;

    /// Pages in the stationary panel of rows `[m0, m1)` and runs `f` over
    /// it.
    fn with_panel<R>(
        &self,
        m0: usize,
        m1: usize,
        f: impl FnOnce(PanelElems<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError>;

    /// Checks out streamed tile `tj`.
    fn tile(&self, tj: usize) -> std::io::Result<Self::Tile<'_>>;

    /// The columns and values of `B` row `k` inside `tile` (global column
    /// indices, ascending).
    fn b_row<'t>(tile: &'t Self::Tile<'_>, k: usize) -> (&'t [u32], &'t [f64]);
}

/// The in-RAM operand home: `A` borrowed as CSR, `B = Aᵀ` transposed once
/// per run and sliced per tile through a [`TileColPtr`] view (or, when the
/// memory guard skips the view, by per-row binary search).
struct Resident<'a> {
    a: &'a CsrMatrix,
    b: CsrMatrix,
    b_tiles: Option<TileColPtr>,
    cols_b: usize,
}

impl<'a> Resident<'a> {
    /// Validated common setup for both grid modes: the streamed operand,
    /// the execution plan, and (when the memory guard allows) the tile
    /// column-pointer view.
    fn setup(
        a: &'a CsrMatrix,
        config: &FunctionalConfig,
        threads: usize,
    ) -> Result<(Self, ExecutionPlan), ConfigError> {
        validate((a.nrows(), a.ncols()), config, threads)?;
        let b = a.transpose();
        let n = a.nrows();
        let plan = if config.auto_plan {
            auto_execution_plan(a, config, CostModel::UNIFORM)
        } else {
            config.execution_plan(n, n)
        };
        // Column-pointer view of B at the tile grid: row k ∩ tile tj becomes
        // an O(1) slice instead of a per-element partition_point. The view
        // costs nrows × (n_tiles + 1) indices; when a degenerate tiling (tiny
        // cols_b on a wide B) would make that dwarf the matrix itself, skip
        // it and let traversals fall back to per-element range searches.
        let n_b_tiles = plan.n_col_tiles();
        let view_cells = b.nrows() * (n_b_tiles + 1);
        let b_tiles = if view_cells <= 8 * b.nnz() + 4096 {
            let view = b.tile_col_ptr(config.cols_b);
            debug_assert_eq!(view.n_tiles(), n_b_tiles);
            Some(view)
        } else {
            None
        };
        let cols_b = config.cols_b;
        Ok((
            Resident {
                a,
                b,
                b_tiles,
                cols_b,
            },
            plan,
        ))
    }
}

/// A column tile of the resident `B`: the matrix's own slices plus how to
/// find each row's segment inside the tile.
struct ResidentTile<'t> {
    row_ptr: &'t [usize],
    cols: &'t [u32],
    vals: &'t [f64],
    view: Option<&'t TileColPtr>,
    tj: usize,
    /// Tile column range `[n0, n1)`, for the view-less fallback search.
    n0: u32,
    n1: u32,
}

impl Operand for Resident<'_> {
    type Tile<'t>
        = ResidentTile<'t>
    where
        Self: 't;

    fn nnz(&self) -> usize {
        self.a.nnz()
    }

    fn row_range_nnz(&self, m0: usize, m1: usize) -> usize {
        self.a.row_range_nnz(m0, m1)
    }

    fn with_panel<R>(
        &self,
        m0: usize,
        m1: usize,
        f: impl FnOnce(PanelElems<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let a = self.a;
        f(PanelElems::new(
            &a.row_ptr()[m0..=m1],
            a.col_indices(),
            a.values(),
            m0,
        ))
    }

    fn tile(&self, tj: usize) -> std::io::Result<ResidentTile<'_>> {
        let n = self.b.ncols();
        Ok(ResidentTile {
            row_ptr: self.b.row_ptr(),
            cols: self.b.col_indices(),
            vals: self.b.values(),
            view: self.b_tiles.as_ref(),
            tj,
            n0: (tj * self.cols_b) as u32,
            n1: ((tj + 1) * self.cols_b).min(n) as u32,
        })
    }

    // Called once per stationary element from both kernel instantiations;
    // left to a plain `#[inline]` hint, LLVM outlines it and the hot loop
    // pays a call per element.
    #[inline(always)]
    fn b_row<'t>(tile: &'t ResidentTile<'_>, k: usize) -> (&'t [u32], &'t [f64]) {
        let (lo, hi) = match tile.view {
            Some(view) => view.row_tile_range(k, tile.tj),
            None => {
                let (rlo, rhi) = (tile.row_ptr[k], tile.row_ptr[k + 1]);
                let coords = &tile.cols[rlo..rhi];
                let start = rlo + coords.partition_point(|&c| c < tile.n0);
                let end = rlo + coords.partition_point(|&c| c < tile.n1);
                (start, end)
            }
        };
        (&tile.cols[lo..hi], &tile.vals[lo..hi])
    }
}

/// The spill-tier operand home: each panel's `A` payload is loaded from
/// the file, each `B` tile is checked out of the residency cache (its
/// `Arc` keeps it alive across eviction). Both are index-checked as they
/// page in, so a corrupt file fails with `InvalidData` before any
/// traversal reads from it.
impl Operand for MmapStorage {
    type Tile<'t> = Arc<SpillTile>;

    fn nnz(&self) -> usize {
        MmapStorage::nnz(self)
    }

    fn row_range_nnz(&self, m0: usize, m1: usize) -> usize {
        MmapStorage::row_range_nnz(self, m0, m1)
    }

    fn with_panel<R>(
        &self,
        m0: usize,
        m1: usize,
        f: impl FnOnce(PanelElems<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let payload = self.load_panel(m0, m1)?;
        f(PanelElems::new(
            &payload.row_ptr,
            &payload.cols,
            &payload.vals,
            m0,
        ))
    }

    fn tile(&self, tj: usize) -> std::io::Result<Arc<SpillTile>> {
        self.checkout_tile(tj)
    }

    #[inline]
    fn b_row(tile: &Arc<SpillTile>, k: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (tile.row_ptr[k], tile.row_ptr[k + 1]);
        (&tile.cols[lo..hi], &tile.vals[lo..hi])
    }
}

/// Indexed access to a stationary tile's elements.
///
/// The parent's address generator walks the tile in stream (row-major)
/// order; implementations map a flat element index to `(m, k, value)`.
trait TileSource {
    /// Number of elements in the tile.
    fn len(&self) -> usize;
    /// The `i`-th element in stream order.
    fn get(&self, i: usize) -> Elem;
}

/// A stationary row panel viewed in place over CSR slices — no
/// materialization. `row_ptr` spans the panel's rows `m0..=m1` and is
/// either absolute (a resident matrix's own pointers into its whole
/// `cols`/`vals`) or rebased to 0 (a paged-in payload); flat index `i`
/// addresses `cols`/`vals` at `row_ptr[0] + i` either way.
struct PanelElems<'a> {
    row_ptr: &'a [usize],
    cols: &'a [u32],
    vals: &'a [f64],
    /// Last resolved local row — buffer fetches walk the tile in stream
    /// order (monotone, wrapping cyclically under overbooking), so row
    /// lookup from the hint is amortized O(1).
    cursor: core::cell::Cell<usize>,
    m0: usize,
    base: usize,
    len: usize,
}

impl<'a> PanelElems<'a> {
    fn new(row_ptr: &'a [usize], cols: &'a [u32], vals: &'a [f64], m0: usize) -> Self {
        let base = row_ptr[0];
        PanelElems {
            row_ptr,
            cols,
            vals,
            cursor: core::cell::Cell::new(0),
            m0,
            base,
            len: row_ptr[row_ptr.len() - 1] - base,
        }
    }
}

impl TileSource for PanelElems<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> Elem {
        debug_assert!(i < self.len);
        let p = self.base + i;
        // Row containing flat index p, found by advancing the cursor from
        // its last position (rewinding to the panel start when the stream
        // wraps); `p < row_ptr[last]` bounds the walk.
        let mut lr = self.cursor.get();
        if p < self.row_ptr[lr] {
            lr = 0;
        }
        while p >= self.row_ptr[lr + 1] {
            lr += 1;
        }
        self.cursor.set(lr);
        ((self.m0 + lr) as u32, self.cols[p], self.vals[p])
    }
}

impl TileSource for &[Elem] {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn get(&self, i: usize) -> Elem {
        self[i]
    }
}

/// Drives sequential traversals of one stationary tile through either a
/// Tailor or a buffet, counting parent fetches.
enum TileDriver<S: TileSource> {
    Tailor {
        tile: S,
        buf: Tailor<Elem>,
        fetches: u64,
        steady: u64,
    },
    Buffet {
        tile: S,
        buf: Buffet<Elem>,
        window_start: usize,
        window_end: usize,
        fetches: u64,
        steady: u64,
    },
}

impl<S: TileSource> TileDriver<S> {
    fn new(tile: S, config: &FunctionalConfig) -> Result<Self, EddoError> {
        let occ = tile.len();
        if config.overbooking {
            let tc = TailorConfig::new(config.capacity, config.fifo_region)?;
            let mut buf = Tailor::new(tc);
            buf.set_tile_len(occ);
            // Every traversal after the first refetches exactly the bumped
            // remainder: the streaming period (occ − resident) strictly
            // exceeds the FIFO region whenever occ > capacity, so each
            // bumped index is evicted before its next read and streamed
            // around exactly once per traversal.
            let steady = if occ > config.capacity {
                (occ - tc.resident_region()) as u64
            } else {
                0
            };
            Ok(TileDriver::Tailor {
                tile,
                buf,
                fetches: 0,
                steady,
            })
        } else {
            // A sliding-window buffet cannot rewind: an overbooked tile is
            // dropped and refilled whole on every traversal (Fig. 3).
            let steady = if occ > config.capacity { occ as u64 } else { 0 };
            Ok(TileDriver::Buffet {
                tile,
                buf: Buffet::new(config.capacity),
                window_start: 0,
                window_end: 0,
                fetches: 0,
                steady,
            })
        }
    }

    fn fetches(&self) -> u64 {
        match self {
            TileDriver::Tailor { fetches, .. } => *fetches,
            TileDriver::Buffet { fetches, .. } => *fetches,
        }
    }

    /// Parent fetches every traversal after the first performs — the
    /// steady-state refetch volume the per-block accounting reduction is
    /// built on (zero when the tile fits its buffer). The first traversal
    /// always cold-fills the whole tile (`tile.len()` fetches).
    fn steady_refetch(&self) -> u64 {
        match self {
            TileDriver::Tailor { steady, .. } => *steady,
            TileDriver::Buffet { steady, .. } => *steady,
        }
    }

    /// One full in-order traversal of the tile, calling `visit` on every
    /// element exactly once.
    fn traverse<F: FnMut(&Elem)>(&mut self, mut visit: F) -> Result<(), EddoError> {
        match self {
            TileDriver::Tailor {
                tile, buf, fetches, ..
            } => {
                for i in 0..tile.len() {
                    loop {
                        match buf.read(i) {
                            Ok(e) => {
                                visit(&e);
                                break;
                            }
                            Err(EddoError::NotYetFilled { .. }) => {
                                match buf.fill(tile.get(buf.occupancy())) {
                                    Ok(()) => *fetches += 1,
                                    Err(EddoError::Full) => {
                                        let idx =
                                            buf.next_stream_index().unwrap_or(buf.occupancy());
                                        buf.ow_fill(tile.get(idx))?;
                                        *fetches += 1;
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                            Err(EddoError::Bumped { .. }) => {
                                let idx = buf.next_stream_index().expect("overbooked");
                                buf.ow_fill(tile.get(idx))?;
                                *fetches += 1;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                Ok(())
            }
            TileDriver::Buffet {
                tile,
                buf,
                window_start,
                window_end,
                fetches,
                ..
            } => {
                for i in 0..tile.len() {
                    if i < *window_start {
                        // Sliding window cannot rewind: drop and refill.
                        let occ = buf.occupancy();
                        buf.shrink(occ)?;
                        *window_start = i;
                        *window_end = i;
                    }
                    while i >= *window_end {
                        if buf.is_full() {
                            buf.shrink(1)?;
                            *window_start += 1;
                        }
                        buf.fill(tile.get(*window_end))?;
                        *window_end += 1;
                        *fetches += 1;
                    }
                    let e = buf.read(i - *window_start)?;
                    visit(&e);
                }
                Ok(())
            }
        }
    }
}

/// The seed engine, retained verbatim as the oracle for the rewritten
/// [`run`]: materializes each stationary tile as a coordinate list,
/// re-searches each B row per element, and accumulates into a hash map.
/// `mem_budget` is ignored — the oracle always uses the unpartitioned
/// global accumulator.
///
/// Property tests assert [`run`] is bit-identical to this on arbitrary
/// inputs and budgets; benchmarks measure the gap.
///
/// # Errors
///
/// As [`run`]: a typed [`ConfigError`] for a rejected configuration,
/// buffer-protocol errors otherwise (none occur for well-formed input).
pub fn reference_run(
    a: &CsrMatrix,
    config: &FunctionalConfig,
) -> Result<FunctionalResult, EngineError> {
    use std::collections::HashMap;

    // The oracle ignores the thread count; validate with the always-legal 1
    // so it rejects exactly the configurations the rewritten engine rejects.
    validate((a.nrows(), a.ncols()), config, 1)?;
    let b = a.transpose();
    let n = a.nrows();
    let n_a_tiles = n.div_ceil(config.rows_a.max(1));
    let n_b_tiles = n.div_ceil(config.cols_b.max(1));

    let mut acc: HashMap<(u32, u32), f64> = HashMap::new();
    let mut dram_a = 0u64;
    let mut dram_b = 0u64;
    let mut overbooked = 0usize;

    for ti in 0..n_a_tiles {
        let m0 = ti * config.rows_a;
        let m1 = ((ti + 1) * config.rows_a).min(n);
        // Materialize the tile's elements in stream (row-major) order.
        let tile: Vec<Elem> = (m0..m1)
            .flat_map(|m| {
                let row = a.row(m);
                row.coords()
                    .iter()
                    .zip(row.values())
                    .map(move |(&k, &v)| (m as u32, k, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        if tile.len() > config.capacity {
            overbooked += 1;
        }

        let mut driver = TileDriver::new(tile.as_slice(), config)?;
        for tj in 0..n_b_tiles {
            let n0 = (tj * config.cols_b) as u32;
            let n1 = (((tj + 1) * config.cols_b).min(n)) as u32;
            // Stream the B tile from DRAM: its occupancy is the nonzeros of
            // B columns [n0, n1), i.e. rows n0..n1 of A.
            for col in n0..n1 {
                dram_b += a.row_nnz(col as usize) as u64;
            }
            driver.traverse(|&(m, k, va)| {
                let row_b = b.row(k as usize);
                let coords = row_b.coords();
                let start = coords.partition_point(|&c| c < n0);
                for (idx, &nn) in coords[start..].iter().enumerate() {
                    if nn >= n1 {
                        break;
                    }
                    let vb = row_b.values()[start + idx];
                    *acc.entry((m, nn)).or_insert(0.0) += va * vb;
                }
            })?;
        }
        dram_a += driver.fetches();
    }

    let mut coo = CooMatrix::with_capacity(n, n, acc.len());
    for ((m, nn), v) in acc {
        if v != 0.0 {
            coo.push(m as usize, nn as usize, v)
                .expect("accumulator coordinates in bounds");
        }
    }
    Ok(FunctionalResult {
        z: CsrMatrix::from_coo(&coo),
        dram_a_fetches: dram_a,
        dram_b_fetches: dram_b,
        overbooked_a_tiles: overbooked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailors_tensor::gen::GenSpec;
    use tailors_tensor::ops::{approx_eq, spmspm_a_at};

    fn small() -> CsrMatrix {
        GenSpec::power_law(64, 64, 500).seed(13).generate()
    }

    #[test]
    fn output_matches_reference_with_overbooking() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 16,
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        let reference = spmspm_a_at(&a);
        assert!(
            approx_eq(&result.z, &reference, 1e-9),
            "functional output must equal the reference product"
        );
        assert!(
            result.overbooked_a_tiles > 0,
            "test should exercise overbooking"
        );
    }

    #[test]
    fn output_matches_reference_without_overbooking() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 4_096, // everything fits
            fifo_region: 8,
            rows_a: 16,
            cols_b: 16,
            overbooking: false,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        assert!(approx_eq(&result.z, &spmspm_a_at(&a), 1e-9));
        assert_eq!(result.overbooked_a_tiles, 0);
        // Fitting tiles are fetched exactly once.
        assert_eq!(result.dram_a_fetches, a.nnz() as u64);
    }

    #[test]
    fn rewritten_engine_is_bit_identical_to_seed_engine() {
        let a = small();
        for overbooking in [false, true] {
            for (rows_a, cols_b) in [(16, 16), (7, 11), (64, 64), (1, 64)] {
                let config = FunctionalConfig {
                    capacity: 40,
                    fifo_region: 8,
                    rows_a,
                    cols_b,
                    overbooking,
                    mem_budget: MemBudget::Unbounded,
                    grid: GridMode::Panels,
                    auto_plan: false,
                };
                let new = run(&a, &config).unwrap();
                let old = reference_run(&a, &config).unwrap();
                assert_eq!(
                    new.z, old.z,
                    "rows_a={rows_a} cols_b={cols_b} ob={overbooking}"
                );
                assert_eq!(new.dram_a_fetches, old.dram_a_fetches);
                assert_eq!(new.dram_b_fetches, old.dram_b_fetches);
                assert_eq!(new.overbooked_a_tiles, old.overbooked_a_tiles);
            }
        }
    }

    #[test]
    fn memory_budget_is_bit_identical_to_unbudgeted() {
        let a = small();
        for overbooking in [false, true] {
            let base = FunctionalConfig {
                capacity: 40,
                fifo_region: 8,
                rows_a: 16,
                cols_b: 8,
                overbooking,
                mem_budget: MemBudget::Unbounded,
                grid: GridMode::Panels,
                auto_plan: false,
            };
            let unbudgeted = run_with_threads(&a, &base, 1).unwrap();
            // Budgets from "one tile per block" through "everything", plus
            // one smaller than a single 16 × 8 tile (clamps, still runs).
            for bytes in [1u64, 16 * 8 * 8, 16 * 24 * 8, 1 << 20] {
                let budgeted = FunctionalConfig {
                    mem_budget: MemBudget::bytes(bytes),
                    grid: GridMode::Panels,
                    auto_plan: false,
                    ..base
                };
                for threads in [1, 3] {
                    let r = run_with_threads(&a, &budgeted, threads).unwrap();
                    assert_eq!(r, unbudgeted, "bytes={bytes} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn budgeted_run_shrinks_the_scratch() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 16,
            cols_b: 8,
            overbooking: true,
            mem_budget: MemBudget::bytes(16 * 16 * 8),
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let plan = config.execution_plan(a.nrows(), a.ncols());
        assert_eq!(plan.block_cols(), 16, "two 8-column tiles per block");
        assert_eq!(plan.n_col_blocks(), 4);
        assert!(plan.fits_budget());
        let r = run_with_threads(&a, &config, 2).unwrap();
        assert!(approx_eq(&r.z, &spmspm_a_at(&a), 1e-9));
    }

    #[test]
    fn grid_2d_is_bit_identical_to_panels_mode() {
        let a = small();
        for overbooking in [false, true] {
            let base = FunctionalConfig {
                capacity: 40,
                fifo_region: 8,
                rows_a: 16,
                cols_b: 8,
                overbooking,
                mem_budget: MemBudget::Unbounded,
                grid: GridMode::Panels,
                auto_plan: false,
            };
            let shared = run_with_threads(&a, &base, 1).unwrap();
            for bytes in [1u64, 16 * 8 * 8, 16 * 24 * 8, 1 << 20] {
                let grid2d = FunctionalConfig {
                    mem_budget: MemBudget::bytes(bytes),
                    grid: GridMode::Grid2D,
                    auto_plan: false,
                    ..base
                };
                for threads in [1, 3] {
                    let r = run_with_threads(&a, &grid2d, threads).unwrap();
                    assert_eq!(
                        r, shared,
                        "ob={overbooking} bytes={bytes} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_unit_traffic_reduces_exactly_to_shared_driver_counts() {
        let a = small();
        for overbooking in [false, true] {
            // One streamed tile per block: the most private drivers (and
            // the most cold fills the reduction has to cancel out).
            let config = FunctionalConfig {
                capacity: 40,
                fifo_region: 8,
                rows_a: 16,
                cols_b: 8,
                overbooking,
                mem_budget: MemBudget::bytes(16 * 8 * 8),
                grid: GridMode::Grid2D,
                auto_plan: false,
            };
            let shared = run_with_threads(
                &a,
                &FunctionalConfig {
                    grid: GridMode::Panels,
                    auto_plan: false,
                    ..config
                },
                1,
            )
            .unwrap();
            let (result, traffic) = run_grid(&a, &config, 2).unwrap();
            assert_eq!(result, shared, "ob={overbooking}");
            let plan = config.execution_plan(a.nrows(), a.ncols());
            assert_eq!(traffic.len(), plan.parallel_units(GridMode::Grid2D));
            // Adjusted counts sum exactly; private counts only exceed them
            // (each non-first block pays its own cold fill).
            let adjusted: u64 = traffic.iter().map(|t| t.dram_a_fetches).sum();
            let private: u64 = traffic.iter().map(|t| t.dram_a_private).sum();
            assert_eq!(adjusted, shared.dram_a_fetches);
            assert!(private >= adjusted);
            assert_eq!(
                traffic.iter().map(|t| t.dram_b_fetches).sum::<u64>(),
                shared.dram_b_fetches
            );
            assert_eq!(
                traffic.iter().filter(|t| t.overbooked).count(),
                shared.overbooked_a_tiles
            );
            // Per panel, the streamed-operand shares partition one pass.
            for pi in 0..plan.n_row_panels() {
                let panel_b: u64 = traffic
                    .iter()
                    .filter(|t| t.row_panel == pi)
                    .map(|t| t.dram_b_fetches)
                    .sum();
                assert_eq!(panel_b, a.nnz() as u64, "panel {pi}");
            }
        }
    }

    #[test]
    fn auto_plan_runs_the_cost_model_tiling_bit_identically() {
        let a = small();
        for overbooking in [false, true] {
            for grid in [GridMode::Panels, GridMode::Grid2D] {
                let auto_config = FunctionalConfig {
                    capacity: 40,
                    fifo_region: 8,
                    rows_a: 32,
                    cols_b: 8,
                    overbooking,
                    mem_budget: MemBudget::bytes(16 * 8 * 8),
                    grid,
                    auto_plan: true,
                };
                let chosen = auto_execution_plan(&a, &auto_config, CostModel::UNIFORM);
                let fixed_config = FunctionalConfig {
                    rows_a: chosen.rows_a(),
                    auto_plan: false,
                    ..auto_config
                };
                let auto = run_with_threads(&a, &auto_config, 2).unwrap();
                let fixed = run_with_threads(&a, &fixed_config, 1).unwrap();
                assert_eq!(auto, fixed, "ob={overbooking} grid={grid}");
                // Tiling invariance of the output itself: still the
                // reference product, bitwise, at the baseline tiling.
                let oracle = reference_run(
                    &a,
                    &FunctionalConfig {
                        auto_plan: false,
                        ..auto_config
                    },
                )
                .unwrap();
                assert_eq!(auto.z, oracle.z);
            }
        }
    }

    #[test]
    fn dense_blocks_dispatch_to_the_dense_kernel() {
        // A deterministic ~69 %-dense matrix: the single (panel × block)
        // unit predicts `nnz / 1024` writes per slot, well beyond the
        // dispatch threshold.
        let triplets: Vec<(usize, usize, f64)> = (0..32usize)
            .flat_map(|r| {
                (0..32usize)
                    .filter(move |c| (r * 32 + c) % 16 < 11)
                    .map(move |c| (r, c, 0.5 + ((r * 7 + c) % 9) as f64 * 0.25))
            })
            .collect();
        let a = CsrMatrix::from_triplets(32, 32, &triplets).unwrap();
        assert!(a.nnz() > 512 + 100, "test needs a clearly dense matrix");
        let config = FunctionalConfig {
            capacity: 4_096,
            fifo_region: 8,
            rows_a: 32,
            cols_b: 32,
            overbooking: false,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let (op, plan) = Resident::setup(&a, &config, 1).unwrap();
        assert!(
            dense_kernel_for(&op, &plan.unit(0, 0)),
            "a 60%-dense unit must pick the dense kernel"
        );
        // And a sparse matrix must not.
        let sparse = small();
        let (sop, splan) = Resident::setup(&sparse, &config, 1).unwrap();
        assert!(!dense_kernel_for(&sop, &splan.unit(0, 0)));
        // The dispatched run stays bit-identical to the seed engine.
        let new = run_with_threads(&a, &config, 2).unwrap();
        let old = reference_run(&a, &config).unwrap();
        assert_eq!(new.z, old.z);
        assert_eq!(new.dram_a_fetches, old.dram_a_fetches);
        assert_eq!(new.dram_b_fetches, old.dram_b_fetches);
        // Multi-block + 2-D grid over the dense kernel too.
        let blocked = FunctionalConfig {
            mem_budget: MemBudget::bytes(32 * 8 * 8),
            grid: GridMode::Grid2D,
            ..config
        };
        let b = run_with_threads(&a, &blocked, 3).unwrap();
        assert_eq!(b, new);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 8,
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let serial = run_with_threads(&a, &config, 1).unwrap();
        for threads in [2, 3, 8] {
            let parallel = run_with_threads(&a, &config, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn dram_a_matches_closed_form() {
        let a = small();
        let (capacity, fifo, rows_a, cols_b) = (40usize, 8usize, 16usize, 16usize);
        let config = FunctionalConfig {
            capacity,
            fifo_region: fifo,
            rows_a,
            cols_b,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        // Closed form: occ + (n_b - 1) × bumped per tile.
        let profile = a.profile();
        let n_b = a.nrows().div_ceil(cols_b) as u64;
        let resident = (capacity - fifo) as u64;
        let mut expected = 0u64;
        for t in 0..a.nrows().div_ceil(rows_a) {
            let lo = t * rows_a;
            let hi = ((t + 1) * rows_a).min(a.nrows());
            let occ = profile.row_range_nnz(lo, hi);
            let bumped = if occ > capacity as u64 {
                occ - resident
            } else {
                0
            };
            expected += occ + (n_b - 1) * bumped;
        }
        assert_eq!(result.dram_a_fetches, expected);
    }

    #[test]
    fn dram_b_is_one_pass_per_a_tile() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 16,
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        let n_a = a.nrows().div_ceil(config.rows_a) as u64;
        assert_eq!(result.dram_b_fetches, n_a * a.nnz() as u64);
    }

    #[test]
    fn buffet_fallback_fetches_whole_tiles_per_pass() {
        let a = small();
        let overbooked = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 64, // one big tile that cannot fit
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let buffet = FunctionalConfig {
            overbooking: false,
            ..overbooked
        };
        let t = run(&a, &overbooked).unwrap();
        let b = run(&a, &buffet).unwrap();
        assert!(approx_eq(&t.z, &b.z, 1e-9), "both must compute the same Z");
        assert!(
            b.dram_a_fetches > t.dram_a_fetches,
            "buffets refetch whole overbooked tiles (Fig. 3): {} vs {}",
            b.dram_a_fetches,
            t.dram_a_fetches
        );
        // Buffet: n_b full refetches of the tile.
        let n_b = a.nrows().div_ceil(16) as u64;
        assert_eq!(b.dram_a_fetches, n_b * a.nnz() as u64);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = CsrMatrix::new(8, 8);
        let config = FunctionalConfig {
            capacity: 4,
            fifo_region: 1,
            rows_a: 4,
            cols_b: 4,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let r = run(&a, &config).unwrap();
        assert_eq!(r.z.nnz(), 0);
        assert_eq!(r.dram_a_fetches, 0);
        assert_eq!(r.dram_b_fetches, 0);
        // Zero-dimensional input: zero tiles on both axes, in both grid
        // modes (Grid2D has zero units and must not choke on it).
        for grid in [GridMode::Panels, GridMode::Grid2D] {
            let z = run(&CsrMatrix::new(0, 0), &FunctionalConfig { grid, ..config }).unwrap();
            assert_eq!(z.z.nrows(), 0);
            assert_eq!(z.dram_a_fetches, 0);
        }
        // And the empty-but-nonzero-dimensional case in 2-D mode.
        let g = run(
            &a,
            &FunctionalConfig {
                grid: GridMode::Grid2D,
                auto_plan: false,
                ..config
            },
        )
        .unwrap();
        assert_eq!(g, r);
    }

    #[test]
    fn degenerate_tiling_falls_back_without_the_column_view() {
        // cols_b = 1 on a 600-column B makes the column-pointer view cost
        // 600 × 601 cells against ~1k nonzeros — the memory guard skips it
        // and panels binary-search instead. Results must be unchanged.
        let a = GenSpec::uniform(600, 600, 1_000).seed(21).generate();
        let config = FunctionalConfig {
            capacity: 300,
            fifo_region: 32,
            rows_a: 200,
            cols_b: 1,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let new = run_with_threads(&a, &config, 2).unwrap();
        let old = reference_run(&a, &config).unwrap();
        assert_eq!(new.z, old.z);
        assert_eq!(new.dram_a_fetches, old.dram_a_fetches);
        assert_eq!(new.dram_b_fetches, old.dram_b_fetches);
    }

    #[test]
    fn panel_elems_maps_flat_indices_through_empty_rows() {
        // Rows 1 and 2 are empty; flat indices must land in rows 0 and 3.
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (0, 2, 2.0), (3, 1, 3.0)]).unwrap();
        let (rp, cols, vals) = (a.row_ptr(), a.col_indices(), a.values());
        let panel = PanelElems::new(rp, cols, vals, 0);
        assert_eq!(panel.len(), 3);
        assert_eq!(panel.get(0), (0, 0, 1.0));
        assert_eq!(panel.get(1), (0, 2, 2.0));
        assert_eq!(panel.get(2), (3, 1, 3.0));
        let tail = PanelElems::new(&rp[2..=4], cols, vals, 2);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.get(0), (3, 1, 3.0));
        // The same tail as a paged-in payload: rebased pointers over the
        // panel's own slices.
        let paged = PanelElems::new(&[0, 0, 1], &[1], &[3.0], 2);
        assert_eq!(paged.len(), 1);
        assert_eq!(paged.get(0), (3, 1, 3.0));
    }
}

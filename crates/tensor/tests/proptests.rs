//! Property-based tests for the sparse-tensor substrate.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tailors_tensor::fiber::Fiber;
use tailors_tensor::ops::{self, count_work, spmspm, spmspm_into, SpmspmScratch};
use tailors_tensor::stats::{geomean, overbooking_quantile, quantile, summarize};
use tailors_tensor::tiling::{grid_tile_occupancies, RowPanels};
use tailors_tensor::{CooMatrix, CsrMatrix};

fn triplets_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0usize..24, 0usize..24, -10.0f64..10.0), 0..200)
}

/// Strictly positive values: no exact cancellation, so the structural
/// output-nonzero count of the symbolic pass equals the reference's
/// materialized count.
fn positive_triplets_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0usize..24, 0usize..24, 0.5f64..10.0), 0..200)
}

proptest! {
    /// CSR construction from arbitrary (possibly duplicated) triplets
    /// agrees with a BTreeMap reference model.
    #[test]
    fn csr_matches_reference_map(triplets in triplets_strategy()) {
        let mut reference: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(r, c, v) in &triplets {
            *reference.entry((r, c)).or_insert(0.0) += v;
        }
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        // Every reference entry is reachable (entries that summed to zero
        // remain structurally present).
        for (&(r, c), &v) in &reference {
            prop_assert!((m.get(r, c).unwrap_or(f64::NAN) - v).abs() < 1e-9);
        }
        prop_assert_eq!(m.nnz(), reference.len());
        // Row fibers are strictly sorted.
        for r in 0..24 {
            let coords = m.row(r).coords();
            prop_assert!(coords.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Transposing twice is the identity; the transpose relocates every
    /// entry exactly.
    #[test]
    fn transpose_is_involution(triplets in triplets_strategy()) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let t = m.transpose();
        prop_assert_eq!(&t.transpose(), &m);
        for (r, c, v) in m.iter() {
            prop_assert_eq!(t.get(c, r), Some(v));
        }
    }

    /// Profiles conserve nonzeros: row totals = column totals = nnz, and
    /// any partition into row panels sums back to nnz.
    #[test]
    fn profile_and_panels_conserve_nnz(
        triplets in triplets_strategy(),
        rows_per_tile in 1usize..30,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let p = m.profile();
        prop_assert_eq!(p.nnz(), m.nnz() as u64);
        let panels = RowPanels::new(&p, rows_per_tile);
        prop_assert_eq!(panels.occupancies().sum::<u64>(), p.nnz());
        prop_assert!(panels.max_occupancy() <= p.nnz());
        // Overbooking rate is monotone non-increasing in capacity.
        let r_small = panels.overbooking_rate(1);
        let r_big = panels.overbooking_rate(1_000_000);
        prop_assert!(r_small >= r_big);
    }

    /// 2-D grid tiles partition the nonzeros too.
    #[test]
    fn grid_tiles_partition_nnz(
        triplets in triplets_strategy(),
        tr in 1usize..10,
        tc in 1usize..10,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let occ = grid_tile_occupancies(&m, tr, tc);
        prop_assert_eq!(occ.iter().sum::<u64>(), m.nnz() as u64);
        prop_assert_eq!(occ.len(), 24usize.div_ceil(tr) * 24usize.div_ceil(tc));
    }

    /// Quantiles are monotone in q, bounded by the extremes, and the
    /// overbooking quantile complements them.
    #[test]
    fn quantile_properties(mut values in proptest::collection::vec(0u64..10_000, 1..100)) {
        values.sort_unstable();
        let lo = *values.first().unwrap();
        let hi = *values.last().unwrap();
        let mut prev = lo;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = quantile(&values, q);
            prop_assert!(v >= lo && v <= hi);
            prop_assert!(v >= prev, "quantile must be monotone");
            prev = v;
        }
        prop_assert_eq!(overbooking_quantile(&values, 0.0), hi);
        // At most y of the values strictly exceed Q_y.
        for y in [0.1, 0.25, 0.5] {
            let qy = overbooking_quantile(&values, y);
            let over = values.iter().filter(|&&v| v > qy).count();
            prop_assert!(over as f64 <= y * values.len() as f64 + 1e-9);
        }
    }

    /// Summaries are internally consistent.
    #[test]
    fn summary_is_consistent(values in proptest::collection::vec(0u64..100_000, 1..200)) {
        let s = summarize(&values).unwrap();
        prop_assert_eq!(s.count, values.len());
        prop_assert_eq!(s.max, *values.iter().max().unwrap());
        prop_assert!(s.median <= s.p90);
        prop_assert!(s.p90 <= s.p99);
        prop_assert!(s.p99 <= s.max);
        prop_assert!(s.mean <= s.max as f64 + 1e-9);
    }

    /// Geomean sits between min and max for positive inputs.
    #[test]
    fn geomean_bounds(values in proptest::collection::vec(0.01f64..100.0, 1..50)) {
        let g = geomean(&values).unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }

    /// The SPA multiply is bit-identical to the retained hash-accumulator
    /// oracle on arbitrary operands (duplicates, negatives, empty rows).
    #[test]
    fn spa_spmspm_matches_hash_oracle(
        ta in triplets_strategy(),
        tb in triplets_strategy(),
    ) {
        let a = CsrMatrix::from_triplets(24, 24, &ta).unwrap();
        let b = CsrMatrix::from_triplets(24, 24, &tb).unwrap();
        let fast = spmspm(&a, &b).unwrap();
        let oracle = ops::reference::spmspm(&a, &b).unwrap();
        prop_assert_eq!(&fast, &oracle);
        // Scratch reuse changes nothing.
        let mut scratch = SpmspmScratch::new();
        prop_assert_eq!(&spmspm_into(&a, &b, &mut scratch).unwrap(), &oracle);
        prop_assert_eq!(&spmspm_into(&a, &b, &mut scratch).unwrap(), &oracle);
    }

    /// The bitmask-blocked accumulator is bit-identical to the classic
    /// dense scratch (a sorted touched-coordinate list over a dense
    /// array) for arbitrary accumulation sequences and block tilings:
    /// same extraction order, same bits, same exact-cancellation drops —
    /// per block, with blocks drained in any column partition.
    #[test]
    fn blocked_spa_matches_dense_scratch_on_arbitrary_tilings(
        writes in proptest::collection::vec(
            (0usize..6, 0usize..96, 0usize..5), 0..200),
        block_cols in 1usize..97,
        rows in 1usize..7,
    ) {
        let width = 96usize;
        let mut spa = ops::BlockedSpa::new();
        spa.reset_shape(rows, block_cols.min(width));
        // Model: dense array + touched list per row, drained per block —
        // exactly the pre-blocked engine formulation.
        let mut dense = vec![vec![0.0f64; width]; rows];
        let mut touched: Vec<Vec<usize>> = vec![Vec::new(); rows];
        let mut got: (Vec<u32>, Vec<f64>) = Default::default();
        let mut want: (Vec<u32>, Vec<f64>) = Default::default();
        for c0 in (0..width).step_by(block_cols) {
            let c1 = (c0 + block_cols).min(width);
            for &(r, c, v) in &writes {
                let r = r % rows;
                if c < c0 || c >= c1 {
                    continue;
                }
                let val = (v as f64 - 2.0) * 0.5;
                spa.accumulate(r, c - c0, val);
                let slot = &mut dense[r][c];
                if *slot == 0.0 {
                    touched[r].push(c);
                }
                *slot += val;
            }
            for r in 0..rows {
                spa.drain_row(r, c0 as u32, &mut got.0, &mut got.1);
                touched[r].sort_unstable();
                for &c in touched[r].iter() {
                    let v = core::mem::take(&mut dense[r][c]);
                    if v != 0.0 {
                        want.0.push(c as u32);
                        want.1.push(v);
                    }
                }
                touched[r].clear();
            }
        }
        prop_assert_eq!(&got.0, &want.0);
        for (g, w) in got.1.iter().zip(&want.1) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
        prop_assert!(spa.is_clear());
    }

    /// The accumulator's dense mode (the functional engine's near-dense
    /// kernel: unmasked accumulate + full-width scan-and-wipe drain) is
    /// bit-identical to the masked mode on arbitrary write sequences:
    /// same emitted columns and value bits per drain, same
    /// exact-cancellation drops, same all-zero state afterwards — so
    /// per-unit kernel dispatch can never change a result.
    #[test]
    fn dense_mode_matches_masked_mode_on_arbitrary_writes(
        writes in proptest::collection::vec(
            (0usize..6, 0usize..96, 0usize..5), 0..200),
        rows in 1usize..7,
        width in 1usize..97,
        rounds in 1usize..4,
    ) {
        let mut masked = ops::BlockedSpa::new();
        let mut dense = ops::BlockedSpa::new();
        masked.reset_shape(rows, width);
        dense.reset_shape(rows, width);
        for round in 0..rounds {
            for &(r, c, v) in &writes {
                let (r, c) = (r % rows, c % width);
                // Include exact cancellations (v - 2 spans negatives and
                // zero) and rotate values per round.
                let val = (v as f64 - 2.0) * 0.5 + round as f64;
                masked.accumulate(r, c, val);
                dense.accumulate_dense(r, c, val);
            }
            for r in 0..rows {
                let (mut bc, mut bv) = (Vec::new(), Vec::new());
                let (mut dc, mut dv) = (Vec::new(), Vec::new());
                masked.drain_row(r, 7, &mut bc, &mut bv);
                dense.drain_row_dense(r, 7, &mut dc, &mut dv);
                prop_assert_eq!(&bc, &dc);
                prop_assert_eq!(bv.len(), dv.len());
                for (b, d) in bv.iter().zip(&dv) {
                    prop_assert_eq!(b.to_bits(), d.to_bits());
                }
            }
            prop_assert!(masked.is_clear());
            prop_assert!(dense.is_clear());
        }
    }

    /// The symbolic work counter agrees with the materializing oracle
    /// whenever values cannot cancel.
    #[test]
    fn symbolic_count_work_matches_oracle(
        ta in positive_triplets_strategy(),
        tb in positive_triplets_strategy(),
    ) {
        let a = CsrMatrix::from_triplets(24, 24, &ta).unwrap();
        let b = CsrMatrix::from_triplets(24, 24, &tb).unwrap();
        let fast = count_work(&a, &b).unwrap();
        let oracle = ops::reference::count_work(&a, &b).unwrap();
        prop_assert_eq!(fast, oracle);
    }

    /// The tile column-pointer view agrees with per-element binary search
    /// at every width, on every row.
    #[test]
    fn tile_col_ptr_matches_binary_search(
        triplets in triplets_strategy(),
        tile_cols in 1usize..30,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let view = m.tile_col_ptr(tile_cols);
        prop_assert_eq!(view.n_tiles(), 24usize.div_ceil(tile_cols));
        for r in 0..24 {
            let (lo, hi) = (m.row_ptr()[r], m.row_ptr()[r + 1]);
            let coords = &m.col_indices()[lo..hi];
            for t in 0..view.n_tiles() {
                let n0 = (t * tile_cols) as u32;
                let n1 = ((t + 1) * tile_cols).min(24) as u32;
                let want = (
                    lo + coords.partition_point(|&c| c < n0),
                    lo + coords.partition_point(|&c| c < n1),
                );
                prop_assert_eq!(view.row_tile_range(r, t), want);
            }
        }
    }

    /// The counted two-finger merge agrees with the lazy iterator on the
    /// match count, is symmetric in its operands, and never scans more
    /// coordinates than the two fibers hold.
    #[test]
    fn counted_intersection_matches_iterator(
        mut ca in proptest::collection::vec(0u32..4_000, 0..600),
        mut cb in proptest::collection::vec(0u32..4_000, 0..600),
    ) {
        ca.sort_unstable();
        ca.dedup();
        cb.sort_unstable();
        cb.dedup();
        let va = vec![1.0; ca.len()];
        let vb = vec![1.0; cb.len()];
        let a = Fiber::new(&ca, &va);
        let b = Fiber::new(&cb, &vb);
        let (matches, scanned) = a.intersect_counted(&b);
        prop_assert_eq!(matches, a.intersect(&b).count());
        prop_assert_eq!(b.intersect_counted(&a), (matches, scanned));
        prop_assert!(scanned <= a.len() + b.len());
    }

    /// The tile column-pointer span of a whole tile run equals the union
    /// of its per-tile ranges, and the row-panel slice of the stationary
    /// operand is consistent with per-row sums.
    #[test]
    fn block_slicing_is_consistent(
        triplets in triplets_strategy(),
        tile_cols in 1usize..30,
        t0 in 0usize..25,
        span in 0usize..25,
        r0 in 0usize..25,
        rspan in 0usize..25,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let view = m.tile_col_ptr(tile_cols);
        let n_tiles = view.n_tiles();
        let t0 = t0.min(n_tiles);
        let t1 = (t0 + span).min(n_tiles);
        for r in 0..24 {
            let (lo, hi) = view.row_tile_span(r, t0, t1);
            prop_assert!(lo <= hi);
            let per_tile: usize = (t0..t1)
                .map(|t| {
                    let (a, b) = view.row_tile_range(r, t);
                    b - a
                })
                .sum();
            prop_assert_eq!(hi - lo, per_tile);
        }
        let r0 = r0.min(24);
        let r1 = (r0 + rspan).min(24);
        let per_row: usize = (r0..r1).map(|r| m.row_nnz(r)).sum();
        prop_assert_eq!(m.row_range_nnz(r0, r1), per_row);
    }

    /// COO round-trips its pushes and CSR conversion never loses mass.
    #[test]
    fn coo_value_mass_is_conserved(triplets in triplets_strategy()) {
        let mut coo = CooMatrix::new(24, 24);
        for &(r, c, v) in &triplets {
            coo.push(r, c, v).unwrap();
        }
        let mass: f64 = coo.iter().map(|(_, _, v)| v).sum();
        let m = CsrMatrix::from_coo(&coo);
        let csr_mass: f64 = m.values().iter().sum();
        prop_assert!((mass - csr_mass).abs() < 1e-9);
    }
}

//! Occupancy profiles: the per-row / per-column nonzero-count summary.

/// Per-row and per-column nonzero counts of a sparse matrix.
///
/// The analytical accelerator model in `tailors-sim` never needs nonzero
/// *positions* — only how many nonzeros fall in each coordinate-space tile.
/// Because the paper's tile construction expands along the shared dimension
/// `K` first (§5.2), every tile is a *row panel* spanning all of `K`, and a
/// tile's occupancy is simply a contiguous range-sum over per-row counts.
/// This type precomputes the prefix sums so any panel occupancy is O(1),
/// which is what lets the simulator evaluate 2 M-row tensors exactly.
///
/// # Example
///
/// ```
/// use tailors_tensor::MatrixProfile;
///
/// let p = MatrixProfile::new(4, 4, vec![1, 0, 3, 2], vec![2, 1, 1, 2]);
/// assert_eq!(p.nnz(), 6);
/// assert_eq!(p.row_range_nnz(1, 4), 5); // rows 1..4
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixProfile {
    nrows: usize,
    ncols: usize,
    row_nnz: Vec<u32>,
    col_nnz: Vec<u32>,
    /// Prefix sums over `row_nnz`, length `nrows + 1`.
    row_prefix: Vec<u64>,
    /// Largest single-row count, cached so single-row-panel capacity
    /// checks (the floor of every prescient search) are O(1).
    max_row_nnz: u32,
}

impl MatrixProfile {
    /// Creates a profile from per-row and per-column counts.
    ///
    /// # Panics
    ///
    /// Panics if the count vectors do not match the dimensions, or if the row
    /// and column totals disagree (they must both equal `nnz`).
    pub fn new(nrows: usize, ncols: usize, row_nnz: Vec<u32>, col_nnz: Vec<u32>) -> Self {
        assert_eq!(row_nnz.len(), nrows, "row_nnz length must equal nrows");
        assert_eq!(col_nnz.len(), ncols, "col_nnz length must equal ncols");
        let row_total: u64 = row_nnz.iter().map(|&x| x as u64).sum();
        let col_total: u64 = col_nnz.iter().map(|&x| x as u64).sum();
        assert_eq!(row_total, col_total, "row and column totals must agree");
        let mut row_prefix = Vec::with_capacity(nrows + 1);
        let mut acc = 0u64;
        row_prefix.push(0);
        let mut max_row_nnz = 0u32;
        for &n in &row_nnz {
            acc += n as u64;
            row_prefix.push(acc);
            max_row_nnz = max_row_nnz.max(n);
        }
        MatrixProfile {
            nrows,
            ncols,
            row_nnz,
            col_nnz,
            row_prefix,
            max_row_nnz,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total number of nonzeros.
    pub fn nnz(&self) -> u64 {
        *self.row_prefix.last().expect("prefix is non-empty")
    }

    /// Per-row nonzero counts.
    pub fn row_nnz(&self) -> &[u32] {
        &self.row_nnz
    }

    /// Per-column nonzero counts.
    pub fn col_nnz(&self) -> &[u32] {
        &self.col_nnz
    }

    /// Largest single-row count — the maximum occupancy of a one-row
    /// panel, cached at construction. O(1).
    pub fn max_row_nnz(&self) -> u32 {
        self.max_row_nnz
    }

    /// Fraction of the coordinate space that is zero (Table 2's "Sparsity").
    pub fn sparsity(&self) -> f64 {
        let size = self.nrows as f64 * self.ncols as f64;
        if size == 0.0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / size
        }
    }

    /// Density (`1 - sparsity`).
    pub fn density(&self) -> f64 {
        1.0 - self.sparsity()
    }

    /// Number of nonzeros in rows `lo..hi` — the occupancy of the row panel
    /// `[lo, hi)`. O(1) via prefix sums.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > nrows`.
    pub fn row_range_nnz(&self, lo: usize, hi: usize) -> u64 {
        assert!(lo <= hi && hi <= self.nrows, "row range out of bounds");
        self.row_prefix[hi] - self.row_prefix[lo]
    }

    /// The row-count prefix sums (`nrows + 1` entries, `prefix[i]` =
    /// nonzeros in rows `0..i`). The raw array behind
    /// [`MatrixProfile::row_range_nnz`], exposed so per-panel sweeps can
    /// walk it directly.
    pub fn row_prefix(&self) -> &[u64] {
        &self.row_prefix
    }

    /// Occupancies of consecutive `rows_per_tile`-row panels, in panel
    /// order (the last panel may be ragged). A tight walk over the prefix
    /// sums — no per-panel bounds checks or index arithmetic beyond one
    /// subtraction — which is what lets the analytical model sweep
    /// near-per-row tilings (`rows_per_tile` of a few) over million-row
    /// tensors inside its hot path.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_tile == 0`.
    pub fn panel_occupancies(&self, rows_per_tile: usize) -> impl Iterator<Item = u64> + '_ {
        assert!(rows_per_tile > 0, "rows_per_tile must be positive");
        // Prefix values at panel boundaries: every rows_per_tile-th entry
        // (the whole panels), then the final total once more if a ragged
        // tail panel remains.
        let ragged = !self.nrows.is_multiple_of(rows_per_tile);
        let bounds = self
            .row_prefix
            .iter()
            .skip(rows_per_tile)
            .step_by(rows_per_tile)
            .copied()
            .chain(ragged.then(|| self.nnz()));
        let mut prev = 0u64;
        bounds.map(move |b| {
            let occ = b - prev;
            prev = b;
            occ
        })
    }

    /// Exact count of effectual scalar multiplications for `Z = A·Aᵀ`.
    ///
    /// `Z[m][n] = Σ_k A[m][k]·A[n][k]`, so every column `k` with `c_k`
    /// nonzeros contributes `c_k²` multiplies: the result is `Σ_k c_k²`.
    pub fn mults_a_at(&self) -> u128 {
        self.col_nnz
            .iter()
            .map(|&c| (c as u128) * (c as u128))
            .sum()
    }

    /// The profile of the transpose (rows and columns swapped).
    pub fn transpose(&self) -> MatrixProfile {
        MatrixProfile::new(
            self.ncols,
            self.nrows,
            self.col_nnz.clone(),
            self.row_nnz.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn prefix_sums_give_panel_occupancy() {
        let p = MatrixProfile::new(5, 3, vec![2, 0, 1, 4, 3], vec![4, 3, 3]);
        assert_eq!(p.nnz(), 10);
        assert_eq!(p.row_range_nnz(0, 5), 10);
        assert_eq!(p.row_range_nnz(0, 0), 0);
        assert_eq!(p.row_range_nnz(2, 4), 5);
        assert_eq!(p.row_range_nnz(4, 5), 3);
    }

    #[test]
    #[should_panic(expected = "row and column totals")]
    fn mismatched_totals_panic() {
        let _ = MatrixProfile::new(2, 2, vec![1, 1], vec![3, 0]);
    }

    #[test]
    fn panel_occupancies_match_range_sums() {
        let p = MatrixProfile::new(5, 3, vec![2, 0, 1, 4, 3], vec![4, 3, 3]);
        for rpt in 1..=6 {
            let direct: Vec<u64> = p.panel_occupancies(rpt).collect();
            let expected: Vec<u64> = (0..5usize.div_ceil(rpt))
                .map(|i| p.row_range_nnz(i * rpt, ((i + 1) * rpt).min(5)))
                .collect();
            assert_eq!(direct, expected, "rows_per_tile={rpt}");
            assert_eq!(direct.iter().sum::<u64>(), p.nnz());
        }
        let empty = MatrixProfile::new(0, 0, vec![], vec![]);
        assert_eq!(empty.panel_occupancies(3).count(), 0);
        assert_eq!(p.row_prefix(), &[0, 2, 2, 3, 7, 10]);
    }

    #[test]
    fn mults_a_at_matches_reference() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
                (2, 0, 1.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let p = a.profile();
        // col counts: [2, 2, 1] -> 4 + 4 + 1 = 9
        assert_eq!(p.mults_a_at(), 9);
        // Count by brute force: for each k, (nnz in col k)^2.
        let t = a.transpose();
        let brute: u128 = (0..a.ncols()).map(|k| (t.row_nnz(k) as u128).pow(2)).sum();
        assert_eq!(p.mults_a_at(), brute);
    }

    #[test]
    fn transpose_swaps_counts() {
        let p = MatrixProfile::new(2, 3, vec![2, 1], vec![1, 1, 1]);
        let t = p.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.row_nnz(), &[1, 1, 1]);
        assert_eq!(t.col_nnz(), &[2, 1]);
    }

    #[test]
    fn sparsity_and_density() {
        let p = MatrixProfile::new(10, 10, vec![1; 10], vec![1; 10]);
        assert!((p.sparsity() - 0.9).abs() < 1e-12);
        assert!((p.density() - 0.1).abs() < 1e-12);
    }
}

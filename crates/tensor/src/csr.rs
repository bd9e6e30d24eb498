//! Compressed sparse row (CSR) matrix format.

use crate::fiber::Fiber;
use crate::{CooMatrix, MatrixProfile, TensorError};

/// A sparse matrix in compressed sparse row format.
///
/// Within each row, column indices are strictly increasing. This is the
/// workhorse format of the reproduction: each row is a *fiber* in the
/// paper's terminology (a sorted stream of (coordinate, value) pairs), so a
/// CSR matrix doubles as a two-level compressed-sparse-fiber tensor, the
/// format ExTensor stores operands in.
///
/// # Example
///
/// ```
/// use tailors_tensor::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0)]).unwrap();
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.row(0).coords(), &[0, 2]);
/// assert_eq!(a.get(2, 1), Some(3.0));
/// assert_eq!(a.get(1, 1), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointer array, length `nrows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<u32>,
    /// Nonzero values, parallel to `col_idx`.
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds a CSR matrix from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidCsr`] if the row-pointer array has the
    /// wrong length, is non-monotonic, disagrees with the index array length,
    /// or if any row's column indices are out of bounds or not strictly
    /// increasing.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self, TensorError> {
        if row_ptr.len() != nrows + 1 {
            return Err(TensorError::InvalidCsr("row_ptr length must be nrows + 1"));
        }
        if row_ptr[0] != 0 || *row_ptr.last().expect("non-empty") != col_idx.len() {
            return Err(TensorError::InvalidCsr(
                "row_ptr must start at 0 and end at nnz",
            ));
        }
        if col_idx.len() != vals.len() {
            return Err(TensorError::InvalidCsr(
                "col_idx and vals must have equal length",
            ));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(TensorError::InvalidCsr("row_ptr must be non-decreasing"));
            }
        }
        for r in 0..nrows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(TensorError::InvalidCsr(
                        "column indices must be strictly increasing within a row",
                    ));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(TensorError::InvalidCsr("column index out of bounds"));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Builds a CSR matrix from buffers already in canonical form (sorted,
    /// strictly increasing columns per row, consistent row pointers).
    ///
    /// Used by kernels whose construction guarantees canonical output (the
    /// SPA multiply emits sorted, deduplicated rows); invariants are checked
    /// in debug builds only.
    pub(crate) fn from_sorted_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(col_idx.len(), vals.len());
        debug_assert_eq!(*row_ptr.last().expect("non-empty"), col_idx.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..nrows).all(|r| {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.last().is_none_or(|&c| (c as usize) < ncols)
        }));
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Builds a CSR matrix from a COO matrix, sorting entries and summing
    /// duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        // Counting sort by row, then sort each row's slice by column.
        let mut counts = vec![0usize; nrows + 1];
        for (r, _, _) in coo.iter() {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let total = counts[nrows];
        let mut cols = vec![0u32; total];
        let mut vals = vec![0f64; total];
        let mut cursor = counts.clone();
        for (r, c, v) in coo.iter() {
            let at = cursor[r];
            cols[at] = c as u32;
            vals[at] = v;
            cursor[r] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut out_cols = Vec::with_capacity(total);
        let mut out_vals = Vec::with_capacity(total);
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            scratch.clear();
            scratch.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = scratch.iter().copied().peekable();
            while let Some((c, mut v)) = iter.next() {
                while let Some(&(c2, v2)) = iter.peek() {
                    if c2 == c {
                        v += v2;
                        iter.next();
                    } else {
                        break;
                    }
                }
                out_cols.push(c);
                out_vals.push(v);
            }
            row_ptr.push(out_cols.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx: out_cols,
            vals: out_vals,
        }
    }

    /// Builds a CSR matrix directly from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CoordOutOfBounds`] if any triplet lies outside
    /// the shape.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, TensorError> {
        let mut coo = CooMatrix::with_capacity(nrows, ncols, triplets.len());
        for &(r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        Ok(Self::from_coo(&coo))
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of structurally stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of the coordinate space that is *zero*, as in the paper's
    /// Table 2 (e.g. `0.9999` for a 99.99 %-sparse tensor).
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

    /// The fiber (sorted coordinate/value stream) for row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.nrows()`.
    pub fn row(&self, r: usize) -> Fiber<'_> {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        Fiber::new(&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of nonzeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.nrows()`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Number of nonzeros in the row panel `r0..r1` — an O(1) slice of the
    /// stationary operand (adjacent row-pointer difference), matching
    /// [`crate::MatrixProfile::row_range_nnz`] without building a profile.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.nrows()`.
    pub fn row_range_nnz(&self, r0: usize, r1: usize) -> usize {
        assert!(r0 <= r1 && r1 <= self.nrows, "row range out of bounds");
        self.row_ptr[r1] - self.row_ptr[r0]
    }

    /// Looks up the value at `(r, c)`, or `None` if structurally zero or out
    /// of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r >= self.nrows || c >= self.ncols {
            return None;
        }
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        let slice = &self.col_idx[lo..hi];
        slice
            .binary_search(&(c as u32))
            .ok()
            .map(|i| self.vals[lo + i])
    }

    /// Iterates over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            self.col_idx[lo..hi]
                .iter()
                .zip(&self.vals[lo..hi])
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// The paper's SpMSpM workload is `Z = A·Aᵀ`; the functional engine uses
    /// this to materialize `B = Aᵀ`.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        for (r, c, v) in self.iter() {
            let at = cursor[c];
            col_idx[at] = r as u32;
            vals[at] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: counts,
            col_idx,
            vals,
        }
    }

    /// Extracts the per-row / per-column occupancy profile used by the
    /// analytical accelerator model.
    pub fn profile(&self) -> MatrixProfile {
        let mut col_nnz = vec![0u32; self.ncols];
        for &c in &self.col_idx {
            col_nnz[c as usize] += 1;
        }
        // Row counts fall directly out of adjacent row-pointer differences.
        let row_nnz: Vec<u32> = self
            .row_ptr
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        MatrixProfile::new(self.nrows, self.ncols, row_nnz, col_nnz)
    }

    /// Precomputes, for a uniform grid of column tiles of width
    /// `tile_cols`, where each row's nonzeros cross every tile boundary —
    /// a CSC-flavored column-pointer view over the CSR layout.
    ///
    /// A tiled traversal then slices row `r` restricted to tile `t` in O(1)
    /// via [`TileColPtr::row_tile_range`] instead of binary-searching the
    /// row per element. Construction is one pass over the nonzeros.
    ///
    /// The view stores `nrows × (n_tiles + 1)` indices — callers choosing
    /// very narrow tiles on very wide matrices should weigh that against
    /// the matrix's own footprint (the functional engine falls back to
    /// per-element range searches when the view would dominate).
    ///
    /// # Panics
    ///
    /// Panics if `tile_cols == 0`.
    pub fn tile_col_ptr(&self, tile_cols: usize) -> TileColPtr {
        assert!(tile_cols > 0, "tile width must be positive");
        let n_tiles = self.ncols.div_ceil(tile_cols);
        let stride = n_tiles + 1;
        let mut ptr = vec![0usize; self.nrows * stride];
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let base = r * stride;
            ptr[base] = lo;
            let mut tile = 0usize;
            for (i, &c) in self.col_idx[lo..hi].iter().enumerate() {
                let t = c as usize / tile_cols;
                while tile < t {
                    tile += 1;
                    ptr[base + tile] = lo + i;
                }
            }
            while tile < n_tiles {
                tile += 1;
                ptr[base + tile] = hi;
            }
        }
        TileColPtr {
            n_tiles,
            stride,
            ptr,
        }
    }

    /// A stable 64-bit content hash of the matrix: shape, structure, and
    /// exact value bit patterns.
    ///
    /// Two matrices hash equal iff they are `==` (up to the usual 64-bit
    /// collision caveat), and the hash is *stable*: it depends only on the
    /// matrix contents (FNV-1a over a fixed little-endian serialization),
    /// never on allocation addresses, hasher seeds, process, or platform —
    /// so it can key long-lived caches (the serving layer keys its profile
    /// and execution-plan tiers by it) and be compared across runs.
    ///
    /// Cost is one linear pass over the stored structure; callers that
    /// look up the same matrix repeatedly should hash once and reuse the
    /// key (see `tailors-serve`'s `MatrixId`).
    pub fn content_hash(&self) -> u64 {
        // FNV-1a, 64-bit. Explicit constants rather than `DefaultHasher`:
        // the std hasher is seeded per-process and its algorithm is not
        // stability-guaranteed, either of which would silently break
        // cross-run cache keys.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.nrows as u64).to_le_bytes());
        eat(&(self.ncols as u64).to_le_bytes());
        eat(&(self.nnz() as u64).to_le_bytes());
        for &p in &self.row_ptr {
            eat(&(p as u64).to_le_bytes());
        }
        for &c in &self.col_idx {
            eat(&c.to_le_bytes());
        }
        for &v in &self.vals {
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }

    /// Raw row-pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column-index array.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw value array, parallel to [`CsrMatrix::col_indices`].
    pub fn values(&self) -> &[f64] {
        &self.vals
    }
}

/// Column-tile pointers for one matrix at one tile width; see
/// [`CsrMatrix::tile_col_ptr`].
///
/// # Example
///
/// ```
/// use tailors_tensor::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(
///     2,
///     8,
///     &[(0, 1, 1.0), (0, 4, 2.0), (0, 6, 3.0), (1, 3, 4.0)],
/// )
/// .unwrap();
/// let view = m.tile_col_ptr(4); // tiles: columns [0,4) and [4,8)
/// let (lo, hi) = view.row_tile_range(0, 1);
/// assert_eq!(&m.col_indices()[lo..hi], &[4, 6]);
/// assert_eq!(view.row_tile_range(1, 1), (4, 4)); // empty slice
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileColPtr {
    n_tiles: usize,
    stride: usize,
    /// Row-major `[row][tile_boundary]` indices into the matrix's
    /// `col_idx` / `vals` arrays, length `nrows * (n_tiles + 1)`.
    ptr: Vec<usize>,
}

impl TileColPtr {
    /// Number of column tiles the view was built for.
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// Absolute `(start, end)` range into the matrix's nonzero arrays for
    /// row `row` restricted to column tile `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `tile` is out of range.
    #[inline]
    pub fn row_tile_range(&self, row: usize, tile: usize) -> (usize, usize) {
        assert!(tile < self.n_tiles, "tile index out of range");
        let base = row * self.stride;
        (self.ptr[base + tile], self.ptr[base + tile + 1])
    }

    /// Absolute `(start, end)` range for row `row` restricted to the run of
    /// column tiles `t0..t1` — an O(1) slice of a whole execution-plan
    /// column block of the streamed operand (tile boundaries are
    /// precomputed, so a multi-tile span costs the same two loads as a
    /// single tile). An empty run (`t0 == t1`) yields an empty range.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, `t0 > t1`, or `t1 > self.n_tiles()`.
    #[inline]
    pub fn row_tile_span(&self, row: usize, t0: usize, t1: usize) -> (usize, usize) {
        assert!(t0 <= t1 && t1 <= self.n_tiles, "tile span out of range");
        let base = row * self.stride;
        (self.ptr[base + t0], self.ptr[base + t1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (2, 3, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_sorts_rows() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0)]).unwrap();
        assert_eq!(m.row(0).coords(), &[0, 2]);
        assert_eq!(m.row(0).values(), &[2.0, 1.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), Some(3.5));
    }

    #[test]
    fn get_and_iter_agree() {
        let m = small();
        for (r, c, v) in m.iter() {
            assert_eq!(m.get(r, c), Some(v));
        }
        assert_eq!(m.iter().count(), m.nnz());
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.get(99, 0), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.nrows(), m.ncols());
        assert_eq!(t.ncols(), m.nrows());
        assert_eq!(t.nnz(), m.nnz());
        for (r, c, v) in m.iter() {
            assert_eq!(t.get(c, r), Some(v));
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn sparsity_matches_definition() {
        let m = small();
        let expected = 1.0 - 5.0 / 12.0;
        assert!((m.sparsity() - expected).abs() < 1e-12);
        assert!((m.density() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn profile_counts_rows_and_cols() {
        let m = small();
        let p = m.profile();
        assert_eq!(p.row_nnz(), &[2, 1, 2]);
        assert_eq!(p.col_nnz(), &[1, 1, 1, 2]);
        assert_eq!(p.nnz(), 5);
    }

    #[test]
    fn from_parts_validates() {
        // Bad row_ptr length.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Non-monotonic row_ptr.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Unsorted columns.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        // A valid one.
        let ok = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]);
        assert!(ok.is_ok());
    }

    #[test]
    fn from_dense_skips_zeros() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(1, 0), Some(2.0));
    }

    #[test]
    fn tile_col_ptr_matches_partition_point() {
        let m = crate::gen::GenSpec::uniform(40, 64, 400)
            .seed(11)
            .generate();
        for tile_cols in [1usize, 3, 16, 64, 100] {
            let view = m.tile_col_ptr(tile_cols);
            let n_tiles = 64usize.div_ceil(tile_cols);
            assert_eq!(view.n_tiles(), n_tiles);
            for r in 0..m.nrows() {
                let (lo, hi) = (m.row_ptr()[r], m.row_ptr()[r + 1]);
                let coords = &m.col_indices()[lo..hi];
                for t in 0..n_tiles {
                    let n0 = (t * tile_cols) as u32;
                    let n1 = ((t + 1) * tile_cols).min(64) as u32;
                    let expect_lo = lo + coords.partition_point(|&c| c < n0);
                    let expect_hi = lo + coords.partition_point(|&c| c < n1);
                    assert_eq!(
                        view.row_tile_range(r, t),
                        (expect_lo, expect_hi),
                        "row {r} tile {t} width {tile_cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_range_nnz_matches_row_sums() {
        let m = small();
        for r0 in 0..=m.nrows() {
            for r1 in r0..=m.nrows() {
                let expect: usize = (r0..r1).map(|r| m.row_nnz(r)).sum();
                assert_eq!(m.row_range_nnz(r0, r1), expect, "rows {r0}..{r1}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn row_range_nnz_rejects_out_of_bounds() {
        let _ = small().row_range_nnz(0, 99);
    }

    #[test]
    fn row_tile_span_concatenates_tile_ranges() {
        let m = crate::gen::GenSpec::uniform(30, 64, 300).seed(9).generate();
        let view = m.tile_col_ptr(10);
        let n_tiles = view.n_tiles();
        for r in 0..m.nrows() {
            for t0 in 0..=n_tiles {
                for t1 in t0..=n_tiles {
                    let (lo, hi) = view.row_tile_span(r, t0, t1);
                    assert!(lo <= hi);
                    // The span equals the union of its per-tile ranges.
                    if t0 < t1 {
                        assert_eq!(lo, view.row_tile_range(r, t0).0);
                        assert_eq!(hi, view.row_tile_range(r, t1 - 1).1);
                    } else {
                        assert_eq!(lo, hi);
                    }
                }
            }
        }
    }

    #[test]
    fn tile_col_ptr_handles_empty_matrix() {
        let m = CsrMatrix::new(3, 10);
        let view = m.tile_col_ptr(4);
        assert_eq!(view.n_tiles(), 3);
        for r in 0..3 {
            for t in 0..3 {
                assert_eq!(view.row_tile_range(r, t), (0, 0));
            }
        }
        // Zero columns ⇒ zero tiles, matching `ncols.div_ceil(w)`.
        assert_eq!(CsrMatrix::new(4, 0).tile_col_ptr(8).n_tiles(), 0);
        assert_eq!(CsrMatrix::new(0, 0).tile_col_ptr(1).n_tiles(), 0);
    }

    #[test]
    fn profile_row_counts_come_from_row_ptr() {
        let m = small();
        // One-pass derivation must agree with per-row queries.
        let p = m.profile();
        let per_row: Vec<u32> = (0..m.nrows()).map(|r| m.row_nnz(r) as u32).collect();
        assert_eq!(p.row_nnz(), per_row.as_slice());
    }

    #[test]
    fn content_hash_tracks_equality_and_is_pinned() {
        let m = small();
        assert_eq!(m.content_hash(), m.clone().content_hash());
        // Structure-only change.
        let moved = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 1, 4.0), // was (2, 2, 4.0)
                (2, 3, 5.0),
            ],
        )
        .unwrap();
        assert_ne!(m.content_hash(), moved.content_hash());
        // Value-only change (same structure).
        let revalued = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.5),
                (2, 3, 5.0),
            ],
        )
        .unwrap();
        assert_ne!(m.content_hash(), revalued.content_hash());
        // Shape-only change (same triplets, wider matrix).
        let wider = CsrMatrix::from_triplets(3, 5, &m.iter().collect::<Vec<_>>()).unwrap();
        assert_ne!(m.content_hash(), wider.content_hash());
        // Pinned literal: this hash keys on-disk and cross-run caches, so a
        // change here is a cache-format break and must be deliberate.
        assert_eq!(small().content_hash(), 0x05fc_2914_4165_d3d1);
    }

    #[test]
    fn empty_matrix_is_consistent() {
        let m = CsrMatrix::new(4, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.sparsity(), 1.0);
        assert_eq!(m.transpose().nnz(), 0);
        assert_eq!(m.row(3).len(), 0);
    }
}

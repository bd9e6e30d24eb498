//! Coordinate-list (COO) sparse matrix format.

use crate::TensorError;

/// A sparse matrix in coordinate (triplet) format.
///
/// COO is the natural output format for the synthetic generators in
/// [`crate::gen`] and the natural input format for building a
/// [`crate::CsrMatrix`]. Entries may be unsorted and may contain duplicates;
/// conversion to CSR sorts and sums duplicates.
///
/// # Example
///
/// ```
/// use tailors_tensor::{CooMatrix, CsrMatrix};
///
/// let mut coo = CooMatrix::new(2, 3);
/// coo.push(0, 1, 2.0).unwrap();
/// coo.push(1, 2, 3.0).unwrap();
/// coo.push(0, 1, 1.0).unwrap(); // duplicate: summed during CSR conversion
///
/// let csr = CsrMatrix::from_coo(&coo);
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.get(0, 1), Some(3.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty COO matrix with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension exceeds `u32::MAX`, the widest coordinate
    /// this crate supports.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize && ncols <= u32::MAX as usize,
            "matrix dimensions must fit in u32"
        );
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with capacity reserved for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        let mut m = Self::new(nrows, ncols);
        m.rows.reserve(cap);
        m.cols.reserve(cap);
        m.vals.reserve(cap);
        m
    }

    /// Appends a nonzero entry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CoordOutOfBounds`] if `(row, col)` lies outside
    /// the matrix shape.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<(), TensorError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(TensorError::CoordOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(val);
        Ok(())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries, including any duplicates.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Iterates over `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    /// Extends the matrix with triplets.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds (use [`CooMatrix::push`] for
    /// a fallible variant).
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("coordinate out of bounds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iter_roundtrip() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(2, 3, -2.5).unwrap();
        let triplets: Vec<_> = coo.iter().collect();
        assert_eq!(triplets, vec![(0, 0, 1.0), (2, 3, -2.5)]);
        assert_eq!(coo.len(), 2);
        assert!(!coo.is_empty());
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        let err = coo.push(2, 0, 1.0).unwrap_err();
        assert_eq!(
            err,
            TensorError::CoordOutOfBounds {
                row: 2,
                col: 0,
                nrows: 2,
                ncols: 2
            }
        );
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.is_empty());
    }

    #[test]
    fn extend_accepts_triplets() {
        let mut coo = CooMatrix::new(2, 2);
        coo.extend(vec![(0, 1, 1.0), (1, 0, 2.0)]);
        assert_eq!(coo.len(), 2);
    }

    #[test]
    fn empty_matrix_properties() {
        let coo = CooMatrix::new(5, 7);
        assert_eq!(coo.nrows(), 5);
        assert_eq!(coo.ncols(), 7);
        assert!(coo.is_empty());
        assert_eq!(coo.iter().count(), 0);
    }

    #[test]
    fn display_of_error_is_informative() {
        let err = TensorError::CoordOutOfBounds {
            row: 9,
            col: 1,
            nrows: 3,
            ncols: 3,
        };
        assert!(err.to_string().contains("(9, 1)"));
    }
}

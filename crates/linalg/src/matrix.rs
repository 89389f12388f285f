//! Dense row-major matrix type, owned or borrowed.

use crate::{LinalgError, Result};
use std::ops::Range;

/// A dense `f64` matrix with row-major storage.
///
/// Rows are contiguous, which keeps the Cholesky inner loops (dot products of
/// row prefixes) sequential in memory, and makes a matrix the block of points
/// a Gaussian process reads: `n x d`, one point per row. The storage `S` is
/// an owned `Vec<f64>` (the default) or a borrowed `&[f64]`, a
/// [`MatrixView`] of some of another matrix's rows, which
/// [`Matrix::view`] hands out without copying them. The row count is
/// explicit, so a block of zero-width points still has its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<S = Vec<f64>> {
    rows: usize,
    cols: usize,
    data: S,
}

/// Contiguous rows of a [`Matrix`], borrowed.
pub type MatrixView<'a> = Matrix<&'a [f64]>;

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row-major data. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Matrix { rows, cols, data }
    }

    /// A `cols`-wide matrix with one row per item of `rows`, copied in order.
    /// Fails with [`LinalgError::DimensionMismatch`] at the first row whose
    /// length is not `cols`.
    pub fn from_rows<R: AsRef<[f64]>>(
        cols: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<Self> {
        let rows = rows.into_iter();
        let mut m = Matrix { rows: 0, cols, data: Vec::with_capacity(rows.size_hint().0 * cols) };
        for row in rows {
            m.push_row(row.as_ref())?;
        }
        Ok(m)
    }

    /// Appends `row` as the last row. Fails with
    /// [`LinalgError::DimensionMismatch`], leaving the matrix unchanged, when
    /// its length is not the column count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.cols {
            return Err(LinalgError::DimensionMismatch { expected: self.cols, found: row.len() });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw mutable row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Symmetrizes in place: `A <- (A + A^T) / 2`. Useful before factorizing
    /// kernels assembled with floating-point asymmetry.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Adds `value` to every diagonal entry.
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }
}

impl<S: AsRef<[f64]>> Matrix<S> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data.as_ref()[i * self.cols..(i + 1) * self.cols]
    }

    /// The rows in order, each as a slice (zero-width rows included).
    pub fn iter_rows(&self) -> impl DoubleEndedIterator<Item = &[f64]> + ExactSizeIterator + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Rows `rows` as a borrowed block, without copying them. Panics if the
    /// range is out of bounds, as slicing does.
    pub fn view(&self, rows: Range<usize>) -> MatrixView<'_> {
        assert!(rows.start <= rows.end && rows.end <= self.rows, "rows {rows:?} of {}", self.rows);
        let data = &self.data.as_ref()[rows.start * self.cols..rows.end * self.cols];
        Matrix { rows: rows.len(), cols: self.cols, data }
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        self.data.as_ref()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch { expected: self.cols, found: x.len() });
        }
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            out[i] = crate::vector::dot(self.row(i), x);
        }
        Ok(out)
    }

    /// Matrix-matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order: stream over contiguous rows of `other` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for j in 0..orow.len() {
                    out_row[j] += a * orow[j];
                }
            }
        }
        Ok(out)
    }

    /// Checks whether all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|v| v.is_finite())
    }
}

impl<S: AsRef<[f64]>> std::ops::Index<(usize, usize)> for Matrix<S> {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data.as_ref()[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetrize_produces_symmetric_matrix() {
        let mut a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        a.symmetrize();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }

    #[test]
    fn rows_push_view_and_reject_a_wrong_width() {
        let mut m = Matrix::from_rows(2, [vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        m.push_row(&[5.0, 6.0]).unwrap();
        assert_eq!(m, Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let want = Err(LinalgError::DimensionMismatch { expected: 2, found: 3 });
        assert_eq!(m.push_row(&[7.0, 8.0, 9.0]), want);
        assert_eq!(m.rows(), 3, "a rejected row leaves the matrix unchanged");
        assert_eq!(Matrix::from_rows(2, [vec![1.0, 2.0], vec![3.0]]).map(|_| ()), Err(
            LinalgError::DimensionMismatch { expected: 2, found: 1 }
        ));
        let v = m.view(1..3);
        assert_eq!((v.rows(), v.cols()), (2, 2));
        assert_eq!(v.iter_rows().collect::<Vec<_>>(), [&[3.0, 4.0][..], &[5.0, 6.0]]);
        assert_eq!(v[(1, 0)], 5.0);
        assert_eq!(v.view(1..2).row(0), &[5.0, 6.0]);
        assert_eq!(m.view(3..3).rows(), 0);
    }

    #[test]
    fn zero_width_blocks_keep_their_rows() {
        let mut m = Matrix::from_rows(0, [Vec::new(), Vec::new()]).unwrap();
        m.push_row(&[]).unwrap();
        assert_eq!((m.rows(), m.cols()), (3, 0));
        assert_eq!(m.iter_rows().len(), 3);
        assert!(m.iter_rows().all(|r| r.is_empty()));
        let v = m.view(1..3);
        assert_eq!((v.rows(), v.cols(), v.row(1).len()), (2, 0, 0));
        assert_eq!(m.transpose().rows(), 0);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn add_diagonal_shifts_trace_only() {
        let mut a = Matrix::zeros(3, 3);
        a.add_diagonal(2.5);
        assert_eq!(a[(0, 0)], 2.5);
        assert_eq!(a[(1, 1)], 2.5);
        assert_eq!(a[(2, 2)], 2.5);
        assert_eq!(a[(0, 1)], 0.0);
    }
}

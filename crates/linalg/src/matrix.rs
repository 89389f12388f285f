//! Dense row-major matrix type.

use crate::{LinalgError, Result};

/// A dense `f64` matrix with row-major storage.
///
/// Rows are contiguous, which keeps the Cholesky inner loops (dot products of
/// row prefixes) sequential in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

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

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

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
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
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

    /// Removes row `i` and column `i` (used by leave-one-out GP updates).
    pub fn without_row_col(&self, idx: usize) -> Matrix {
        assert!(self.is_square() && idx < self.rows);
        let n = self.rows - 1;
        Matrix::from_fn(n, n, |i, j| {
            let si = if i < idx { i } else { i + 1 };
            let sj = if j < idx { j } else { j + 1 };
            self[(si, sj)]
        })
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Checks whether all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
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

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
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
    fn identity_matvec_is_noop() {
        let m = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.matvec(&x).unwrap(), x);
    }

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
    fn without_row_col_removes_correct_entries() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let b = a.without_row_col(1);
        assert_eq!(b.rows(), 2);
        assert_eq!(b[(0, 0)], 0.0);
        assert_eq!(b[(0, 1)], 2.0);
        assert_eq!(b[(1, 0)], 6.0);
        assert_eq!(b[(1, 1)], 8.0);
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
    fn add_diagonal_shifts_trace_only() {
        let mut a = Matrix::zeros(3, 3);
        a.add_diagonal(2.5);
        assert_eq!(a[(0, 0)], 2.5);
        assert_eq!(a[(1, 1)], 2.5);
        assert_eq!(a[(2, 2)], 2.5);
        assert_eq!(a[(0, 1)], 0.0);
    }
}

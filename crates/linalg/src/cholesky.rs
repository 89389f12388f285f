//! Cholesky factorization of symmetric positive-definite matrices, and the
//! solves the Gaussian-process stack builds on.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L L^T`.
///
/// Produced by [`Cholesky::factor`] (strict) or
/// [`Cholesky::factor_with_jitter`] (adds an escalating diagonal jitter, the
/// standard trick for kernel matrices that are positive definite only up to
/// floating-point error).
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that was added to the diagonal before the factorization
    /// succeeded (0.0 for a strict factorization).
    jitter: f64,
}

impl Cholesky {
    /// Factors `a` without jitter. Fails on non-square, non-finite, or
    /// non-positive-definite input.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let mut l = Matrix::zeros(0, 0);
        factor_into(&mut l, a, 0.0)?;
        Ok(Cholesky { l, jitter: 0.0 })
    }

    /// Factors `a`, escalating diagonal jitter from `1e-10 * mean(diag)` by
    /// factors of 10 until the factorization succeeds or the jitter exceeds
    /// `1e-2 * mean(diag)`: [`Cholesky::refactor_with_jitter`] into fresh
    /// storage.
    ///
    /// Jitter can only rescue a matrix that is positive definite up to
    /// floating-point error; a non-square or non-finite input fails
    /// identically at every jitter level and is rejected after the first
    /// attempt instead of paying up to 9 more O(n³) factorizations.
    pub fn factor_with_jitter(a: &Matrix) -> Result<Self> {
        let mut c = Cholesky { l: Matrix::zeros(0, 0), jitter: 0.0 };
        c.refactor_with_jitter(a)?;
        Ok(c)
    }

    /// Replaces this factor with [`Cholesky::factor_with_jitter`]'s factor
    /// of `a`, bit for bit, written into this factor's storage when it has
    /// `a`'s shape: a caller that factors many same-sized matrices in turn
    /// allocates once.
    ///
    /// Every attempt writes every entry it reads before reading it, and a
    /// success leaves nothing of an earlier attempt or factor behind: the
    /// lower triangle is this attempt's, the strict upper triangle zero. On
    /// failure the factor is empty (dimension 0), so nothing a failed
    /// attempt wrote reaches a later solve.
    pub fn refactor_with_jitter(&mut self, a: &Matrix) -> Result<()> {
        let result = self.escalate(a).0;
        if result.is_err() {
            self.l = Matrix::zeros(0, 0);
            self.jitter = 0.0;
        }
        result
    }

    /// The jitter ladder of [`Cholesky::refactor_with_jitter`], exposing how
    /// many attempts were spent — the unit that pins the early-return
    /// contract.
    fn escalate(&mut self, a: &Matrix) -> (Result<()>, usize) {
        let mut attempts = 1;
        self.jitter = 0.0;
        match factor_into(&mut self.l, a, 0.0) {
            Ok(()) => return (Ok(()), attempts),
            Err(e @ (LinalgError::NonFinite | LinalgError::NotSquare { .. })) => {
                return (Err(e), attempts)
            }
            Err(_) => {}
        }
        let n = a.rows();
        let mean_diag =
            (0..n).map(|i| a[(i, i)].abs()).sum::<f64>().max(f64::MIN_POSITIVE) / n as f64;
        let mut jitter = 1e-10 * mean_diag;
        let max_jitter = 1e-2 * mean_diag;
        loop {
            attempts += 1;
            match factor_into(&mut self.l, a, jitter) {
                Ok(()) => {
                    self.jitter = jitter;
                    return (Ok(()), attempts);
                }
                Err(e) => {
                    if jitter >= max_jitter {
                        return (Err(e), attempts);
                    }
                    jitter *= 10.0;
                }
            }
        }
    }

    /// Wraps an existing lower-triangular factor `L` (as produced by a prior
    /// factorization) so the solve routines can be reused without refactoring.
    ///
    /// The caller is responsible for `l` actually being a valid lower
    /// Cholesky factor (square, positive diagonal); this is checked with a
    /// debug assertion only.
    pub fn from_factor(l: Matrix) -> Self {
        debug_assert!(l.is_square());
        debug_assert!((0..l.rows()).all(|i| l[(i, i)] > 0.0));
        Cholesky { l, jitter: 0.0 }
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Jitter added to succeed (0.0 if none).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Rejects a right-hand side whose length is not the factor's dimension.
    fn check_len(&self, b: &[f64]) -> Result<()> {
        if b.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch { expected: self.dim(), found: b.len() });
        }
        Ok(())
    }

    /// Forward substitution `y <- L^{-1} y` in place.
    fn forward_in_place(&self, y: &mut [f64]) {
        trace::count("linalg.cholesky.solve", 1);
        for i in 0..y.len() {
            let row = self.l.row(i);
            let mut acc = 0.0;
            for k in 0..i {
                acc += row[k] * y[k];
            }
            y[i] = (y[i] - acc) / row[i];
        }
    }

    /// Backward substitution `x <- L^{-T} x` in place.
    fn backward_in_place(&self, x: &mut [f64]) {
        trace::count("linalg.cholesky.solve", 1);
        let n = x.len();
        for i in (0..n).rev() {
            let mut acc = 0.0;
            for k in (i + 1)..n {
                acc += self.l[(k, i)] * x[k];
            }
            x[i] = (x[i] - acc) / self.l[(i, i)];
        }
    }

    /// Solves `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_len(b)?;
        let mut y = b.to_vec();
        self.forward_in_place(&mut y);
        Ok(y)
    }

    /// Solves `L^T x = b` (backward substitution).
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_len(b)?;
        let mut x = b.to_vec();
        self.backward_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Cholesky::solve`] into `x`, reusing its allocation: the same bits.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        self.check_len(b)?;
        x.clear();
        x.extend_from_slice(b);
        self.forward_in_place(x);
        self.backward_in_place(x);
        Ok(())
    }

    /// Solves `L Y = B` for a whole right-hand-side matrix in one blocked
    /// forward substitution: row by row, and within a row
    /// `SOLVE_WIDTH` columns at a time, whose sums stay in registers across
    /// every term `k` of the row.
    ///
    /// Bit-compatibility contract: every column of the result is exactly
    /// what [`Cholesky::solve_lower`] returns for that column — each entry
    /// sums its terms in ascending `k` from `+0.0`, subtracts once and
    /// divides once — so batched GP prediction can replace per-point solves
    /// without changing a single bit of output.
    pub fn solve_lower_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch { expected: n, found: b.rows() });
        }
        // One blocked pass stands in for `cols` per-column forward solves;
        // count it as such so batched and per-point paths tally comparably.
        trace::count("linalg.cholesky.solve", b.cols() as u64);
        let m = b.cols();
        let mut out = b.clone();
        let y = out.data_mut();
        let full = m - m % SOLVE_WIDTH;
        for i in 0..n {
            let (lrow, diag) = (&self.l.row(i)[..i], self.l[(i, i)]);
            let (done, rest) = y.split_at_mut(i * m);
            let yi = &mut rest[..m];
            for c0 in (0..full).step_by(SOLVE_WIDTH) {
                forward_chunk(lrow, diag, done, m, c0, &mut [0.0; SOLVE_WIDTH], yi);
            }
            if full < m {
                forward_chunk(lrow, diag, done, m, full, &mut [0.0; SOLVE_WIDTH][..m - full], yi);
            }
        }
        Ok(out)
    }

    /// The inverse `A^{-1}` (O(n^3)): read by the GP's log-marginal-likelihood
    /// gradient and its closed-form leave-one-out predictions.
    /// [`Cholesky::inverse_into`] into fresh storage.
    pub fn inverse(&self) -> Matrix {
        let mut x = Matrix::zeros(0, 0);
        self.inverse_into(&mut x, &mut Vec::new());
        x
    }

    /// The inverse `A^{-1}` into `x`, with `acc` as the per-row accumulator.
    /// Both are overwritten whatever they held; `x`'s allocation is reused
    /// when it already has the inverse's shape.
    ///
    /// One blocked forward pass over rows forms `L^{-1}` and one blocked
    /// backward pass over rows in reverse turns it into `L^{-T} L^{-1}` in
    /// place, each streaming contiguous rows into a per-column accumulator,
    /// four rows per sweep, so an accumulator is loaded and stored once per
    /// four terms.
    ///
    /// Bit-compatibility contract: column `j` is exactly what
    /// `solve_upper(&solve_lower(&e_j))` returns, because every entry sums the
    /// same terms in the same `k` order and subtracts once. The forward pass
    /// skips the terms above row `j` of column `j`: each is `L_ik * 0.0`
    /// added to an accumulator that is still `+0.0`, which leaves it `+0.0`.
    /// Counted as the `2n` solves it stands in for.
    pub fn inverse_into(&self, x: &mut Matrix, acc: &mut Vec<f64>) {
        let n = self.dim();
        trace::count("linalg.cholesky.solve", 2 * n as u64);
        // Both passes read the identity's entries as the right-hand side.
        if (x.rows(), x.cols()) == (n, n) {
            x.data_mut().fill(0.0);
        } else {
            *x = Matrix::zeros(n, n);
        }
        for i in 0..n {
            x[(i, i)] = 1.0;
        }
        acc.clear();
        acc.resize(n, 0.0);
        let x = x.data_mut();
        // Forward: row `i` of `L^{-1}`. Row `k < i` is zero past column `k`,
        // so it contributes to columns `0..=k` only. Each sweep adds four
        // rows `k..k + 4`: into columns `0..=k` all four, one after another,
        // and into columns `k + 1..k + 4` the rows that reach them, in the
        // same ascending `k`.
        for i in 0..n {
            let (done, rest) = x.split_at_mut(i * n);
            let acc = &mut acc[..=i];
            acc.fill(0.0);
            let lrow = self.l.row(i);
            let quads = done.chunks_exact(4 * n);
            let tail = quads.remainder();
            for (q, quad) in quads.enumerate() {
                let k = 4 * q;
                let (l0, l1, l2, l3) = (lrow[k], lrow[k + 1], lrow[k + 2], lrow[k + 3]);
                let (y0, quad) = quad.split_at(n);
                let (y1, quad) = quad.split_at(n);
                let (y2, y3) = quad.split_at(n);
                let (full, ragged) = acc.split_at_mut(k + 1);
                let rows = y0.iter().zip(y1).zip(y2).zip(y3);
                for (a, (((y0, y1), y2), y3)) in full.iter_mut().zip(rows) {
                    *a = *a + l0 * y0 + l1 * y1 + l2 * y2 + l3 * y3;
                }
                ragged[0] = ragged[0] + l1 * y1[k + 1] + l2 * y2[k + 1] + l3 * y3[k + 1];
                ragged[1] = ragged[1] + l2 * y2[k + 2] + l3 * y3[k + 2];
                ragged[2] += l3 * y3[k + 3];
            }
            let first = i - tail.len() / n;
            for (k, row) in (first..).zip(tail.chunks_exact(n)) {
                let lik = lrow[k];
                for (a, y) in acc.iter_mut().zip(&row[..=k]) {
                    *a += lik * y;
                }
            }
            let diag = lrow[i];
            for (v, a) in rest[..n].iter_mut().zip(acc.iter()) {
                *v = (*v - a) / diag;
            }
        }
        // Backward: row `i` of the inverse from the finished rows below it,
        // reading `L` down column `i`. Each sweep adds four rows into every
        // column's accumulator, one after another in ascending `k`, so the
        // accumulator is loaded and stored once per four terms.
        for i in (0..n).rev() {
            let (head, below) = x.split_at_mut((i + 1) * n);
            acc.fill(0.0);
            let quads = below.chunks_exact(4 * n);
            let rest = quads.remainder();
            for (q, quad) in quads.enumerate() {
                let k = i + 1 + 4 * q;
                let (l0, l1, l2, l3) =
                    (self.l[(k, i)], self.l[(k + 1, i)], self.l[(k + 2, i)], self.l[(k + 3, i)]);
                let (v0, quad) = quad.split_at(n);
                let (v1, quad) = quad.split_at(n);
                let (v2, v3) = quad.split_at(n);
                let rows = v0.iter().zip(v1).zip(v2).zip(v3);
                for (a, (((v0, v1), v2), v3)) in acc.iter_mut().zip(rows) {
                    *a = *a + l0 * v0 + l1 * v1 + l2 * v2 + l3 * v3;
                }
            }
            let first = n - rest.len() / n;
            for (k, row) in (first..).zip(rest.chunks_exact(n)) {
                let lki = self.l[(k, i)];
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += lki * v;
                }
            }
            let diag = self.l[(i, i)];
            for (v, a) in head[i * n..].iter_mut().zip(acc.iter()) {
                *v = (*v - a) / diag;
            }
        }
    }

    /// `log |A| = 2 * sum_i log L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Grows the factor of an `n x n` matrix `A` to the factor of the
    /// `(n+1) x (n+1)` extension whose new off-diagonal row is `cross` and
    /// whose new diagonal entry is `diag`, in O(n²): one forward solve for
    /// the new row `l₁₂ = L⁻¹ cross` plus `l₂₂ = sqrt(diag - l₁₂ᵀl₁₂)`.
    ///
    /// Bit-compatibility contract: because row `i` of a Cholesky factor
    /// depends only on rows `0..=i` of the input, the grown factor is
    /// *bit-identical* to a from-scratch [`Cholesky::factor`] of the extended
    /// matrix — the forward solve and the final diagonal accumulate terms in
    /// exactly `factor`'s order (pinned by a property test). The caller is
    /// responsible for folding any jitter into `diag` themselves; the stored
    /// jitter is preserved unchanged.
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when the extension is
    /// not SPD (the Schur complement `diag - l₁₂ᵀl₁₂` is non-positive),
    /// leaving the factor untouched.
    pub fn append_row(&mut self, cross: &[f64], diag: f64) -> Result<()> {
        let n = self.dim();
        if cross.len() != n {
            return Err(LinalgError::DimensionMismatch { expected: n, found: cross.len() });
        }
        if cross.iter().any(|x| !x.is_finite()) || !diag.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        trace::count("linalg.cholesky.update", 1);
        // Forward solve, inlined rather than via `solve_lower` so the
        // accumulation order matches `factor`'s inner loop exactly
        // (sequential k, one subtraction of the accumulated sum).
        let mut l12 = cross.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let mut acc = 0.0;
            for k in 0..i {
                acc += l12[k] * row[k];
            }
            let sum = l12[i] - acc;
            l12[i] = sum / row[i];
        }
        let mut acc = 0.0;
        for k in 0..n {
            acc += l12[k] * l12[k];
        }
        let schur = diag - acc;
        if schur <= 0.0 || !schur.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: n, value: schur });
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            let (dst, src) = (grown.row_mut(i), self.l.row(i));
            dst[..n].copy_from_slice(src);
        }
        let last = grown.row_mut(n);
        last[..n].copy_from_slice(&l12);
        last[n] = schur.sqrt();
        self.l = grown;
        Ok(())
    }
}

/// Rows per block of [`factor_into`].
const FACTOR_BLOCK: usize = 4;

/// Columns per chunk of [`Cholesky::solve_lower_matrix`]: their sums stay
/// in registers across a row's terms. At n = 100 with 256 columns, 16 made
/// the solve about 1.5x faster than one accumulator row kept in memory; 8
/// was no faster than 16.
const SOLVE_WIDTH: usize = 16;

/// Columns `c0..c0 + acc.len()` of row `i` of `solve_lower_matrix`, from
/// `lrow = L[i][..i]`, `diag = L[i][i]` and the `m`-wide rows `done`
/// already solved: each sum starts at `acc`'s `+0.0`, adds `L_ik * Y_kc` in
/// ascending `k`, and the entry becomes `(B_ic - sum) / diag`.
#[inline(always)]
fn forward_chunk(
    lrow: &[f64],
    diag: f64,
    done: &[f64],
    m: usize,
    c0: usize,
    acc: &mut [f64],
    yi: &mut [f64],
) {
    for (k, lik) in lrow.iter().enumerate() {
        let yk = &done[k * m + c0..][..acc.len()];
        for (a, y) in acc.iter_mut().zip(yk) {
            *a += lik * y;
        }
    }
    for (v, a) in yi[c0..][..acc.len()].iter_mut().zip(acc) {
        *v = (*v - *a) / diag;
    }
}

/// The factorization of `a + jitter * I` into `l`, replaced by fresh zeros
/// when its shape differs. Every row's strict upper part is zeroed and its
/// lower part written from entries this call already wrote, so `l`'s earlier
/// contents never reach the result.
///
/// Left-looking, [`FACTOR_BLOCK`] rows at a time: for each earlier column
/// `j`, the block's rows run their dots against row `j` as interleaved,
/// independent chains, then the block's own triangle goes row by row
/// ([`factor_row`]), and the last `n % FACTOR_BLOCK` rows go row by row
/// whole. Each entry is still one dot in ascending `k`, one subtraction and
/// one division (or square root), as in the row-by-row order, so every bit
/// is that order's; pivots are checked in row order, so the first failing
/// pivot and its value are too.
fn factor_into(l: &mut Matrix, a: &Matrix, jitter: f64) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite);
    }
    let n = a.rows();
    if (l.rows(), l.cols()) != (n, n) {
        *l = Matrix::zeros(n, n);
    }
    let l = l.data_mut();
    let blocked = n - n % FACTOR_BLOCK;
    for i0 in (0..blocked).step_by(FACTOR_BLOCK) {
        // Rows `0..i0` are finished; the block's columns `0..i0` come first.
        let (done, rest) = l.split_at_mut(i0 * n);
        let (r0, rest) = rest.split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, rest) = rest.split_at_mut(n);
        let r3 = &mut rest[..n];
        for j in 0..i0 {
            let lj = &done[j * n..j * n + j];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (k, y) in lj.iter().enumerate() {
                s0 += r0[k] * y;
                s1 += r1[k] * y;
                s2 += r2[k] * y;
                s3 += r3[k] * y;
            }
            let djj = done[j * n + j];
            r0[j] = (a[(i0, j)] - s0) / djj;
            r1[j] = (a[(i0 + 1, j)] - s1) / djj;
            r2[j] = (a[(i0 + 2, j)] - s2) / djj;
            r3[j] = (a[(i0 + 3, j)] - s3) / djj;
        }
        for i in i0..i0 + FACTOR_BLOCK {
            factor_row(l, a, i, i0, jitter)?;
        }
    }
    for i in blocked..n {
        factor_row(l, a, i, 0, jitter)?;
    }
    trace::count("linalg.cholesky.factor", 1);
    Ok(())
}

/// Row `i` of [`factor_into`] from column `from` on, left to right, after
/// zeroing its strict upper part: rows `0..i` are finished, and row `i`'s
/// columns `0..from` are written.
#[inline]
fn factor_row(l: &mut [f64], a: &Matrix, i: usize, from: usize, jitter: f64) -> Result<()> {
    let n = a.rows();
    let (done, rest) = l.split_at_mut(i * n);
    let li = &mut rest[..n];
    li[i + 1..].fill(0.0);
    for j in from..=i {
        let mut sum = a[(i, j)];
        if i == j {
            sum += jitter;
        }
        // Row prefixes are contiguous: the dot is sequential.
        let lj = if j < i { &done[j * n..j * n + j] } else { &li[..j] };
        let mut acc = 0.0;
        for (x, y) in li[..j].iter().zip(lj) {
            acc += x * y;
        }
        sum -= acc;
        if i == j {
            if sum <= 0.0 || !sum.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: sum });
            }
            li[i] = sum.sqrt();
        } else {
            li[j] = sum / done[j * n + j];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B B^T + I for B = [[1,2],[3,4],[5,6]] is SPD.
        Matrix::from_vec(3, 3, vec![6.0, 11.0, 17.0, 11.0, 26.0, 39.0, 17.0, 39.0, 62.0])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let c = Cholesky::factor(&a).unwrap();
        let x = c.solve(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}]={} vs {}", x[i], x_true[i]);
        }
    }

    #[test]
    fn log_determinant_matches_2x2_formula() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let c = Cholesky::factor(&a).unwrap();
        // det = 4*3 - 2*2 = 8
        assert!((c.log_determinant() - 8.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn jitter_rescues_semidefinite_matrix() {
        // Rank-1 matrix: strictly semidefinite, strict factorization fails.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        assert!(Cholesky::factor(&a).is_err());
        let c = Cholesky::factor_with_jitter(&a).unwrap();
        assert!(c.jitter() > 0.0);
    }

    #[test]
    fn non_finite_is_rejected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, f64::NAN, f64::NAN, 1.0]);
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NonFinite)));
    }

    #[test]
    fn solve_lower_matrix_matches_per_column_solves_bitwise() {
        use propcheck::{check, Config};
        // The size ramp runs n from 0 to 40; m is drawn over 0..=40, so
        // every remainder of the chunk width occurs, with full chunks before
        // it or without.
        let cfg = Config::default().cases(160).seed(0x5_01FE).max_size(41);
        check("solve_lower_matrix_matches_per_column_solves_bitwise", cfg, |g| {
            let n = g.size().saturating_sub(1);
            let m = g.usize_in(0, 40);
            // A lower-triangular factor with a positive diagonal, of any
            // conditioning, and a right-hand side with signed zeros in it.
            let l = Matrix::from_fn(n, n, |i, j| match (i, j) {
                _ if j > i => 0.0,
                _ if j == i => g.f64_in(0.05, 3.0),
                _ => g.f64_in(-2.0, 2.0),
            });
            let b = Matrix::from_fn(n, m, |_, _| match g.usize_in(0, 9) {
                0 => 0.0,
                1 => -0.0,
                _ => g.f64_in(-5.0, 5.0),
            });
            let c = Cholesky::from_factor(l);
            let y = c.solve_lower_matrix(&b).unwrap();
            propcheck::prop_assert!(y.rows() == n && y.cols() == m);
            for j in 0..m {
                let col = c.solve_lower(&b.col(j)).unwrap();
                for (i, want) in col.iter().enumerate() {
                    propcheck::prop_assert!(
                        y[(i, j)].to_bits() == want.to_bits(),
                        "n = {n}, m = {m}: entry ({i}, {j}) is {} vs {want}",
                        y[(i, j)]
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn solve_lower_matrix_rejects_wrong_height() {
        let c = Cholesky::factor(&spd3()).unwrap();
        assert!(c.solve_lower_matrix(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn jitter_escalation_stops_immediately_on_non_finite_input() {
        // Regression: jitter cannot fix a NaN/Inf matrix, so the escalation
        // loop must not burn up to 9 more O(n³) factorizations on one.
        let mut c = Cholesky::factor(&spd3()).unwrap();
        let a = Matrix::from_vec(2, 2, vec![1.0, f64::NAN, f64::NAN, 1.0]);
        let (res, attempts) = c.escalate(&a);
        assert!(matches!(res, Err(LinalgError::NonFinite)));
        assert_eq!(attempts, 1, "non-finite input must fail on the first attempt");

        let inf = Matrix::from_vec(2, 2, vec![1.0, f64::INFINITY, f64::INFINITY, 1.0]);
        let (res, attempts) = c.escalate(&inf);
        assert!(matches!(res, Err(LinalgError::NonFinite)));
        assert_eq!(attempts, 1);

        // A genuinely semidefinite matrix still goes through the escalation.
        let semi = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let (res, attempts) = c.escalate(&semi);
        assert!(res.is_ok());
        assert!(attempts > 1, "jitter escalation should have been exercised");
    }

    #[test]
    fn append_row_matches_from_scratch_factorization_bitwise() {
        // A 4x4 SPD matrix; factor the leading 3x3 block, then append the
        // last row/column and compare against factoring the whole thing.
        let b = Matrix::from_fn(4, 3, |i, j| (i as f64 + 0.3) * (j as f64 - 1.1) + 0.7);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(4.0);
        let lead = Matrix::from_fn(3, 3, |i, j| a[(i, j)]);
        let mut c = Cholesky::factor(&lead).unwrap();
        let cross: Vec<f64> = (0..3).map(|j| a[(3, j)]).collect();
        c.append_row(&cross, a[(3, 3)]).unwrap();
        let full = Cholesky::factor(&a).unwrap();
        for i in 0..4 {
            for j in 0..=i {
                assert_eq!(
                    c.l()[(i, j)].to_bits(),
                    full.l()[(i, j)].to_bits(),
                    "({i},{j}): {} vs {}",
                    c.l()[(i, j)],
                    full.l()[(i, j)]
                );
            }
        }
    }

    #[test]
    fn append_row_rejects_non_spd_extension_and_bad_input() {
        let mut c = Cholesky::factor(&spd3()).unwrap();
        let before = c.l().clone();
        // Huge cross-covariances make the Schur complement negative.
        let err = c.append_row(&[100.0, 100.0, 100.0], 1.0).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { pivot: 3, .. }));
        assert!(matches!(
            c.append_row(&[f64::NAN, 0.0, 0.0], 1.0),
            Err(LinalgError::NonFinite)
        ));
        assert!(matches!(
            c.append_row(&[1.0], 1.0),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert_eq!(c.dim(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.l()[(i, j)].to_bits(), before[(i, j)].to_bits());
            }
        }
    }

    /// The row-by-row factorization `factor_into` replaced: row `i`'s strict
    /// upper part zeroed, then its entries `j = 0..=i` in turn, each one
    /// sequential dot, one subtraction and one division or square root. The
    /// oracle the blocked factorization is held to, bit for bit.
    fn reference_factor_into(l: &mut Matrix, a: &Matrix, jitter: f64) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        if !a.all_finite() {
            return Err(LinalgError::NonFinite);
        }
        let n = a.rows();
        *l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                let mut acc = 0.0;
                for k in 0..j {
                    acc += l[(i, k)] * l[(j, k)];
                }
                sum -= acc;
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, value: sum });
                    }
                    l[(i, i)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    #[test]
    fn blocked_factor_matches_the_row_by_row_reference_bitwise() {
        use propcheck::{check, Config};
        // Outcomes over the whole run: strict, jittered, failed.
        let seen = std::cell::Cell::new([0usize; 3]);
        // The size ramp runs n from 0 (case 0) to 44: every remainder of the
        // block width, at every block count up to 11.
        let cfg = Config::default().cases(96).seed(0xB10C_F4C7).max_size(45);
        check("blocked_factor_matches_the_row_by_row_reference_bitwise", cfg, |g| {
            let n = g.size().saturating_sub(1);
            // SPD; rank deficient and shifted just below semidefinite, so
            // only the jitter ladder factors it; or SPD but for one negative
            // diagonal entry (the last, or any), so every attempt fails there.
            let kind = if n >= 2 { g.usize_in(0, 2) } else { 0 };
            let mut a = if kind == 1 {
                let r = g.usize_in(1, n - 1);
                let b = Matrix::from_fn(n, r, |_, _| g.f64_in(-3.0, 3.0));
                let mut a = b.matmul(&b.transpose()).unwrap();
                let mean_diag = (0..n).map(|i| a[(i, i)]).sum::<f64>() / n as f64;
                a.add_diagonal(-1e-9 * mean_diag);
                a
            } else {
                let b = Matrix::from_fn(n, n, |_, _| g.f64_in(-3.0, 3.0));
                let mut a = b.matmul(&b.transpose()).unwrap();
                a.add_diagonal(n as f64);
                a
            };
            if kind == 2 {
                let p = if g.flag() { n - 1 } else { g.usize_in(0, n - 1) };
                a[(p, p)] = -1.0;
            }
            // Every rung of the jitter ladder, from junk-filled storage.
            let mean_diag =
                (0..n).map(|i| a[(i, i)].abs()).sum::<f64>().max(f64::MIN_POSITIVE) / n as f64;
            let mut rungs = vec![0.0, 1e-10 * mean_diag];
            while rungs[rungs.len() - 1] < 1e-2 * mean_diag {
                let next = rungs[rungs.len() - 1] * 10.0;
                rungs.push(next);
            }
            let mut first_ok = None;
            for &jitter in &rungs {
                let mut got = Matrix::from_fn(n, n, |_, _| g.f64_in(-9.0, 9.0));
                let mut want = Matrix::zeros(0, 0);
                let (got_res, want_res) = (
                    factor_into(&mut got, &a, jitter),
                    reference_factor_into(&mut want, &a, jitter),
                );
                let label = format!("n = {n}, kind {kind}, jitter {jitter:e}");
                match (&got_res, &want_res) {
                    (Ok(()), Ok(())) => {
                        for i in 0..n {
                            for j in 0..n {
                                let (x, y) = (got[(i, j)], want[(i, j)]);
                                propcheck::prop_assert!(
                                    x.to_bits() == y.to_bits(),
                                    "{label}: entry ({i}, {j}) is {x} vs reference {y}"
                                );
                            }
                        }
                        first_ok.get_or_insert((jitter, want));
                    }
                    (
                        Err(LinalgError::NotPositiveDefinite { pivot: p, value: v }),
                        Err(LinalgError::NotPositiveDefinite { pivot: q, value: w }),
                    ) => propcheck::prop_assert!(
                        p == q && v.to_bits() == w.to_bits(),
                        "{label}: pivot {p} value {v} vs reference pivot {q} value {w}"
                    ),
                    _ => propcheck::prop_assert!(
                        false,
                        "{label}: {got_res:?} vs reference {want_res:?}"
                    ),
                }
            }
            // The ladder itself: the first rung the reference factors, or
            // failure when none does.
            let ladder = Cholesky::factor_with_jitter(&a);
            match (&ladder, first_ok) {
                (Ok(c), Some((jitter, want))) => {
                    propcheck::prop_assert_eq!(c.jitter().to_bits(), jitter.to_bits());
                    propcheck::prop_assert!(c.l().data() == want.data());
                    let mut s = seen.get();
                    s[usize::from(jitter > 0.0)] += 1;
                    seen.set(s);
                }
                (Err(_), None) => {
                    let mut s = seen.get();
                    s[2] += 1;
                    seen.set(s);
                }
                _ => propcheck::prop_assert!(false, "n = {n}, kind {kind}: ladder {ladder:?}"),
            }
            Ok(())
        });
        let [strict, jittered, failed] = seen.get();
        assert!(strict > 0 && jittered > 0 && failed > 0, "{strict} / {jittered} / {failed}");
    }
}

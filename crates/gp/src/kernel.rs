//! The Matérn-5/2 covariance kernel with ARD lengthscales and analytic
//! log-parameter gradients: the one kernel every GP in this crate uses.
//!
//! The kernel stores its hyperparameters twice: as the log values the
//! fitter optimizes, and as their natural-scale `exp`, which every
//! covariance reads. The natural-scale copies are derived from the log
//! values whenever those change (construction and [`Matern52::set_params`])
//! and never set independently, so a covariance computes exactly the bits
//! it would with `exp` evaluated on every call, without the `d + 1` `exp`
//! calls per covariance.
//!
//! [`Matern52::value`] and [`Matern52::value_and_grad`] are the per-pair
//! forms. Points come in blocks, one point per row of a [`linalg::Matrix`]
//! (owned or a [`linalg::MatrixView`] of some rows). Covariance blocks
//! `K(A, B)` (the cross-kernels of prediction and `K(P, P)` for joint
//! sampling) come from the crate-private `Matern52::cross`, which builds
//! dimension-major so independent entries share SIMD lanes. The GP's
//! `K(X, X) + noise I`, with or without the packed kernel gradients a
//! hyperparameter fit reads, comes from the crate-private `Matern52::gram`,
//! which reads the input rows pair by pair, and writes each pair's scaled
//! differences and gradients into the pair's own table slot. Each entry of
//! either runs the per-pair form's operations in its order; unit tests hold
//! them to `value` and `value_and_grad` by `to_bits()`.

use linalg::Matrix;

const SQRT5: f64 = 2.236_067_977_499_79;

/// Log-space bounds of every lengthscale: `[0.03, 30]` for `[0,1]^d` inputs.
fn log_lengthscale_bounds() -> (f64, f64) {
    ((0.03_f64).ln(), (30.0_f64).ln())
}

/// Log-space bounds of the signal variance: `[1e-4, 1e3]` for standardized
/// outputs.
fn log_signal_variance_bounds() -> (f64, f64) {
    ((1e-4_f64).ln(), (1e3_f64).ln())
}

/// Matérn-5/2 kernel with automatic relevance determination (per-dimension
/// lengthscales):
///
/// `k(x, x') = s^2 (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r)` with
/// `r^2 = sum_i (x_i - x'_i)^2 / l_i^2`.
///
/// This is the default BoTorch kernel ResTune inherits. Hyperparameters are
/// exposed as a flat vector of *log*-values, `[log l_1, ..., log l_d, log
/// s^2]`, so the fitter can run unconstrained gradient ascent;
/// [`Matern52::set_params`] clamps them to [`Matern52::bounds`].
#[derive(Debug, Clone)]
pub struct Matern52 {
    log_lengthscales: Vec<f64>,
    log_signal_variance: f64,
    /// `exp` of each log-lengthscale.
    lengthscales: Vec<f64>,
    /// `exp(log_signal_variance)`.
    signal_variance: f64,
}

impl Matern52 {
    /// A kernel with the given log-hyperparameters and their natural-scale
    /// copies: the one place the copies are computed from scratch.
    fn from_logs(log_lengthscales: Vec<f64>, log_signal_variance: f64) -> Self {
        let lengthscales = log_lengthscales.iter().map(|l| l.exp()).collect();
        Matern52 {
            log_lengthscales,
            log_signal_variance,
            lengthscales,
            signal_variance: log_signal_variance.exp(),
        }
    }

    /// Creates a kernel with unit lengthscales and unit signal variance —
    /// a sensible default for `[0,1]^d` inputs and standardized outputs.
    pub fn new(dim: usize) -> Self {
        Self::from_logs(vec![0.0; dim], 0.0)
    }

    /// Creates a kernel with explicit (natural-scale) hyperparameters. The
    /// kernel keeps their logs and reads `exp` of those, not the values
    /// passed here.
    pub fn with_hyperparameters(lengthscales: &[f64], signal_variance: f64) -> Self {
        assert!(lengthscales.iter().all(|l| *l > 0.0) && signal_variance > 0.0);
        Self::from_logs(lengthscales.iter().map(|l| l.ln()).collect(), signal_variance.ln())
    }

    /// Scaled distance `r` between two points.
    #[inline]
    fn scaled_distance(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut r2 = 0.0;
        for i in 0..a.len() {
            let d = (a[i] - b[i]) / self.lengthscales[i];
            r2 += d * d;
        }
        r2.sqrt()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.log_lengthscales.len()
    }

    /// Covariance between two points.
    pub fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.dim());
        debug_assert_eq!(b.len(), self.dim());
        let r = self.scaled_distance(a, b);
        self.covariance_at(r)
    }

    /// The covariance at scaled distance `r`.
    #[inline]
    fn covariance_at(&self, r: f64) -> f64 {
        let s2 = self.signal_variance;
        s2 * (1.0 + SQRT5 * r + 5.0 / 3.0 * r * r) * (-SQRT5 * r).exp()
    }

    /// The cross-covariance `K(A, B)`, `|a| x |b|` for blocks of points
    /// (rows), entry `(i, c)` equal to `value(a.row(i), b.row(c))` bit for
    /// bit.
    ///
    /// Built dimension-major: `b` is transposed once, then each row
    /// accumulates its scaled squared differences one dimension at a time
    /// across all columns. Each entry still runs `value`'s operations in
    /// `value`'s order (`r² = 0`, then `+= ((a_k - b_k) / l_k)²` for `k`
    /// ascending, `sqrt`, the Matérn expression), but independent entries
    /// now share SIMD lanes instead of one serial chain per entry.
    pub(crate) fn cross<A, B>(&self, a: &Matrix<A>, b: &Matrix<B>) -> Matrix
    where
        A: AsRef<[f64]>,
        B: AsRef<[f64]>,
    {
        debug_assert!(a.cols() == self.dim() && b.cols() == self.dim());
        let bt = b.transpose();
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for (i, p) in a.iter_rows().enumerate() {
            let r2 = out.row_mut(i);
            for ((&ak, &lk), bk) in p.iter().zip(&self.lengthscales).zip(bt.iter_rows()) {
                for (acc, &bkc) in r2.iter_mut().zip(bk) {
                    let diff = (ak - bkc) / lk;
                    *acc += diff * diff;
                }
            }
            for entry in r2.iter_mut() {
                *entry = self.covariance_at(entry.sqrt());
            }
        }
        out
    }

    /// `K(X, X) + noise * I` into `k` (`n x n`; every entry is overwritten)
    /// from the `n` training inputs, the rows of `x`: entry `(i, j)` is
    /// `value(x.row(i), x.row(j))` bit for bit, plus `noise` on the
    /// diagonal. With `table`, the kernel gradients of each pair
    /// `(i, j <= i)` go into it packed, `value_and_grad`'s bits at
    /// `(i(i+1)/2 + j) * n_params()`; the table may be longer than the
    /// `n(n+1)/2 * n_params()` entries it gets.
    ///
    /// The one `K(X, X)` builder. It reads the row-major inputs pair by pair,
    /// with dimensions inner, row by row. With the table, each pair of row
    /// `i` first writes its scaled differences into its own slot (row `i`'s
    /// slots are contiguous, so this is one stream). Then, four pairs at a
    /// time, it sums each pair's `r²` over its slot in ascending `c`, the
    /// four chains interleaved, and each pair takes `sqrt`, `exp`, the
    /// covariance and `g`, and overwrites its slot with the gradients
    /// `g * diff * diff`. Without the table, four pairs at a time sum `r²`
    /// over the dimensions, again as four interleaved chains. Each entry
    /// runs `value_and_grad`'s operations in its order, and each row is
    /// mirrored into its column once it is done.
    pub(crate) fn gram(
        &self,
        x: &Matrix,
        noise: f64,
        k: &mut Matrix,
        mut table: Option<&mut [f64]>,
    ) {
        let (d, n, kp) = (self.dim(), k.rows(), self.n_params());
        debug_assert!(k.cols() == n && x.rows() == n && x.cols() == d);
        if let Some(table) = &table {
            debug_assert!(table.len() >= n * (n + 1) / 2 * kp);
        }
        for (i, xi) in x.iter_rows().enumerate() {
            let row = &mut k.row_mut(i)[..=i];
            match table.as_mut() {
                Some(table) => {
                    let slots = &mut table[i * (i + 1) / 2 * kp..(i + 1) * (i + 2) / 2 * kp];
                    for (slot, xj) in slots.chunks_exact_mut(kp).zip(x.iter_rows()) {
                        let dims = xi.iter().zip(xj).zip(&self.lengthscales);
                        for (diff, ((&a, &b), &l)) in slot.iter_mut().zip(dims) {
                            *diff = (a - b) / l;
                        }
                    }
                    let mut quads = slots.chunks_exact_mut(4 * kp);
                    let mut entries = row.chunks_exact_mut(4);
                    for (quad, entries) in (&mut quads).zip(&mut entries) {
                        let (q0, quad) = quad.split_at_mut(kp);
                        let (q1, quad) = quad.split_at_mut(kp);
                        let (q2, q3) = quad.split_at_mut(kp);
                        let mut r2 = [0.0; 4];
                        for c in 0..d {
                            r2[0] += q0[c] * q0[c];
                            r2[1] += q1[c] * q1[c];
                            r2[2] += q2[c] * q2[c];
                            r2[3] += q3[c] * q3[c];
                        }
                        let slots = entries.iter_mut().zip([q0, q1, q2, q3]);
                        for ((entry, slot), r2) in slots.zip(r2) {
                            *entry = self.slot_gradients(r2, slot);
                        }
                    }
                    let rest = quads.into_remainder().chunks_exact_mut(kp);
                    for (entry, slot) in entries.into_remainder().iter_mut().zip(rest) {
                        let mut r2 = 0.0;
                        for diff in &slot[..d] {
                            r2 += diff * diff;
                        }
                        *entry = self.slot_gradients(r2, slot);
                    }
                }
                None => {
                    let mut entries = row.chunks_exact_mut(4);
                    for (q, entries) in (&mut entries).enumerate() {
                        let j = 4 * q;
                        let row = |j: usize| &x.row(j)[..d];
                        let (x0, x1, x2, x3) = (row(j), row(j + 1), row(j + 2), row(j + 3));
                        let mut r2 = [0.0; 4];
                        for (c, (&a, &l)) in xi.iter().zip(&self.lengthscales).enumerate() {
                            let diff = (a - x0[c]) / l;
                            r2[0] += diff * diff;
                            let diff = (a - x1[c]) / l;
                            r2[1] += diff * diff;
                            let diff = (a - x2[c]) / l;
                            r2[2] += diff * diff;
                            let diff = (a - x3[c]) / l;
                            r2[3] += diff * diff;
                        }
                        for (entry, r2) in entries.iter_mut().zip(r2) {
                            *entry = self.covariance_at(r2.sqrt());
                        }
                    }
                    let rest = entries.into_remainder();
                    let first = i + 1 - rest.len();
                    for (entry, j) in rest.iter_mut().zip(first..) {
                        *entry = self.value(xi, x.row(j));
                    }
                }
            }
            for j in 0..i {
                k[(j, i)] = k[(i, j)];
            }
            k[(i, i)] += noise;
        }
    }

    /// One pair of [`Matern52::gram`]'s table: from `r²` and the scaled
    /// differences in `slot[..d]`, the covariance, returned and written to
    /// `slot[d]`, and the gradients `g * diff * diff` over the differences,
    /// by `value_and_grad`'s operations.
    #[inline]
    fn slot_gradients(&self, r2: f64, slot: &mut [f64]) -> f64 {
        let s2 = self.signal_variance;
        let r = r2.sqrt();
        let e = (-SQRT5 * r).exp();
        let value = s2 * (1.0 + SQRT5 * r + 5.0 / 3.0 * r * r) * e;
        let g = s2 * (5.0 / 3.0) * (1.0 + SQRT5 * r) * e;
        let (diffs, last) = slot.split_at_mut(self.dim());
        for diff in diffs {
            *diff = g * *diff * *diff;
        }
        last[0] = value;
        value
    }

    /// Covariance and the gradient with respect to each log-hyperparameter.
    ///
    /// The gradient buffer must have length [`Matern52::n_params`].
    pub fn value_and_grad(&self, a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(grad.len(), self.n_params());
        let d = self.dim();
        let s2 = self.signal_variance;
        // `scaled_distance`'s loop, keeping each scaled difference in `grad`
        // for the gradient below.
        let mut r2 = 0.0;
        for i in 0..d {
            let diff = (a[i] - b[i]) / self.lengthscales[i];
            grad[i] = diff;
            r2 += diff * diff;
        }
        let r = r2.sqrt();
        let e = (-SQRT5 * r).exp();
        let k = s2 * (1.0 + SQRT5 * r + 5.0 / 3.0 * r * r) * e;
        // dk/dr = -s^2 * (5/3) r (1 + sqrt5 r) e^{-sqrt5 r}; we need
        // dk/dlog(l_i) = (dk/dr) * dr/dlog(l_i) with
        // dr/dlog(l_i) = -d_i^2 / (r l_i^2). The 1/r cancels against the r in
        // dk/dr, so define g = s^2 * (5/3)(1 + sqrt5 r) e^{-sqrt5 r} and
        // dk/dlog(l_i) = g * d_i^2 / l_i^2 (no singularity at r = 0).
        let g = s2 * (5.0 / 3.0) * (1.0 + SQRT5 * r) * e;
        for diff in &mut grad[..d] {
            *diff = g * *diff * *diff;
        }
        grad[d] = k; // dk/dlog(s^2) = k
        k
    }

    /// Number of hyperparameters.
    pub fn n_params(&self) -> usize {
        self.dim() + 1
    }

    /// Current log-hyperparameters as a flat vector.
    pub fn params(&self) -> Vec<f64> {
        let mut p = self.log_lengthscales.clone();
        p.push(self.log_signal_variance);
        p
    }

    /// Sets log-hyperparameters (clamped to [`Matern52::bounds`]) and
    /// refreshes the natural-scale copies from the clamped values.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.n_params());
        let (lo, hi) = log_lengthscale_bounds();
        let logs = self.log_lengthscales.iter_mut().zip(&mut self.lengthscales);
        for ((log_l, l), p) in logs.zip(params) {
            *log_l = p.clamp(lo, hi);
            *l = log_l.exp();
        }
        let (lo, hi) = log_signal_variance_bounds();
        self.log_signal_variance = params[self.dim()].clamp(lo, hi);
        self.signal_variance = self.log_signal_variance.exp();
    }

    /// Per-parameter `(lo, hi)` bounds in log space.
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        let mut b = vec![log_lengthscale_bounds(); self.dim()];
        b.push(log_signal_variance_bounds());
        b
    }

    /// Prior variance at a point, `k(x, x) = s^2`.
    pub fn prior_variance(&self) -> f64 {
        self.signal_variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_difference_grad(kernel: &Matern52, a: &[f64], b: &[f64]) -> Vec<f64> {
        let eps = 1e-6;
        let base = kernel.params();
        let mut grad = vec![0.0; kernel.n_params()];
        for p in 0..kernel.n_params() {
            let mut plus = kernel.clone();
            let mut params = base.clone();
            params[p] += eps;
            plus.set_params(&params);
            let mut minus = kernel.clone();
            params[p] = base[p] - eps;
            minus.set_params(&params);
            grad[p] = (plus.value(a, b) - minus.value(a, b)) / (2.0 * eps);
        }
        grad
    }

    #[test]
    fn matern_value_at_zero_distance_is_signal_variance() {
        let k = Matern52::with_hyperparameters(&[0.5, 2.0], 3.0);
        let x = [0.3, 0.7];
        assert!((k.value(&x, &x) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn matern_decreases_with_distance() {
        let k = Matern52::new(1);
        let v1 = k.value(&[0.0], &[0.1]);
        let v2 = k.value(&[0.0], &[0.5]);
        let v3 = k.value(&[0.0], &[2.0]);
        assert!(v1 > v2 && v2 > v3 && v3 > 0.0);
    }

    #[test]
    fn matern_is_symmetric() {
        let k = Matern52::with_hyperparameters(&[0.3, 1.5, 0.8], 2.0);
        let a = [0.1, 0.9, 0.4];
        let b = [0.7, 0.2, 0.6];
        assert!((k.value(&a, &b) - k.value(&b, &a)).abs() < 1e-14);
    }

    #[test]
    fn matern_gradient_matches_finite_differences() {
        let mut k = Matern52::new(3);
        k.set_params(&[-0.5, 0.3, 0.9, 0.2]);
        let a = [0.1, 0.5, 0.9];
        let b = [0.4, 0.2, 0.7];
        let mut grad = vec![0.0; k.n_params()];
        k.value_and_grad(&a, &b, &mut grad);
        let fd = finite_difference_grad(&k, &a, &b);
        for p in 0..k.n_params() {
            assert!(
                (grad[p] - fd[p]).abs() < 1e-5 * (1.0 + fd[p].abs()),
                "param {p}: analytic {} vs fd {}",
                grad[p],
                fd[p]
            );
        }
    }

    #[test]
    fn matern_gradient_is_finite_at_zero_distance() {
        let k = Matern52::new(2);
        let x = [0.5, 0.5];
        let mut grad = vec![0.0; k.n_params()];
        let v = k.value_and_grad(&x, &x, &mut grad);
        assert!((v - 1.0).abs() < 1e-12);
        assert_eq!(grad[0], 0.0);
        assert_eq!(grad[1], 0.0);
        assert!((grad[2] - 1.0).abs() < 1e-12); // dk/dlog s^2 = k
    }

    #[test]
    fn set_params_clamps_to_bounds() {
        let mut k = Matern52::new(1);
        k.set_params(&[-100.0, 100.0]);
        let p = k.params();
        let b = k.bounds();
        assert!((p[0] - b[0].0).abs() < 1e-12);
        assert!((p[1] - b[1].1).abs() < 1e-12);
    }

    /// `value_and_grad` with `exp` of the log fields evaluated on every call
    /// instead of read from the natural-scale copies; its return value is
    /// `value`'s expression too. The oracle the cached kernel is held to,
    /// bit for bit.
    fn reference_value_and_grad(k: &Matern52, a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        let d = k.dim();
        let s2 = k.log_signal_variance.exp();
        let mut r2 = 0.0;
        for i in 0..d {
            let di = (a[i] - b[i]) / k.log_lengthscales[i].exp();
            r2 += di * di;
        }
        let r = r2.sqrt();
        let e = (-SQRT5 * r).exp();
        let value = s2 * (1.0 + SQRT5 * r + 5.0 / 3.0 * r * r) * e;
        let g = s2 * (5.0 / 3.0) * (1.0 + SQRT5 * r) * e;
        for i in 0..d {
            let diff = (a[i] - b[i]) / k.log_lengthscales[i].exp();
            grad[i] = g * diff * diff;
        }
        grad[d] = value;
        value
    }

    #[test]
    fn cached_hyperparameters_match_per_call_exp_bitwise() {
        use xrand::rngs::StdRng;
        use xrand::{RngExt, SeedableRng};
        let d = 14;
        let mut rng = StdRng::seed_from_u64(0x4d35_3200);
        let mut uniform = |n: usize, lo: f64, hi: f64| -> Vec<f64> {
            (0..n).map(|_| lo + (hi - lo) * rng.random::<f64>()).collect()
        };
        let mut kernels = vec![
            ("new", Matern52::new(d)),
            ("with_hyperparameters", Matern52::with_hyperparameters(&uniform(d, 0.05, 5.0), 1.7)),
        ];
        // In bounds: every log lengthscale within [ln 0.03, ln 30], and
        // log s^2 within [ln 1e-4, ln 1e3].
        let inside = uniform(d + 1, -3.0, 3.0);
        let mut in_bounds = Matern52::new(d);
        in_bounds.set_params(&inside);
        assert_eq!(in_bounds.params(), inside, "no parameter may have been clamped");
        kernels.push(("set_params in bounds", in_bounds));
        // Out of bounds on both sides, so most values are clamped; refreshed
        // on a kernel that already held other values.
        let mut clamped = Matern52::with_hyperparameters(&uniform(d, 0.05, 5.0), 0.3);
        let wild: Vec<f64> = uniform(d + 1, -12.0, 12.0);
        clamped.set_params(&wild);
        assert_ne!(clamped.params(), wild, "some parameters must have been clamped");
        kernels.push(("set_params clamped", clamped));

        let mut grad = vec![0.0; d + 1];
        let mut want_grad = vec![0.0; d + 1];
        for (label, k) in &kernels {
            assert_eq!(k.prior_variance().to_bits(), k.log_signal_variance.exp().to_bits());
            for case in 0..64 {
                let a = uniform(d, -0.2, 1.2);
                // Every eighth pair is a point with itself (r = 0).
                let b = if case % 8 == 0 { a.clone() } else { uniform(d, -0.2, 1.2) };
                let want = reference_value_and_grad(k, &a, &b, &mut want_grad);
                assert_eq!(k.value(&a, &b).to_bits(), want.to_bits(), "{label}: value");
                let got = k.value_and_grad(&a, &b, &mut grad);
                assert_eq!(got.to_bits(), want.to_bits(), "{label}: value_and_grad");
                for (p, (g, w)) in grad.iter().zip(&want_grad).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{label}: gradient {p}");
                }
            }
        }
    }

    #[test]
    fn cross_matches_value_bitwise() {
        use propcheck::{check, Config};
        let cfg = Config::default().cases(96).seed(0xC2_055).max_size(40);
        check("cross_matches_value_bitwise", cfg, |g| {
            // Zero-width points too: every covariance is then `s²`.
            let d = g.usize_in(0, 14);
            let mut kernel = Matern52::new(d);
            // Log parameters in bounds, or drawn wide so most are clamped.
            let wide = g.flag();
            let (lo, hi) = if wide { (-12.0, 12.0) } else { (-3.0, 3.0) };
            let params = g.vec_f64(d + 1, lo, hi);
            kernel.set_params(&params);
            // Either side may be empty or a single point; the size ramp
            // grows both.
            let side = |g: &mut propcheck::Gen| -> Vec<Vec<f64>> {
                let n = match g.usize_in(0, 5) {
                    0 => 0,
                    1 => 1,
                    _ => g.usize_in(1, g.size().max(1)),
                };
                (0..n).map(|_| g.vec_f64(d, -0.2, 1.2)).collect()
            };
            let a = side(g);
            let mut b = side(g);
            // Duplicated points, within `b` and shared with `a` (r = 0).
            if b.len() >= 2 && g.flag() {
                let (from, to) = (g.usize_in(0, b.len() - 1), g.usize_in(0, b.len() - 1));
                b[to] = b[from].clone();
            }
            if !a.is_empty() && !b.is_empty() && g.flag() {
                let c = g.usize_in(0, b.len() - 1);
                b[c] = a[g.usize_in(0, a.len() - 1)].clone();
            }
            // `b` also as the middle rows of a larger block, read as a view.
            let pad = g.usize_in(0, 2);
            let filler = (0..pad).map(|_| g.vec_f64(d, 0.0, 1.0));
            let mut padded = Matrix::from_rows(d, filler.collect::<Vec<_>>()).unwrap();
            for p in &b {
                padded.push_row(p).unwrap();
            }
            padded.push_row(&g.vec_f64(d, 0.0, 1.0)).unwrap();
            let (am, bm) = (Matrix::from_rows(d, &a).unwrap(), Matrix::from_rows(d, &b).unwrap());
            let bv = padded.view(pad..pad + b.len());
            let blocks = [
                (&a, &b, kernel.cross(&am, &bv)),
                (&b, &a, kernel.cross(&bv, &am)),
                (&b, &b, kernel.cross(&bm, &bm)),
            ];
            for (lhs, rhs, k) in blocks {
                propcheck::prop_assert!(k.rows() == lhs.len() && k.cols() == rhs.len());
                for (i, p) in lhs.iter().enumerate() {
                    for (c, q) in rhs.iter().enumerate() {
                        let (got, want) = (k[(i, c)], kernel.value(p, q));
                        propcheck::prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "d = {d}, wide = {wide}, entry ({i}, {c}): {got} vs value {want}"
                        );
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn gram_matches_value_and_grad_bitwise() {
        use propcheck::{check, Config};
        // The size ramp runs n from 0 (case 0) to 48.
        let cfg = Config::default().cases(96).seed(0x6_7A11).max_size(49);
        check("gram_matches_value_and_grad_bitwise", cfg, |g| {
            let n = g.size().saturating_sub(1);
            // Zero-width points too: every covariance is then `s²`.
            let d = g.usize_in(0, 14);
            let kp = d + 1;
            let mut rows: Vec<Vec<f64>> = (0..n).map(|_| g.vec_f64(d, -0.2, 1.2)).collect();
            // Duplicated points (r = 0 off the diagonal).
            if n >= 2 && g.flag() {
                let (from, to) = (g.usize_in(0, n - 1), g.usize_in(0, n - 1));
                rows[to] = rows[from].clone();
            }
            let x = Matrix::from_rows(d, &rows).unwrap();
            // One set of buffers, junk to begin with, through two parameter
            // draws, with or without the table each time; the table may run
            // past its last slot.
            let mut k = Matrix::from_fn(n, n, |_, _| g.f64_in(-9.0, 9.0));
            let spare = g.usize_in(0, 2 * kp);
            let mut table = g.vec_f64(n * (n + 1) / 2 * kp + spare, -9.0, 9.0);
            let mut kernel = Matern52::new(d);
            let mut want_grad = vec![0.0; kp];
            for draw in 0..2 {
                // Log parameters in bounds, or drawn wide so most are clamped.
                let wide = g.flag();
                let (lo, hi) = if wide { (-12.0, 12.0) } else { (-3.0, 3.0) };
                kernel.set_params(&g.vec_f64(kp, lo, hi));
                let noise = g.f64_in(0.0, 1.0);
                let with_grads = g.flag();
                kernel.gram(&x, noise, &mut k, with_grads.then_some(table.as_mut_slice()));
                let label = format!("n = {n}, d = {d}, draw {draw}, wide = {wide}");
                for i in 0..n {
                    for j in 0..n {
                        let mut want = kernel.value(&rows[i], &rows[j]);
                        if i == j {
                            want += noise;
                        }
                        propcheck::prop_assert!(
                            k[(i, j)].to_bits() == want.to_bits(),
                            "{label}: entry ({i}, {j}) is {} vs value {want}",
                            k[(i, j)]
                        );
                    }
                    if !with_grads {
                        continue;
                    }
                    for j in 0..=i {
                        kernel.value_and_grad(&rows[i], &rows[j], &mut want_grad);
                        let slot = &table[(i * (i + 1) / 2 + j) * kp..][..kp];
                        for (p, (got, want)) in slot.iter().zip(&want_grad).enumerate() {
                            propcheck::prop_assert!(
                                got.to_bits() == want.to_bits(),
                                "{label}: pair ({i}, {j}) gradient {p} is {got} vs {want}"
                            );
                        }
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn ard_lengthscales_gate_dimensions() {
        // A huge lengthscale on dim 1 makes the kernel insensitive to it.
        let k = Matern52::with_hyperparameters(&[0.5, 1000.0], 1.0);
        let v_same = k.value(&[0.2, 0.0], &[0.2, 1.0]);
        let v_far = k.value(&[0.2, 0.0], &[0.8, 0.0]);
        assert!(v_same > 0.99);
        assert!(v_far < v_same);
    }
}

//! The Matérn-5/2 covariance kernel with ARD lengthscales and analytic
//! log-parameter gradients: the one kernel every GP in this crate uses.

const SQRT5: f64 = 2.236_067_977_499_79;

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
}

impl Matern52 {
    /// Creates a kernel with unit lengthscales and unit signal variance —
    /// a sensible default for `[0,1]^d` inputs and standardized outputs.
    pub fn new(dim: usize) -> Self {
        Matern52 { log_lengthscales: vec![0.0; dim], log_signal_variance: 0.0 }
    }

    /// Creates a kernel with explicit (natural-scale) hyperparameters.
    pub fn with_hyperparameters(lengthscales: &[f64], signal_variance: f64) -> Self {
        assert!(lengthscales.iter().all(|l| *l > 0.0) && signal_variance > 0.0);
        Matern52 {
            log_lengthscales: lengthscales.iter().map(|l| l.ln()).collect(),
            log_signal_variance: signal_variance.ln(),
        }
    }

    /// Scaled distance `r` between two points.
    #[inline]
    fn scaled_distance(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut r2 = 0.0;
        for i in 0..a.len() {
            let d = (a[i] - b[i]) / self.log_lengthscales[i].exp();
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
        let s2 = self.log_signal_variance.exp();
        s2 * (1.0 + SQRT5 * r + 5.0 / 3.0 * r * r) * (-SQRT5 * r).exp()
    }

    /// Covariance and the gradient with respect to each log-hyperparameter.
    ///
    /// The gradient buffer must have length [`Matern52::n_params`].
    pub fn value_and_grad(&self, a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(grad.len(), self.n_params());
        let d = self.dim();
        let s2 = self.log_signal_variance.exp();
        let r = self.scaled_distance(a, b);
        let e = (-SQRT5 * r).exp();
        let k = s2 * (1.0 + SQRT5 * r + 5.0 / 3.0 * r * r) * e;
        // dk/dr = -s^2 * (5/3) r (1 + sqrt5 r) e^{-sqrt5 r}; we need
        // dk/dlog(l_i) = (dk/dr) * dr/dlog(l_i) with
        // dr/dlog(l_i) = -d_i^2 / (r l_i^2). The 1/r cancels against the r in
        // dk/dr, so define g = s^2 * (5/3)(1 + sqrt5 r) e^{-sqrt5 r} and
        // dk/dlog(l_i) = g * d_i^2 / l_i^2 (no singularity at r = 0).
        let g = s2 * (5.0 / 3.0) * (1.0 + SQRT5 * r) * e;
        for i in 0..d {
            let li = self.log_lengthscales[i].exp();
            let diff = (a[i] - b[i]) / li;
            grad[i] = g * diff * diff;
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

    /// Sets log-hyperparameters (clamped to [`Matern52::bounds`]).
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.n_params());
        let bounds = self.bounds();
        for (i, l) in self.log_lengthscales.iter_mut().enumerate() {
            *l = params[i].clamp(bounds[i].0, bounds[i].1);
        }
        let d = self.dim();
        self.log_signal_variance = params[d].clamp(bounds[d].0, bounds[d].1);
    }

    /// Per-parameter `(lo, hi)` bounds in log space.
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        // Lengthscales in [0.03, 30] for [0,1]^d inputs; signal variance in
        // [1e-4, 1e3] for standardized outputs.
        let mut b = vec![((0.03_f64).ln(), (30.0_f64).ln()); self.dim()];
        b.push(((1e-4_f64).ln(), (1e3_f64).ln()));
        b
    }

    /// Prior variance at a point, `k(x, x) = s^2`.
    pub fn prior_variance(&self) -> f64 {
        self.log_signal_variance.exp()
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

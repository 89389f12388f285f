//! Exact Gaussian-process regression with marginal-likelihood hyperparameter
//! fitting, and the posterior pieces both GP backends share.
//!
//! Prediction has one implementation, [`GaussianProcess::predict_batch`]:
//! the cross-kernel `K(X, P)` is one matrix, the means one `alpha^T K(X, P)`
//! product, and the variance reduction one blocked forward solve.
//! [`GaussianProcess::predict`] is a batch of one, and
//! [`GaussianProcess::sample_joint`] builds its posterior mean and
//! covariance from the same terms.

use crate::kernel::Matern52;
use crate::rand_util;
use linalg::{Cholesky, LinalgError, Matrix};
use xrand::rngs::StdRng;
use xrand::{Rng, SeedableRng};

/// Errors from GP construction and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Observation matrix and target vector lengths disagree.
    DataMismatch { n_x: usize, n_y: usize },
    /// A point had the wrong dimensionality.
    DimensionMismatch { expected: usize, found: usize },
    /// Input data contained NaN/inf.
    NonFinite,
    /// The kernel matrix could not be factored even with jitter.
    Factorization(String),
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::DataMismatch { n_x, n_y } => {
                write!(f, "got {n_x} inputs but {n_y} targets")
            }
            GpError::DimensionMismatch { expected, found } => {
                write!(f, "expected {expected}-dimensional points, found {found}")
            }
            GpError::NonFinite => write!(f, "training data contains non-finite values"),
            GpError::Factorization(e) => write!(f, "kernel factorization failed: {e}"),
        }
    }
}

impl std::error::Error for GpError {}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        GpError::Factorization(e.to_string())
    }
}

/// Rejects the first point whose length is not `dim`.
pub(crate) fn check_dims(points: &[Vec<f64>], dim: usize) -> Result<(), GpError> {
    match points.iter().find(|p| p.len() != dim) {
        Some(p) => Err(GpError::DimensionMismatch { expected: dim, found: p.len() }),
        None => Ok(()),
    }
}

/// `offset + w^T K`: one entry per column of `k`, summed over `k`'s rows in
/// ascending order (the order a per-point `dot(k_*, w)` sums in).
pub(crate) fn weighted_columns(offset: f64, w: &[f64], k: &Matrix) -> Vec<f64> {
    let cross = Matrix::from_vec(1, w.len(), w.to_vec()).matmul(k).expect("one weight per row");
    cross.data().iter().map(|c| offset + c).collect()
}

/// Draws `n_samples` vectors from `N(mean, cov)`, the sampling tail both GP
/// backends share. The covariance is symmetrized and its diagonal lifted by
/// `1e-9 + 1e-6 * prior_variance` first, because posterior covariances can
/// be numerically indefinite. Each sample consumes `mean.len()` standard
/// normals in order.
pub(crate) fn sample_gaussian(
    mean: &[f64],
    mut cov: Matrix,
    prior_variance: f64,
    n_samples: usize,
    rng: &mut impl Rng,
) -> Result<Vec<Vec<f64>>, GpError> {
    let m = mean.len();
    cov.symmetrize();
    cov.add_diagonal(1e-9 + 1e-6 * prior_variance);
    let cov_chol = Cholesky::factor_with_jitter(&cov)?;
    let l = cov_chol.l();
    let mut samples = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let z = rand_util::standard_normal_vec(rng, m);
        let mut s = mean.to_vec();
        for i in 0..m {
            let mut acc = 0.0;
            let row = l.row(i);
            for k in 0..=i {
                acc += row[k] * z[k];
            }
            s[i] += acc;
        }
        samples.push(s);
    }
    Ok(samples)
}

/// Posterior prediction at a single point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance of the latent function (non-negative).
    pub variance: f64,
}

impl Prediction {
    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// Configuration for GP fitting.
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Whether to optimize kernel + noise hyperparameters by maximizing the
    /// log marginal likelihood. When `false`, the kernel's current values and
    /// `initial_noise` are used as-is.
    pub optimize_hypers: bool,
    /// Number of random restarts for the hyperparameter search (the first
    /// start is always the kernel's current values — a warm start).
    pub restarts: usize,
    /// Adam iterations per restart.
    pub adam_iters: usize,
    /// Adam learning rate (log-parameter space).
    pub learning_rate: f64,
    /// Initial observation-noise *standard deviation*.
    pub initial_noise: f64,
    /// Lower bound on the noise standard deviation (keeps kernels invertible).
    pub min_noise: f64,
    /// Seed for restart perturbations.
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            optimize_hypers: true,
            restarts: 2,
            adam_iters: 40,
            learning_rate: 0.1,
            initial_noise: 0.1,
            min_noise: 1e-4,
            seed: 0,
        }
    }
}

impl GpConfig {
    /// A configuration that skips hyperparameter optimization entirely.
    pub fn fixed() -> Self {
        GpConfig { optimize_hypers: false, ..Default::default() }
    }
}

/// Exact GP regression with a constant (empirical-mean) mean function, a
/// Matérn-5/2 ARD kernel ([`Matern52`], the kernel ResTune inherits from
/// BoTorch), and Gaussian observation noise.
///
/// # Examples
///
/// ```
/// use gp::{GaussianProcess, GpConfig};
///
/// let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 3.0).sin()).collect();
/// let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
/// let pred = gp.predict(&[0.5]).unwrap();
/// assert!(pred.variance >= 0.0);
/// assert!((pred.mean - (0.5f64 * 3.0).sin()).abs() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    y_centered: Vec<f64>,
    mean_offset: f64,
    kernel: Matern52,
    log_noise_variance: f64,
    /// alpha = K_y^{-1} (y - mean)
    alpha: Vec<f64>,
    /// Cholesky factorization of K_y. Its [`Cholesky::jitter`] is the
    /// diagonal jitter the factorization needed (0.0 for a strict one): the
    /// incremental [`GaussianProcess::extend`] path only grows unjittered
    /// factors, because growing a jittered one would drift from the
    /// escalation schedule a fresh factorization runs.
    chol: Cholesky,
    dim: usize,
}

impl GaussianProcess {
    /// Fits a GP to `(x, y)`.
    ///
    /// `x` rows must share a common dimensionality `d > 0`; an empty training
    /// set is allowed (the GP then returns its prior).
    pub fn fit(x: Vec<Vec<f64>>, y: Vec<f64>, config: &GpConfig) -> Result<Self, GpError> {
        let dim = x.first().map(|p| p.len()).unwrap_or(1);
        Self::fit_with_kernel(x, y, Matern52::new(dim), config)
    }

    /// Fits a GP starting from an explicit kernel (used for warm starts).
    pub fn fit_with_kernel(
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        kernel: Matern52,
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        if x.len() != y.len() {
            return Err(GpError::DataMismatch { n_x: x.len(), n_y: y.len() });
        }
        let dim = kernel.dim();
        for p in &x {
            if p.len() != dim {
                return Err(GpError::DimensionMismatch { expected: dim, found: p.len() });
            }
            if p.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite);
            }
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite);
        }

        let mean_offset = linalg::vector::mean(&y);
        let y_centered: Vec<f64> = y.iter().map(|v| v - mean_offset).collect();

        let mut gp = GaussianProcess {
            x,
            y,
            y_centered,
            mean_offset,
            kernel,
            log_noise_variance: (config.initial_noise.max(config.min_noise).powi(2)).ln(),
            alpha: Vec::new(),
            chol: Cholesky::from_factor(Matrix::zeros(0, 0)),
            dim,
        };

        if config.optimize_hypers && gp.x.len() >= 3 {
            gp.optimize_hyperparameters(config);
        }
        gp.refactor(config.min_noise)?;
        Ok(gp)
    }

    /// Number of training observations.
    pub fn n(&self) -> usize {
        self.x.len()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Training inputs.
    pub fn train_x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Training targets (original scale as provided).
    pub fn train_y(&self) -> &[f64] {
        &self.y
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Matern52 {
        &self.kernel
    }

    /// Fitted observation-noise standard deviation.
    pub fn noise_std(&self) -> f64 {
        (self.log_noise_variance.exp()).sqrt()
    }

    fn kernel_matrix(&self) -> Matrix {
        let n = self.x.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = self.kernel.value(&self.x[i], &self.x[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    fn refactor(&mut self, min_noise: f64) -> Result<(), GpError> {
        let n = self.x.len();
        if n == 0 {
            self.alpha.clear();
            self.chol = Cholesky::from_factor(Matrix::zeros(0, 0));
            return Ok(());
        }
        let noise_var = self.log_noise_variance.exp().max(min_noise * min_noise);
        let mut k = self.kernel_matrix();
        k.add_diagonal(noise_var);
        let chol = Cholesky::factor_with_jitter(&k)?;
        self.alpha = chol.solve(&self.y_centered)?;
        self.chol = chol;
        Ok(())
    }

    /// Replaces the whole target column without touching the kernel matrix:
    /// recomputes the empirical mean, centered targets, and `alpha` by one
    /// O(n²) solve against the stored factor. Used by the incremental refit
    /// path, where per-iteration re-standardization rewrites every target
    /// value but the inputs (and therefore `K_y`) are unchanged.
    ///
    /// Bit-compatibility contract: the resulting model is bit-identical to a
    /// full non-hyperopt fit of the same `(x, y)` with the same kernel, noise,
    /// and factor.
    pub fn set_targets(&mut self, y: Vec<f64>) -> Result<(), GpError> {
        if y.len() != self.x.len() {
            return Err(GpError::DataMismatch { n_x: self.x.len(), n_y: y.len() });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite);
        }
        if self.x.is_empty() {
            self.y = y;
            self.y_centered.clear();
            self.mean_offset = 0.0;
            self.alpha.clear();
            return Ok(());
        }
        self.mean_offset = linalg::vector::mean(&y);
        self.y_centered = y.iter().map(|v| v - self.mean_offset).collect();
        self.y = y;
        self.alpha = self.chol.solve(&self.y_centered)?;
        Ok(())
    }

    /// Appends one observation *incrementally*: the stored Cholesky factor
    /// grows by one row ([`linalg::Cholesky::append_row`], O(n²)) instead of
    /// being refactored from scratch (O(n³)), keeping the current kernel and
    /// noise hyperparameters. `alpha` and the empirical mean are refreshed
    /// against the grown factor.
    ///
    /// Falls back to a full refactorization when there is no factor to grow
    /// (empty GP), the stored factor needed jitter, or the appended row makes
    /// the extension numerically non-SPD — so the call succeeds whenever a
    /// full fit would. Callers that re-optimize hyperparameters must use a
    /// full [`GaussianProcess::fit`] instead; this path deliberately reuses
    /// the last optimized values.
    ///
    /// Bit-compatibility contract: on the incremental path the result is
    /// bit-identical to a from-scratch non-hyperopt
    /// [`GaussianProcess::fit_with_kernel`] of the extended data with the
    /// same kernel and noise (pinned by tests) — `append_row` reproduces the
    /// full factorization bit-for-bit, and every downstream quantity is
    /// recomputed the same way.
    pub fn extend(&mut self, x_new: Vec<f64>, y_new: f64, config: &GpConfig) -> Result<(), GpError> {
        if x_new.len() != self.dim {
            return Err(GpError::DimensionMismatch { expected: self.dim, found: x_new.len() });
        }
        if x_new.iter().any(|v| !v.is_finite()) || !y_new.is_finite() {
            return Err(GpError::NonFinite);
        }
        let n = self.x.len();
        self.x.push(x_new);
        self.y.push(y_new);
        self.mean_offset = linalg::vector::mean(&self.y);
        self.y_centered = self.y.iter().map(|v| v - self.mean_offset).collect();
        if n == 0 || self.chol.jitter() != 0.0 {
            return self.refactor(config.min_noise);
        }
        let noise_var = self.log_noise_variance.exp().max(config.min_noise * config.min_noise);
        let x_last = self.x.last().expect("just pushed");
        let cross: Vec<f64> =
            self.x[..n].iter().map(|xi| self.kernel.value(x_last, xi)).collect();
        let diag = self.kernel.value(x_last, x_last) + noise_var;
        if self.chol.append_row(&cross, diag).is_err() {
            // Numerically non-SPD extension (the factor is left untouched):
            // the full path's jitter escalation handles it.
            return self.refactor(config.min_noise);
        }
        self.alpha = self.chol.solve(&self.y_centered)?;
        Ok(())
    }

    /// Log marginal likelihood of the current hyperparameters.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.x.len();
        if n == 0 {
            return 0.0;
        }
        let data_fit = -0.5 * linalg::vector::dot(&self.y_centered, &self.alpha);
        let complexity = -0.5 * self.chol.log_determinant();
        data_fit + complexity - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Posterior prediction at one point: a batch of one.
    pub fn predict(&self, point: &[f64]) -> Result<Prediction, GpError> {
        Ok(self.predict_batch(&[point.to_vec()])?[0])
    }

    /// The posterior terms prediction and joint sampling share at `points`:
    /// the means `mean + alpha^T K(X, P)` and `V = L^{-1} K(X, P)` (`n x m`),
    /// from one cross-kernel matrix and one blocked forward solve
    /// ([`linalg::Cholesky::solve_lower_matrix`]). Column `c` depends on
    /// `points[c]` alone, so a point's prediction does not depend on the
    /// rest of its batch.
    fn posterior_terms(&self, points: &[Vec<f64>]) -> Result<(Vec<f64>, Matrix), GpError> {
        check_dims(points, self.dim)?;
        let (n, m) = (self.x.len(), points.len());
        if n == 0 || m == 0 {
            return Ok((vec![self.mean_offset; m], Matrix::zeros(0, m)));
        }
        let kstar = Matrix::from_fn(n, m, |i, c| self.kernel.value(&self.x[i], &points[c]));
        let means = weighted_columns(self.mean_offset, &self.alpha, &kstar);
        Ok((means, self.chol.solve_lower_matrix(&kstar)?))
    }

    /// Posterior predictions at many points: mean `mean + alpha^T k_*` and
    /// variance `k_** - ||L^{-1} k_*||^2` per point, every reduction summed
    /// over the training index in ascending order.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Result<Vec<Prediction>, GpError> {
        let (means, v) = self.posterior_terms(points)?;
        let prior_var = self.kernel.prior_variance();
        Ok(means
            .into_iter()
            .enumerate()
            .map(|(c, mean)| {
                let mut reduce = 0.0;
                for i in 0..v.rows() {
                    reduce += v[(i, c)] * v[(i, c)];
                }
                Prediction { mean, variance: (prior_var - reduce).max(0.0) }
            })
            .collect())
    }

    /// Joint posterior samples of the latent function at `points`.
    ///
    /// Returns `n_samples` vectors, each of length `points.len()`. Used by the
    /// RGPE-style dynamic weighting to estimate the probability that a
    /// base-learner has the lowest ranking loss (§6.4.2).
    pub fn sample_joint(
        &self,
        points: &[Vec<f64>],
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<f64>>, GpError> {
        let m = points.len();
        if m == 0 {
            return Ok(vec![Vec::new(); n_samples]);
        }
        // Posterior covariance K(P, P) - V^T V at the query points; the rows
        // of V^T are V's columns, so each entry is one contiguous dot.
        let (mean, v) = self.posterior_terms(points)?;
        let vt = v.transpose();
        let mut cov = Matrix::from_fn(m, m, |i, j| self.kernel.value(&points[i], &points[j]));
        for i in 0..m {
            for j in 0..=i {
                cov[(i, j)] -= linalg::vector::dot(vt.row(i), vt.row(j));
                cov[(j, i)] = cov[(i, j)];
            }
        }
        sample_gaussian(&mean, cov, self.kernel.prior_variance(), n_samples, rng)
    }

    /// Closed-form leave-one-out posterior predictions (Rasmussen & Williams
    /// Eqs. 5.10–5.12): for each training index `i`, the prediction at `x_i`
    /// from the GP trained on all other points, *without* refitting
    /// hyperparameters.
    pub fn loo_predictions(&self) -> Result<Vec<Prediction>, GpError> {
        let n = self.n();
        if n == 0 {
            return Ok(Vec::new());
        }
        let kinv = self.chol.inverse()?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let kii = kinv[(i, i)];
            let variance = (1.0 / kii).max(0.0);
            let mean = self.y[i] - self.alpha[i] / kii;
            out.push(Prediction { mean, variance });
        }
        Ok(out)
    }

    // ---- hyperparameter optimization ------------------------------------

    /// Negative log marginal likelihood and its gradient for flat parameters
    /// `[kernel params..., log noise variance]`.
    fn nll_and_grad(&self, params: &[f64], min_noise: f64) -> Option<(f64, Vec<f64>)> {
        let n = self.x.len();
        let kp = self.kernel.n_params();
        let mut kernel = self.kernel.clone();
        kernel.set_params(&params[..kp]);
        let noise_var = params[kp].exp().max(min_noise * min_noise);

        // Assemble K_y and per-parameter gradient matrices.
        let mut k = Matrix::zeros(n, n);
        let mut grads: Vec<Matrix> = (0..kp).map(|_| Matrix::zeros(n, n)).collect();
        let mut gbuf = vec![0.0; kp];
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.value_and_grad(&self.x[i], &self.x[j], &mut gbuf);
                k[(i, j)] = v;
                k[(j, i)] = v;
                for (p, g) in gbuf.iter().enumerate() {
                    grads[p][(i, j)] = *g;
                    grads[p][(j, i)] = *g;
                }
            }
            k[(i, i)] += noise_var;
        }
        let chol = Cholesky::factor_with_jitter(&k).ok()?;
        let alpha = chol.solve(&self.y_centered).ok()?;
        let kinv = chol.inverse().ok()?;
        let nll = 0.5 * linalg::vector::dot(&self.y_centered, &alpha)
            + 0.5 * chol.log_determinant()
            + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        // dNLL/dtheta = -0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta)
        let mut grad = vec![0.0; kp + 1];
        for (p, dk) in grads.iter().enumerate() {
            let mut tr = 0.0;
            for i in 0..n {
                for j in 0..n {
                    tr += (alpha[i] * alpha[j] - kinv[(i, j)]) * dk[(i, j)];
                }
            }
            grad[p] = -0.5 * tr;
        }
        // Noise gradient: dK/dlog(sigma_n^2) = sigma_n^2 I.
        let mut tr = 0.0;
        for i in 0..n {
            tr += alpha[i] * alpha[i] - kinv[(i, i)];
        }
        grad[kp] = -0.5 * tr * noise_var;
        Some((nll, grad))
    }

    fn optimize_hyperparameters(&mut self, config: &GpConfig) {
        let kp = self.kernel.n_params();
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(self.x.len() as u64));
        let noise_bounds = ((config.min_noise * config.min_noise).ln(), (1.0_f64).ln());

        let mut start = self.kernel.params();
        start.push(self.log_noise_variance);

        let mut best: Option<(f64, Vec<f64>)> = None;
        for restart in 0..config.restarts.max(1) {
            let mut params = if restart == 0 {
                start.clone()
            } else {
                // Perturbed restart around sensible defaults.
                let mut p = vec![0.0; kp + 1];
                for v in p.iter_mut().take(kp) {
                    *v = rand_util::normal(&mut rng, 0.0, 1.0);
                }
                p[kp] = rand_util::normal(&mut rng, (0.01_f64).ln(), 1.0);
                p
            };
            // Adam ascent on LML == descent on NLL. The restart's candidate
            // is the best-NLL iterate seen *along* the trajectory, not the
            // last one: Adam does not descend monotonically, and a diverging
            // final step used to be selected over an earlier better point.
            let mut m = vec![0.0; kp + 1];
            let mut v = vec![0.0; kp + 1];
            let (b1, b2, eps) = (0.9, 0.999, 1e-8);
            let mut restart_best: Option<(f64, Vec<f64>)> = None;
            let note = |nll: f64, params: &[f64], best: &mut Option<(f64, Vec<f64>)>| {
                if nll.is_finite() && best.as_ref().map(|(b, _)| nll < *b).unwrap_or(true) {
                    *best = Some((nll, params.to_vec()));
                }
            };
            for t in 1..=config.adam_iters {
                let Some((nll, grad)) = self.nll_and_grad(&params, config.min_noise) else {
                    break;
                };
                note(nll, &params, &mut restart_best);
                for i in 0..params.len() {
                    m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
                    v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
                    let mhat = m[i] / (1.0 - b1.powi(t as i32));
                    let vhat = v[i] / (1.0 - b2.powi(t as i32));
                    params[i] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
                }
                // Clamp: kernel bounds + noise bounds.
                let kb = self.kernel.bounds();
                for i in 0..kp {
                    params[i] = params[i].clamp(kb[i].0, kb[i].1);
                }
                params[kp] = params[kp].clamp(noise_bounds.0, noise_bounds.1);
            }
            // The post-loop iterate was stepped to but never evaluated inside
            // the loop; it competes on equal terms.
            if let Some((final_nll, _)) = self.nll_and_grad(&params, config.min_noise) {
                note(final_nll, &params, &mut restart_best);
            }
            if let Some((nll, p)) = restart_best {
                if best.as_ref().map(|(b, _)| nll < *b).unwrap_or(true) {
                    best = Some((nll, p));
                }
            }
        }
        if let Some((_, params)) = best {
            self.kernel.set_params(&params[..kp]);
            self.log_noise_variance = params[kp].clamp(noise_bounds.0, noise_bounds.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::StdRng;
    use xrand::SeedableRng;

    impl GaussianProcess {
        /// The textbook per-point posterior over the private fields (`k_*`,
        /// `mean + k_*^T alpha`, `s^2 - ||L^{-1} k_*||^2` by one forward
        /// solve): the oracle the batched path is held to, bit for bit.
        pub(crate) fn reference_predict(&self, point: &[f64]) -> Prediction {
            let prior_var = self.kernel.prior_variance();
            if self.x.is_empty() {
                return Prediction { mean: self.mean_offset, variance: prior_var };
            }
            let kstar: Vec<f64> = self.x.iter().map(|xi| self.kernel.value(xi, point)).collect();
            let mean = self.mean_offset + linalg::vector::dot(&kstar, &self.alpha);
            let v = self.chol.solve_lower(&kstar).unwrap();
            Prediction { mean, variance: (prior_var - linalg::vector::dot(&v, &v)).max(0.0) }
        }
    }

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = sin(2 pi x) observed on a grid.
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|x| (2.0 * std::f64::consts::PI * x[0]).sin()).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_data_with_low_noise() {
        let (xs, ys) = toy_data();
        let cfg = GpConfig { seed: 3, ..Default::default() };
        let gp = GaussianProcess::fit(xs.clone(), ys.clone(), &cfg).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.15, "pred {} vs {}", p.mean, y);
        }
    }

    #[test]
    fn prior_prediction_without_data() {
        let gp = GaussianProcess::fit(Vec::new(), Vec::new(), &GpConfig::fixed()).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert_eq!(p.mean, 0.0);
        assert!(p.variance > 0.0);
    }

    #[test]
    fn variance_shrinks_near_observations() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
        let near = gp.predict(&[0.0]).unwrap();
        let far = gp.predict(&[3.0]).unwrap();
        assert!(near.variance < far.variance);
    }

    #[test]
    fn hyperopt_improves_marginal_likelihood() {
        let (xs, ys) = toy_data();
        let fixed = GaussianProcess::fit(xs.clone(), ys.clone(), &GpConfig::fixed()).unwrap();
        let cfg = GpConfig { adam_iters: 60, ..Default::default() };
        let fitted = GaussianProcess::fit(xs, ys, &cfg).unwrap();
        assert!(
            fitted.log_marginal_likelihood() >= fixed.log_marginal_likelihood() - 1e-6,
            "fitted {} < fixed {}",
            fitted.log_marginal_likelihood(),
            fixed.log_marginal_likelihood()
        );
    }

    #[test]
    fn mismatched_data_is_rejected() {
        let err = GaussianProcess::fit(vec![vec![0.0]], vec![1.0, 2.0], &GpConfig::fixed());
        assert!(matches!(err, Err(GpError::DataMismatch { .. })));
        let err =
            GaussianProcess::fit(vec![vec![0.0], vec![0.0, 1.0]], vec![1.0, 2.0], &GpConfig::fixed());
        assert!(matches!(err, Err(GpError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_data_is_rejected() {
        let err =
            GaussianProcess::fit(vec![vec![f64::NAN]], vec![1.0], &GpConfig::fixed());
        assert!(matches!(err, Err(GpError::NonFinite)));
        let err = GaussianProcess::fit(vec![vec![0.0]], vec![f64::INFINITY], &GpConfig::fixed());
        assert!(matches!(err, Err(GpError::NonFinite)));
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_the_per_point_reference() {
        let (xs, ys) = toy_data();
        let cfg = GpConfig { seed: 5, ..Default::default() };
        let gp = GaussianProcess::fit(xs, ys, &cfg).unwrap();
        let pts: Vec<Vec<f64>> = (0..37).map(|i| vec![i as f64 / 36.0 * 1.4 - 0.2]).collect();
        let batch = gp.predict_batch(&pts).unwrap();
        assert_eq!(batch.len(), pts.len());
        for (p, b) in pts.iter().zip(&batch) {
            let reference = gp.reference_predict(p);
            assert_eq!(reference.mean.to_bits(), b.mean.to_bits(), "mean at {p:?}");
            assert_eq!(reference.variance.to_bits(), b.variance.to_bits(), "variance at {p:?}");
        }
        // The same holds after a rank-1 extension, on a 3-d model.
        let xs3: Vec<Vec<f64>> =
            (0..15).map(|i| vec![i as f64 / 14.0, (i as f64 * 0.37).fract(), 0.5]).collect();
        let ys3: Vec<f64> = xs3.iter().map(|x| x[0] - 2.0 * x[1]).collect();
        let cfg = GpConfig::fixed();
        let mut gp3 = GaussianProcess::fit(xs3[..14].to_vec(), ys3[..14].to_vec(), &cfg).unwrap();
        gp3.extend(xs3[14].clone(), ys3[14], &cfg).unwrap();
        let pts3: Vec<Vec<f64>> =
            (0..9).map(|i| vec![i as f64 / 8.0, 1.0 - i as f64 / 8.0, 0.1 * i as f64]).collect();
        for (p, b) in pts3.iter().zip(gp3.predict_batch(&pts3).unwrap()) {
            let reference = gp3.reference_predict(p);
            assert_eq!(reference.mean.to_bits(), b.mean.to_bits());
            assert_eq!(reference.variance.to_bits(), b.variance.to_bits());
        }
    }

    #[test]
    fn predict_batch_handles_empty_batches_and_empty_gps() {
        let gp = GaussianProcess::fit(Vec::new(), Vec::new(), &GpConfig::fixed()).unwrap();
        let preds = gp.predict_batch(&[vec![0.2], vec![0.9]]).unwrap();
        for (pred, point) in preds.iter().zip([[0.2], [0.9]]) {
            assert_eq!(*pred, gp.reference_predict(&point));
        }
        let (xs, ys) = toy_data();
        let fitted = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
        assert!(fitted.predict_batch(&[]).unwrap().is_empty());
        assert!(matches!(
            fitted.predict_batch(&[vec![0.1, 0.2]]),
            Err(GpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn sample_joint_matches_posterior_moments() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
        let pts = vec![vec![0.25], vec![0.8]];
        let mut rng = StdRng::seed_from_u64(42);
        let samples = gp.sample_joint(&pts, 4000, &mut rng).unwrap();
        for (j, pt) in pts.iter().enumerate() {
            let pred = gp.predict(pt).unwrap();
            let vals: Vec<f64> = samples.iter().map(|s| s[j]).collect();
            let mean = linalg::vector::mean(&vals);
            assert!(
                (mean - pred.mean).abs() < 0.08,
                "point {j}: sample mean {mean} vs posterior {}",
                pred.mean
            );
        }
    }

    #[test]
    fn loo_predictions_match_explicit_refit() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit_with_kernel(
            xs.clone(),
            ys.clone(),
            Matern52::with_hyperparameters(&[0.3], 1.0),
            &GpConfig::fixed(),
        )
        .unwrap();
        let loo = gp.loo_predictions().unwrap();
        // Explicitly refit without point 5 and compare prediction at x_5.
        let hold = 5;
        let mut xs2 = xs.clone();
        let mut ys2 = ys.clone();
        xs2.remove(hold);
        ys2.remove(hold);
        let gp2 = GaussianProcess::fit_with_kernel(
            xs2,
            ys2,
            Matern52::with_hyperparameters(&[0.3], 1.0),
            &GpConfig::fixed(),
        )
        .unwrap();
        let direct = gp2.predict(&xs[hold]).unwrap();
        // The closed-form LOO centers on the full-data mean, so allow a small
        // tolerance rather than exact agreement.
        assert!(
            (loo[hold].mean - direct.mean).abs() < 0.05,
            "loo {} vs refit {}",
            loo[hold].mean,
            direct.mean
        );
    }

    #[test]
    fn extend_is_bit_identical_to_full_refit_with_same_hypers() {
        let (xs, ys) = toy_data();
        let cfg = GpConfig::fixed();
        let mut gp = GaussianProcess::fit(xs[..10].to_vec(), ys[..10].to_vec(), &cfg).unwrap();
        gp.extend(xs[10].clone(), ys[10], &cfg).unwrap();
        gp.extend(xs[11].clone(), ys[11], &cfg).unwrap();
        let full = GaussianProcess::fit(xs.clone(), ys.clone(), &cfg).unwrap();
        assert_eq!(gp.n(), full.n());
        for p in [vec![0.13], vec![0.5], vec![0.97]] {
            let a = gp.predict(&p).unwrap();
            let b = full.predict(&p).unwrap();
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "mean at {p:?}");
            assert_eq!(a.variance.to_bits(), b.variance.to_bits(), "variance at {p:?}");
        }
        assert_eq!(gp.log_marginal_likelihood().to_bits(), full.log_marginal_likelihood().to_bits());
    }

    #[test]
    fn extend_from_empty_and_bad_input_are_handled() {
        let cfg = GpConfig::fixed();
        let mut gp = GaussianProcess::fit(Vec::new(), Vec::new(), &cfg).unwrap();
        // Empty GPs default to dim 1; extending from empty takes the full
        // refit path.
        gp.extend(vec![0.4], 1.0, &cfg).unwrap();
        assert_eq!(gp.n(), 1);
        assert!(gp.predict(&[0.4]).unwrap().variance.is_finite());
        assert!(matches!(
            gp.extend(vec![0.1, 0.2], 0.0, &cfg),
            Err(GpError::DimensionMismatch { .. })
        ));
        assert!(matches!(gp.extend(vec![f64::NAN], 0.0, &cfg), Err(GpError::NonFinite)));
        assert!(matches!(gp.extend(vec![0.5], f64::INFINITY, &cfg), Err(GpError::NonFinite)));
        assert_eq!(gp.n(), 1, "rejected extensions must not grow the training set");
    }

    #[test]
    fn set_targets_matches_fresh_fit_bitwise() {
        let (xs, ys) = toy_data();
        let cfg = GpConfig::fixed();
        let mut gp = GaussianProcess::fit(xs.clone(), ys.clone(), &cfg).unwrap();
        // Re-standardized targets: every value changes, inputs don't.
        let ys2: Vec<f64> = ys.iter().map(|v| 2.5 * v - 0.3).collect();
        gp.set_targets(ys2.clone()).unwrap();
        let full = GaussianProcess::fit(xs, ys2, &cfg).unwrap();
        for p in [vec![0.21], vec![0.76]] {
            let a = gp.predict(&p).unwrap();
            let b = full.predict(&p).unwrap();
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        }
        assert!(matches!(gp.set_targets(vec![1.0]), Err(GpError::DataMismatch { .. })));
        assert!(matches!(
            gp.set_targets(vec![f64::NAN; gp.n()]),
            Err(GpError::NonFinite)
        ));
    }

    #[test]
    fn hyperopt_keeps_the_best_iterate_not_the_last() {
        // Regression for the last-iterate bug: warm-start a single restart
        // from *already optimized* hyperparameters, then run Adam with an
        // absurdly large learning rate so it diverges — the last iterate is
        // strictly worse than the warm start (an intermediate trajectory
        // point). Best-iterate selection must keep the warm start; the old
        // code kept the diverged final step.
        let (xs, ys) = toy_data();
        let tuned = GaussianProcess::fit(
            xs.clone(),
            ys.clone(),
            &GpConfig { adam_iters: 60, seed: 2, ..Default::default() },
        )
        .unwrap();
        let cfg = GpConfig {
            restarts: 1,
            adam_iters: 8,
            learning_rate: 5.0,
            initial_noise: tuned.noise_std(),
            ..Default::default()
        };
        let refit =
            GaussianProcess::fit_with_kernel(xs, ys, tuned.kernel().clone(), &cfg).unwrap();
        assert!(
            refit.log_marginal_likelihood() >= tuned.log_marginal_likelihood() - 1e-6,
            "best-iterate hyperopt must not end below its warm start: refit {} < warm {}",
            refit.log_marginal_likelihood(),
            tuned.log_marginal_likelihood()
        );
    }

    #[test]
    fn predictions_are_deterministic() {
        let (xs, ys) = toy_data();
        let cfg = GpConfig { seed: 9, ..Default::default() };
        let a = GaussianProcess::fit(xs.clone(), ys.clone(), &cfg).unwrap();
        let b = GaussianProcess::fit(xs, ys, &cfg).unwrap();
        let pa = a.predict(&[0.37]).unwrap();
        let pb = b.predict(&[0.37]).unwrap();
        assert_eq!(pa, pb);
    }
}

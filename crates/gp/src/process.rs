//! Exact Gaussian-process regression with marginal-likelihood hyperparameter
//! fitting: the one GP backend every surrogate in the workspace uses.
//!
//! Every input is a block of points, one per row of a [`linalg::Matrix`]:
//! the training inputs, which a GP holds as an `Arc` so that GPs fitted on
//! the same points (a task model's three metric GPs) share one buffer, and
//! the query points of a prediction, which may be a [`linalg::MatrixView`]
//! of some rows of a larger block.
//!
//! Prediction has one implementation, [`GaussianProcess::predict_batch`]:
//! the cross-kernel `K(X, P)` is one matrix, built dimension-major by the
//! kernel, the means one `alpha^T K(X, P)` product, and the variance
//! reduction one blocked forward solve whose column norms are summed row
//! by row.
//! [`GaussianProcess::predict`] is a batch of one, and
//! [`GaussianProcess::sample_joint`] builds its posterior mean and
//! covariance from the same terms. [`GaussianProcess::predict_mean_batch`]
//! stops after the means, skipping the solve, for callers that discard the
//! variance: an ensemble's base learners, whose variance Eq. 7 never reads.
//! A point's prediction depends on that point alone, not on the rest of
//! its block. The kernel reads cached natural-scale hyperparameters
//! derived from its log values, so every covariance is the same bits as an
//! `exp` per call.
//!
//! Hyperparameters are fitted by Adam on the negative log marginal
//! likelihood, from several restarts. A [`FitPlan`] fits one or more GPs
//! over shared inputs (a task model's three metric GPs) as one list of
//! (GP, restart) tasks, each a pure function of its index, so a caller may
//! run contiguous ranges of them anywhere; [`GaussianProcess::fit`] is a
//! plan with one GP, run inline. Each range runs on one workspace over the
//! shared inputs, which holds every buffer an evaluation writes, so an
//! evaluation allocates nothing; between GPs only the centered targets
//! change.
//!
//! The NLL gradient `-0.5 tr((alpha alpha^T - K^{-1}) dK/dθ)` takes one pass
//! per evaluation: the kernel gradients live in one packed lower-triangle
//! table (the `d + 1` gradients of a pair side by side), not in one n×n
//! matrix per parameter, built with `K_y` in one row-major pass by the
//! kernel, and one row-major sweep weighs each entry once and adds it to
//! every parameter's trace, holding the sums in fixed-width register
//! chunks. `K_y` is factored by [`linalg::Cholesky::refactor_with_jitter`]'s
//! blocked left-looking loop, and `K^{-1}` comes from
//! [`linalg::Cholesky::inverse_into`]'s blocked passes. All keep every
//! sum's operands and order, so the fit returns the bits the per-parameter
//! formulation does. The evaluation after a restart's last Adam step,
//! whose gradient is never read, computes the NLL alone.

use crate::kernel::Matern52;
use crate::rand_util;
use linalg::{Cholesky, LinalgError, Matrix};
use std::sync::Arc;
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
    /// An extension's inputs do not start with the model's training inputs.
    NotAnExtension,
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
            GpError::NotAnExtension => {
                write!(f, "the extended inputs do not start with the training inputs")
            }
        }
    }
}

impl std::error::Error for GpError {}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        match e {
            // A block of points built with a row of the wrong length.
            LinalgError::DimensionMismatch { expected, found } => {
                GpError::DimensionMismatch { expected, found }
            }
            e => GpError::Factorization(e.to_string()),
        }
    }
}

/// The input check every fit runs before it builds anything: one target per
/// point, points `dim`-dimensional (the block's width), every coordinate
/// and target finite. Points are checked in row order and the targets
/// last, so the first failure names the error.
pub fn check_inputs<S: AsRef<[f64]>>(x: &Matrix<S>, y: &[f64], dim: usize) -> Result<(), GpError> {
    if x.rows() != y.len() {
        return Err(GpError::DataMismatch { n_x: x.rows(), n_y: y.len() });
    }
    if x.cols() != dim {
        return Err(GpError::DimensionMismatch { expected: dim, found: x.cols() });
    }
    if x.data().iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFinite);
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFinite);
    }
    Ok(())
}

/// `offset + w^T K`: one entry per column of `k`, summed over `k`'s rows in
/// ascending order (the order a per-point `dot(k_*, w)` sums in).
fn weighted_columns(offset: f64, w: &[f64], k: &Matrix) -> Vec<f64> {
    let cross = Matrix::from_vec(1, w.len(), w.to_vec()).matmul(k).expect("one weight per row");
    cross.data().iter().map(|c| offset + c).collect()
}

/// `‖v_c‖²` for each column of `v`, accumulated row by row so the inner
/// loop streams a contiguous row; each column still sums its squares over
/// the row index in ascending order. A `0 x m` `v` gives `m` zeros.
fn column_sq_norms(v: &Matrix) -> Vec<f64> {
    let mut norms = vec![0.0; v.cols()];
    for i in 0..v.rows() {
        for (norm, x) in norms.iter_mut().zip(v.row(i)) {
            *norm += x * x;
        }
    }
    norms
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
/// use linalg::Matrix;
///
/// let xs = Matrix::from_fn(8, 1, |i, _| i as f64 / 7.0);
/// let ys: Vec<f64> = xs.iter_rows().map(|x| (x[0] * 3.0).sin()).collect();
/// let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
/// let pred = gp.predict(&[0.5]).unwrap();
/// assert!(pred.variance >= 0.0);
/// assert!((pred.mean - (0.5f64 * 3.0).sin()).abs() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    /// The training inputs, one point per row; shared with the other GPs
    /// fitted on the same points.
    x: Arc<Matrix>,
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
    /// Fits a GP to `(x, y)`, one target per row of `x`, over points of
    /// `x`'s width. An empty training set is allowed (the GP then returns
    /// its prior).
    pub fn fit(
        x: impl Into<Arc<Matrix>>,
        y: Vec<f64>,
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        let x = x.into();
        let dim = x.cols();
        Self::fit_with_kernel(x, y, Matern52::new(dim), config)
    }

    /// Fits a GP starting from an explicit kernel (used for warm starts):
    /// a [`FitPlan`] with one GP, run inline.
    pub fn fit_with_kernel(
        x: impl Into<Arc<Matrix>>,
        y: Vec<f64>,
        kernel: Matern52,
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        let plan = FitPlan::new(x, [y], kernel, config)?;
        let fits = plan.run(0..plan.tasks());
        plan.finish(fits).next().expect("a plan with one target fits one GP")
    }

    /// A GP over `(x, y)` with its targets centered and the start point of
    /// a fit: `kernel` and the configured initial noise, nothing factored.
    fn unfitted(x: Arc<Matrix>, y: Vec<f64>, kernel: Matern52, config: &GpConfig) -> Self {
        let mean_offset = linalg::vector::mean(&y);
        let y_centered: Vec<f64> = y.iter().map(|v| v - mean_offset).collect();
        GaussianProcess {
            x,
            y,
            y_centered,
            mean_offset,
            dim: kernel.dim(),
            kernel,
            log_noise_variance: (config.initial_noise.max(config.min_noise).powi(2)).ln(),
            alpha: Vec::new(),
            chol: Cholesky::from_factor(Matrix::zeros(0, 0)),
        }
    }

    /// Number of training observations.
    pub fn n(&self) -> usize {
        self.x.rows()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Training inputs, one point per row.
    pub fn train_x(&self) -> &Matrix {
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

    fn refactor(&mut self, min_noise: f64) -> Result<(), GpError> {
        let n = self.x.rows();
        if n == 0 {
            self.alpha.clear();
            self.chol = Cholesky::from_factor(Matrix::zeros(0, 0));
            return Ok(());
        }
        let noise_var = self.log_noise_variance.exp().max(min_noise * min_noise);
        let mut k = Matrix::zeros(n, n);
        self.kernel.gram(&self.x, noise_var, &mut k, None);
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
        if y.len() != self.n() {
            return Err(GpError::DataMismatch { n_x: self.n(), n_y: y.len() });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite);
        }
        if self.n() == 0 {
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
    /// `x` is the grown training block: the model's `n` training points,
    /// then the new point as row `n`. The model keeps that block, so GPs
    /// fitted on the same points can be extended by one shared block.
    /// A block of another size or width, or whose first `n` rows are not the
    /// training inputs, is an error, and so is a non-finite new point or
    /// target; an error leaves the model unchanged.
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
    pub fn extend(
        &mut self,
        x: Arc<Matrix>,
        y_new: f64,
        config: &GpConfig,
    ) -> Result<(), GpError> {
        let n = self.n();
        if x.cols() != self.dim {
            return Err(GpError::DimensionMismatch { expected: self.dim, found: x.cols() });
        }
        if x.rows() != n + 1 {
            return Err(GpError::DataMismatch { n_x: x.rows(), n_y: n + 1 });
        }
        if x.view(0..n).data() != self.x.data() {
            return Err(GpError::NotAnExtension);
        }
        check_inputs(&x.view(n..n + 1), &[y_new], self.dim)?;
        self.x = x;
        self.y.push(y_new);
        self.mean_offset = linalg::vector::mean(&self.y);
        self.y_centered = self.y.iter().map(|v| v - self.mean_offset).collect();
        if n == 0 || self.chol.jitter() != 0.0 {
            return self.refactor(config.min_noise);
        }
        let noise_var = self.log_noise_variance.exp().max(config.min_noise * config.min_noise);
        let x_last = self.x.row(n);
        let cross: Vec<f64> =
            self.x.view(0..n).iter_rows().map(|xi| self.kernel.value(x_last, xi)).collect();
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
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        let data_fit = -0.5 * linalg::vector::dot(&self.y_centered, &self.alpha);
        let complexity = -0.5 * self.chol.log_determinant();
        data_fit + complexity - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Posterior prediction at one point: a batch of one.
    pub fn predict(&self, point: &[f64]) -> Result<Prediction, GpError> {
        Ok(self.predict_batch(&Matrix::from_vec(1, point.len(), point.to_vec()))?[0])
    }

    /// The means `mean + alpha^T K(X, P)` at the points (rows) of `points`
    /// and the cross-kernel `K(X, P)` (`n x m`) they came from: the one place
    /// this backend computes posterior means. An empty model or batch gives
    /// a `0 x m` matrix. Column `c` depends on point `c` alone, so a point's
    /// prediction does not depend on the rest of its batch.
    fn mean_terms<S: AsRef<[f64]>>(
        &self,
        points: &Matrix<S>,
    ) -> Result<(Vec<f64>, Matrix), GpError> {
        if points.cols() != self.dim {
            return Err(GpError::DimensionMismatch { expected: self.dim, found: points.cols() });
        }
        let (n, m) = (self.n(), points.rows());
        if n == 0 || m == 0 {
            return Ok((vec![self.mean_offset; m], Matrix::zeros(0, m)));
        }
        let kstar = self.kernel.cross(&*self.x, points);
        Ok((weighted_columns(self.mean_offset, &self.alpha, &kstar), kstar))
    }

    /// The posterior terms prediction and joint sampling share at `points`:
    /// the means and `V = L^{-1} K(X, P)`, by one blocked forward solve
    /// ([`linalg::Cholesky::solve_lower_matrix`]) that overwrites the
    /// cross-kernel block `mean_terms` returns.
    fn posterior_terms<S: AsRef<[f64]>>(
        &self,
        points: &Matrix<S>,
    ) -> Result<(Vec<f64>, Matrix), GpError> {
        let (means, kstar) = self.mean_terms(points)?;
        if kstar.rows() == 0 {
            return Ok((means, kstar));
        }
        Ok((means, self.chol.solve_lower_matrix(kstar)?))
    }

    /// Posterior means alone at the points (rows) of `points`:
    /// [`GaussianProcess::predict_batch`]'s means bit for bit, without the
    /// variance's forward solve. For callers that discard the variance, such
    /// as an ensemble's base learners (Eq. 7 takes the variance from the
    /// target alone).
    pub fn predict_mean_batch<S: AsRef<[f64]>>(
        &self,
        points: &Matrix<S>,
    ) -> Result<Vec<f64>, GpError> {
        Ok(self.mean_terms(points)?.0)
    }

    /// Posterior predictions at the points (rows) of `points`: mean
    /// `mean + alpha^T k_*` and variance `k_** - ||L^{-1} k_*||^2` per
    /// point, every reduction summed over the training index in ascending
    /// order. A block of another width is a
    /// [`GpError::DimensionMismatch`], even when it has no rows.
    pub fn predict_batch<S: AsRef<[f64]>>(
        &self,
        points: &Matrix<S>,
    ) -> Result<Vec<Prediction>, GpError> {
        let (means, v) = self.posterior_terms(points)?;
        let prior_var = self.kernel.prior_variance();
        let reduce = column_sq_norms(&v);
        Ok(means
            .into_iter()
            .zip(reduce)
            .map(|(mean, reduce)| Prediction { mean, variance: (prior_var - reduce).max(0.0) })
            .collect())
    }

    /// Joint posterior samples of the latent function at the points (rows)
    /// of `points`, one sample per row of the result (`n_samples x m`).
    ///
    /// Used by the RGPE-style dynamic weighting to estimate the probability
    /// that a base-learner has the lowest ranking loss (§6.4.2). The
    /// posterior covariance is symmetrized and its diagonal lifted by
    /// `1e-9 + 1e-6 * prior_variance` before it is factored, because it can
    /// be numerically indefinite. Each sample consumes `points.rows()`
    /// standard normals in order.
    pub fn sample_joint<S: AsRef<[f64]>>(
        &self,
        points: &Matrix<S>,
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<Matrix, GpError> {
        let m = points.rows();
        if m == 0 {
            return Ok(Matrix::zeros(n_samples, 0));
        }
        // Posterior covariance K(P, P) - V^T V at the query points; the rows
        // of V^T are V's columns, so each entry is one contiguous dot.
        let (mean, v) = self.posterior_terms(points)?;
        let vt = v.transpose();
        let mut cov = self.kernel.cross(points, points);
        for i in 0..m {
            for j in 0..=i {
                cov[(i, j)] -= linalg::vector::dot(vt.row(i), vt.row(j));
                cov[(j, i)] = cov[(i, j)];
            }
        }
        cov.symmetrize();
        cov.add_diagonal(1e-9 + 1e-6 * self.kernel.prior_variance());
        let cov_chol = Cholesky::factor_with_jitter(&cov)?;
        let l = cov_chol.l();
        let mut samples = Matrix::zeros(n_samples, m);
        for s in 0..n_samples {
            let z = rand_util::standard_normal_vec(rng, m);
            let sample = samples.row_mut(s);
            sample.copy_from_slice(&mean);
            for i in 0..m {
                let mut acc = 0.0;
                let row = l.row(i);
                for k in 0..=i {
                    acc += row[k] * z[k];
                }
                sample[i] += acc;
            }
        }
        Ok(samples)
    }

    /// Closed-form leave-one-out posterior predictions (Rasmussen & Williams
    /// Eqs. 5.10–5.12): for each training index `i`, the prediction at `x_i`
    /// from the GP trained on all other points, *without* refitting
    /// hyperparameters. It inverts the stored factor, so it cannot fail.
    pub fn loo_predictions(&self) -> Vec<Prediction> {
        let kinv = self.chol.inverse();
        (0..self.n())
            .map(|i| {
                let kii = kinv[(i, i)];
                let variance = (1.0 / kii).max(0.0);
                let mean = self.y[i] - self.alpha[i] / kii;
                Prediction { mean, variance }
            })
            .collect()
    }
}

/// One restart task's outcome: the lowest finite NLL along its Adam
/// trajectory (`+∞` when it saw none) and the parameters that reached it.
#[derive(Debug)]
pub struct RestartFit {
    nll: f64,
    params: Vec<f64>,
}

/// The hyperparameter fit of one or more GPs that share their inputs (a
/// task model's three metric GPs, paper §5.1), as a list of restart tasks.
/// The GPs hold one `Arc` of the input block between them.
///
/// Task `t` is restart `t % r` of GP `t / r`, for `r` restarts per GP (none
/// when the configuration keeps the start point or there are fewer than
/// three points). Restart 0 starts from the GP's kernel and initial noise,
/// and restart `r >= 1` from a point drawn up front, in restart order, from
/// one `StdRng` seeded `config.seed + n`: the same for every GP, as each
/// GP's own stream would draw it. So every task is a pure function of its
/// index, and [`FitPlan::run`] may split the tasks into contiguous ranges
/// and run them anywhere, in any grouping, without moving a bit.
/// [`FitPlan::finish`] gives each GP the best of its restarts, in restart
/// order, and factors it once.
#[derive(Debug)]
pub struct FitPlan {
    gps: Vec<GaussianProcess>,
    /// Start points of restarts `1..restarts`, one per row.
    starts: Matrix,
    restarts: usize,
    kernel_bounds: Vec<(f64, f64)>,
    config: GpConfig,
}

impl FitPlan {
    /// The plan for one GP per target column over the shared inputs `x`
    /// (one point per row), each starting from `kernel`. Runs
    /// [`check_inputs`] on each column in order, and fails with the first
    /// error.
    pub fn new(
        x: impl Into<Arc<Matrix>>,
        targets: impl IntoIterator<Item = Vec<f64>>,
        kernel: Matern52,
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        let x = x.into();
        let (n, kp) = (x.rows(), kernel.n_params());
        let gps = targets
            .into_iter()
            .map(|y| {
                check_inputs(&*x, &y, kernel.dim())?;
                Ok(GaussianProcess::unfitted(Arc::clone(&x), y, kernel.clone(), config))
            })
            .collect::<Result<_, GpError>>()?;
        let restarts = if config.optimize_hypers && n >= 3 { config.restarts.max(1) } else { 0 };
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(n as u64));
        // Perturbed restarts around sensible defaults.
        let starts = Matrix::from_fn(restarts.saturating_sub(1), kp + 1, |_, j| match j {
            j if j < kp => rand_util::normal(&mut rng, 0.0, 1.0),
            _ => rand_util::normal(&mut rng, (0.01_f64).ln(), 1.0),
        });
        let kernel_bounds = kernel.bounds();
        Ok(FitPlan { gps, starts, restarts, kernel_bounds, config: config.clone() })
    }

    /// The number of restart tasks.
    pub fn tasks(&self) -> usize {
        self.gps.len() * self.restarts
    }

    /// Runs tasks `tasks` in order on one workspace over the shared inputs,
    /// swapping only the centered targets between GPs. Each task opens a
    /// `fit_restart` span (fields `metric`, the GP's index in the plan, and
    /// `restart`).
    pub fn run(&self, tasks: std::ops::Range<usize>) -> Vec<RestartFit> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut ws = FitWorkspace::new(&self.gps[0].x, self.gps[0].dim);
        tasks
            .map(|t| {
                let (g, r) = (t / self.restarts, t % self.restarts);
                let _span = trace::span!("fit_restart", metric = g, restart = r);
                let gp = &self.gps[g];
                let start = match r {
                    0 => {
                        let mut p = gp.kernel.params();
                        p.push(gp.log_noise_variance);
                        p
                    }
                    _ => self.starts.row(r - 1).to_vec(),
                };
                ws.descend(&gp.y_centered, start, &self.kernel_bounds, &self.config)
            })
            .collect()
    }

    /// The fitted GPs, in target order, from every task's [`RestartFit`] in
    /// task order: each GP takes the lowest NLL of its restarts (a strict
    /// `<` in restart order, so the first of equals), keeps its start point
    /// when none was finite, and is factored once. Lazy: a GP is selected
    /// and factored when the iterator reaches it.
    pub fn finish(
        self,
        fits: Vec<RestartFit>,
    ) -> impl Iterator<Item = Result<GaussianProcess, GpError>> {
        debug_assert_eq!(fits.len(), self.tasks(), "one fit per restart task");
        let FitPlan { gps, restarts, config, .. } = self;
        let noise_bounds = ((config.min_noise * config.min_noise).ln(), (1.0_f64).ln());
        let mut fits = fits.into_iter();
        gps.into_iter().map(move |mut gp| {
            let mut best: Option<RestartFit> = None;
            for fit in fits.by_ref().take(restarts) {
                if fit.nll < best.as_ref().map_or(f64::INFINITY, |b| b.nll) {
                    best = Some(fit);
                }
            }
            if let Some(best) = best {
                let kp = gp.kernel.n_params();
                gp.kernel.set_params(&best.params[..kp]);
                gp.log_noise_variance = best.params[kp].clamp(noise_bounds.0, noise_bounds.1);
            }
            gp.refactor(config.min_noise)?;
            Ok(gp)
        })
    }
}

/// Parameters per chunk of the trace sweep's register accumulators.
const TRACE_WIDTH: usize = 16;

/// The buffers every NLL evaluation of a [`FitPlan`] lane reuses, so that
/// an evaluation allocates nothing: one kernel that `set_params` moves to
/// each evaluation's parameters, the shared inputs, `K_y` and its packed
/// gradient table, the factor, `alpha`, the inverse with its accumulator,
/// one row of trace weights, the trace accumulators and the gradient. Every
/// evaluation overwrites all it reads, so neither a buffer's earlier
/// contents nor the GP an earlier task fitted reaches a result.
struct FitWorkspace<'a> {
    /// The inputs every GP of the plan shares.
    x: &'a Matrix,
    kernel: Matern52,
    /// `K_y`, `n x n`.
    k: Matrix,
    /// The kernel gradients, packed by pair ([`Matern52::gram`]), then
    /// `TRACE_WIDTH` spare entries the trace's last chunk may read.
    table: Vec<f64>,
    chol: Cholesky,
    alpha: Vec<f64>,
    kinv: Matrix,
    /// [`Cholesky::inverse_into`]'s accumulator.
    acc: Vec<f64>,
    /// One row of `w = alpha_i alpha_j - K^{-1}_ij`.
    w: Vec<f64>,
    /// The kernel parameters' traces, `kp` rounded up to whole chunks.
    tr: Vec<f64>,
    /// The last full evaluation's gradient, `[kernel params..., log noise]`.
    grad: Vec<f64>,
}

impl<'a> FitWorkspace<'a> {
    fn new(x: &'a Matrix, dim: usize) -> Self {
        let (n, kp) = (x.rows(), dim + 1);
        FitWorkspace {
            x,
            kernel: Matern52::new(dim),
            k: Matrix::zeros(n, n),
            table: vec![0.0; n * (n + 1) / 2 * kp + TRACE_WIDTH],
            chol: Cholesky::from_factor(Matrix::zeros(0, 0)),
            alpha: Vec::with_capacity(n),
            kinv: Matrix::zeros(n, n),
            acc: Vec::with_capacity(n),
            w: vec![0.0; n],
            tr: vec![0.0; kp.div_ceil(TRACE_WIDTH) * TRACE_WIDTH],
            grad: vec![0.0; kp + 1],
        }
    }

    /// One restart: Adam descent on the NLL of the centered targets `y`
    /// from `params`, clamped to the kernel's and the noise's bounds after
    /// every step, for `config.adam_iters` steps or until an evaluation
    /// fails to factor. Its outcome is the best-NLL iterate seen *along*
    /// the trajectory, not the last one: Adam does not descend
    /// monotonically, and a diverging final step used to be selected over
    /// an earlier better point.
    fn descend(
        &mut self,
        y: &[f64],
        mut params: Vec<f64>,
        kernel_bounds: &[(f64, f64)],
        config: &GpConfig,
    ) -> RestartFit {
        let kp = kernel_bounds.len();
        let noise_bounds = ((config.min_noise * config.min_noise).ln(), (1.0_f64).ln());
        let (mut m, mut v) = (vec![0.0; kp + 1], vec![0.0; kp + 1]);
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        let mut best = RestartFit { nll: f64::INFINITY, params: params.clone() };
        let mut note = |nll: f64, params: &[f64]| {
            if nll.is_finite() && nll < best.nll {
                best.nll = nll;
                best.params.copy_from_slice(params);
            }
        };
        for t in 1..=config.adam_iters {
            let Some(nll) = self.nll(y, &params, config.min_noise, true) else {
                break;
            };
            note(nll, &params);
            for (i, grad) in self.grad.iter().enumerate() {
                m[i] = b1 * m[i] + (1.0 - b1) * grad;
                v[i] = b2 * v[i] + (1.0 - b2) * grad * grad;
                let mhat = m[i] / (1.0 - b1.powi(t as i32));
                let vhat = v[i] / (1.0 - b2.powi(t as i32));
                params[i] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
            }
            for (p, (lo, hi)) in params.iter_mut().zip(kernel_bounds) {
                *p = p.clamp(*lo, *hi);
            }
            params[kp] = params[kp].clamp(noise_bounds.0, noise_bounds.1);
        }
        // The post-loop iterate was stepped to but never evaluated inside
        // the loop; it competes on equal terms. Its gradient would go
        // unread, so this evaluation computes the NLL alone.
        if let Some(final_nll) = self.nll(y, &params, config.min_noise, false) {
            note(final_nll, &params);
        }
        best
    }

    /// Negative log marginal likelihood of the centered targets `y` for
    /// flat parameters `[kernel params..., log noise variance]`, or `None`
    /// when `K_y` does not factor even with jitter. With `with_grad`, its
    /// gradient goes into `grad`; without, the evaluation builds `K_y`
    /// without the gradient table and skips the inverse and the trace
    /// sweep, returning the same NLL bits.
    ///
    /// The kernel builds `K_y` and the packed table in one row-major pass
    /// ([`Matern52::gram`]): the `kp` gradients of pair `(i, j <= i)` sit
    /// together at `(i(i+1)/2 + j) * kp`. One row-major sweep over all `n²`
    /// entries then forms `w = alpha_i alpha_j - K^{-1}_ij` once per row
    /// and adds `w * dK_ij/dθ_p` to every parameter's trace: for each chunk
    /// of `TRACE_WIDTH` parameters, it holds the chunk's sums in registers
    /// across the row, first over `j <= i` (the row's contiguous slots),
    /// then over `j > i` (pair `(j, i)`). So each trace sums the same terms
    /// in the same `(i, j)` order as a full n×n gradient matrix per
    /// parameter would. A last chunk wider than the parameters left fills
    /// its spare lanes from the next slot (or the table's spare entries),
    /// and those lanes are dropped.
    fn nll(&mut self, y: &[f64], params: &[f64], min_noise: f64, with_grad: bool) -> Option<f64> {
        let n = self.k.rows();
        let kp = self.kernel.n_params();
        self.kernel.set_params(&params[..kp]);
        let noise_var = params[kp].exp().max(min_noise * min_noise);
        let table = with_grad.then_some(self.table.as_mut_slice());
        self.kernel.gram(self.x, noise_var, &mut self.k, table);
        self.chol.refactor_with_jitter(&self.k).ok()?;
        self.chol.solve_into(y, &mut self.alpha).ok()?;
        let nll = 0.5 * linalg::vector::dot(y, &self.alpha)
            + 0.5 * self.chol.log_determinant()
            + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        if !with_grad {
            return Some(nll);
        }
        self.chol.inverse_into(&mut self.kinv, &mut self.acc);
        let (alpha, kinv, dk) = (&self.alpha, &self.kinv, &self.table);

        // dNLL/dtheta = -0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta)
        self.tr.fill(0.0);
        for i in 0..n {
            for (w, (aj, kij)) in self.w.iter_mut().zip(alpha.iter().zip(kinv.row(i))) {
                *w = alpha[i] * aj - kij;
            }
            let (lower, upper) = self.w.split_at(i + 1);
            let row = i * (i + 1) / 2 * kp;
            for (chunk, sums) in self.tr.chunks_exact_mut(TRACE_WIDTH).enumerate() {
                let p0 = chunk * TRACE_WIDTH;
                let mut acc = [0.0; TRACE_WIDTH];
                acc.copy_from_slice(sums);
                let mut add = |w: f64, at: usize| {
                    for (a, g) in acc.iter_mut().zip(&dk[at..at + TRACE_WIDTH]) {
                        *a += w * g;
                    }
                };
                for (j, &w) in lower.iter().enumerate() {
                    add(w, row + j * kp + p0);
                }
                // Pair `(j, i)` for `j = i + 1, ...` sits at
                // `(j(j+1)/2 + i) * kp`, `(j + 1) * kp` after the last.
                let mut at = ((i + 1) * (i + 2) / 2 + i) * kp + p0;
                for (j, &w) in (i + 1..).zip(upper) {
                    add(w, at);
                    at += (j + 1) * kp;
                }
                sums.copy_from_slice(&acc);
            }
        }
        let (tr, noise_grad) = self.grad.split_at_mut(kp);
        for (t, sum) in tr.iter_mut().zip(&self.tr) {
            *t = sum * -0.5;
        }
        // Noise gradient: dK/dlog(sigma_n^2) = sigma_n^2 I.
        let mut tr = 0.0;
        for i in 0..n {
            tr += alpha[i] * alpha[i] - kinv[(i, i)];
        }
        noise_grad[0] = -0.5 * tr * noise_var;
        Some(nll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::StdRng;
    use xrand::SeedableRng;

    /// `rows` as a block of points of the first row's width.
    fn block(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows.first().map_or(1, Vec::len), rows).unwrap()
    }

    impl GaussianProcess {
        /// The textbook per-point posterior over the private fields (`k_*`,
        /// `mean + k_*^T alpha`, `s^2 - ||L^{-1} k_*||^2` by one forward
        /// solve): the oracle the batched path is held to, bit for bit.
        fn reference_predict(&self, point: &[f64]) -> Prediction {
            let prior_var = self.kernel.prior_variance();
            if self.n() == 0 {
                return Prediction { mean: self.mean_offset, variance: prior_var };
            }
            let kstar: Vec<f64> =
                self.x.iter_rows().map(|xi| self.kernel.value(xi, point)).collect();
            let mean = self.mean_offset + linalg::vector::dot(&kstar, &self.alpha);
            let v = self.chol.solve_lower(&kstar).unwrap();
            Prediction { mean, variance: (prior_var - linalg::vector::dot(&v, &v)).max(0.0) }
        }

        /// The NLL and gradient the textbook way: one full n×n gradient
        /// matrix per parameter, `K^{-1}` by one
        /// `solve_upper(solve_lower(e_j))` per column, and one row-major
        /// trace per parameter. The oracle `nll_and_grad` is held to, bit
        /// for bit.
        fn reference_nll_and_grad(
            &self,
            params: &[f64],
            min_noise: f64,
        ) -> Option<(f64, Vec<f64>)> {
            let n = self.n();
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
                    let v = kernel.value_and_grad(self.x.row(i), self.x.row(j), &mut gbuf);
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
            let mut kinv = Matrix::zeros(n, n);
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                let col = chol.solve(&e).ok()?;
                for i in 0..n {
                    kinv[(i, j)] = col[i];
                }
            }
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

        /// A fit the way one GP was fitted before the plan: its restarts in
        /// order on one workspace, each drawing its start from the GP's own
        /// `StdRng(config.seed + n)` when it comes to it, and the best
        /// restart kept by a strict `<`. The oracle a plan is held to, GP by
        /// GP, bit for bit.
        fn reference_fit(
            x: Matrix,
            y: Vec<f64>,
            kernel: Matern52,
            config: &GpConfig,
        ) -> Result<Self, GpError> {
            check_inputs(&x, &y, kernel.dim())?;
            let mut gp = GaussianProcess::unfitted(Arc::new(x), y, kernel, config);
            if config.optimize_hypers && gp.n() >= 3 {
                let kp = gp.kernel.n_params();
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(gp.n() as u64));
                let noise_bounds = ((config.min_noise * config.min_noise).ln(), (1.0_f64).ln());
                let kernel_bounds = gp.kernel.bounds();
                let mut start = gp.kernel.params();
                start.push(gp.log_noise_variance);
                let mut ws = FitWorkspace::new(&gp.x, gp.dim);
                let (mut best_nll, mut best) = (f64::INFINITY, start.clone());
                let mut restart_best = start.clone();
                let (mut m, mut v) = (vec![0.0; kp + 1], vec![0.0; kp + 1]);
                for restart in 0..config.restarts.max(1) {
                    let mut params = if restart == 0 {
                        start.clone()
                    } else {
                        let mut p = vec![0.0; kp + 1];
                        for v in p.iter_mut().take(kp) {
                            *v = rand_util::normal(&mut rng, 0.0, 1.0);
                        }
                        p[kp] = rand_util::normal(&mut rng, (0.01_f64).ln(), 1.0);
                        p
                    };
                    m.fill(0.0);
                    v.fill(0.0);
                    let (b1, b2, eps) = (0.9, 0.999, 1e-8);
                    let mut restart_nll = f64::INFINITY;
                    let mut note = |nll: f64, params: &[f64]| {
                        if nll.is_finite() && nll < restart_nll {
                            restart_nll = nll;
                            restart_best.copy_from_slice(params);
                        }
                    };
                    for t in 1..=config.adam_iters {
                        let Some(nll) = ws.nll(&gp.y_centered, &params, config.min_noise, true)
                        else {
                            break;
                        };
                        note(nll, &params);
                        for (i, grad) in ws.grad.iter().enumerate() {
                            m[i] = b1 * m[i] + (1.0 - b1) * grad;
                            v[i] = b2 * v[i] + (1.0 - b2) * grad * grad;
                            let mhat = m[i] / (1.0 - b1.powi(t as i32));
                            let vhat = v[i] / (1.0 - b2.powi(t as i32));
                            params[i] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
                        }
                        for (p, (lo, hi)) in params.iter_mut().zip(&kernel_bounds) {
                            *p = p.clamp(*lo, *hi);
                        }
                        params[kp] = params[kp].clamp(noise_bounds.0, noise_bounds.1);
                    }
                    if let Some(nll) = ws.nll(&gp.y_centered, &params, config.min_noise, false) {
                        note(nll, &params);
                    }
                    if restart_nll < best_nll {
                        best_nll = restart_nll;
                        best.copy_from_slice(&restart_best);
                    }
                }
                drop(ws);
                if best_nll.is_finite() {
                    gp.kernel.set_params(&best[..kp]);
                    gp.log_noise_variance = best[kp].clamp(noise_bounds.0, noise_bounds.1);
                }
            }
            gp.refactor(config.min_noise)?;
            Ok(gp)
        }

        /// Every fitted field as bit patterns, so NaN, signed zeros and
        /// errors compare exactly.
        fn fit_bits(fit: &Result<Self, GpError>) -> Result<Vec<u64>, String> {
            let gp = fit.as_ref().map_err(|e| e.to_string())?;
            let mut bits: Vec<u64> = gp.kernel.params().iter().map(|v| v.to_bits()).collect();
            bits.push(gp.log_noise_variance.to_bits());
            bits.push(gp.chol.jitter().to_bits());
            bits.extend(gp.alpha.iter().chain(gp.chol.l().data()).map(|v| v.to_bits()));
            Ok(bits)
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
        let gp = GaussianProcess::fit(block(&xs), ys.clone(), &cfg).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.15, "pred {} vs {}", p.mean, y);
        }
    }

    #[test]
    fn prior_prediction_without_data() {
        let gp = GaussianProcess::fit(Matrix::zeros(0, 1), Vec::new(), &GpConfig::fixed()).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        assert_eq!(p.mean, 0.0);
        assert!(p.variance > 0.0);
    }

    #[test]
    fn variance_shrinks_near_observations() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(block(&xs), ys, &GpConfig::fixed()).unwrap();
        let near = gp.predict(&[0.0]).unwrap();
        let far = gp.predict(&[3.0]).unwrap();
        assert!(near.variance < far.variance);
    }

    #[test]
    fn hyperopt_improves_marginal_likelihood() {
        let (xs, ys) = toy_data();
        let fixed = GaussianProcess::fit(block(&xs), ys.clone(), &GpConfig::fixed()).unwrap();
        let cfg = GpConfig { adam_iters: 60, ..Default::default() };
        let fitted = GaussianProcess::fit(block(&xs), ys, &cfg).unwrap();
        assert!(
            fitted.log_marginal_likelihood() >= fixed.log_marginal_likelihood() - 1e-6,
            "fitted {} < fixed {}",
            fitted.log_marginal_likelihood(),
            fixed.log_marginal_likelihood()
        );
    }

    #[test]
    fn mismatched_data_is_rejected() {
        let err = GaussianProcess::fit(block(&[vec![0.0]]), vec![1.0, 2.0], &GpConfig::fixed());
        assert!(matches!(err, Err(GpError::DataMismatch { .. })));
        let kernel = Matern52::new(2);
        let err = GaussianProcess::fit_with_kernel(
            block(&[vec![0.0], vec![1.0]]),
            vec![1.0, 2.0],
            kernel,
            &GpConfig::fixed(),
        );
        assert_eq!(err.map(|_| ()), Err(GpError::DimensionMismatch { expected: 2, found: 1 }));
        // A ragged block never forms: its error converts to the same kind.
        let ragged = Matrix::from_rows(1, [vec![0.0], vec![0.0, 1.0]]).map_err(GpError::from);
        assert_eq!(ragged, Err(GpError::DimensionMismatch { expected: 1, found: 2 }));
    }

    #[test]
    fn non_finite_data_is_rejected() {
        let err = GaussianProcess::fit(block(&[vec![f64::NAN]]), vec![1.0], &GpConfig::fixed());
        assert!(matches!(err, Err(GpError::NonFinite)));
        let err =
            GaussianProcess::fit(block(&[vec![0.0]]), vec![f64::INFINITY], &GpConfig::fixed());
        assert!(matches!(err, Err(GpError::NonFinite)));
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_the_per_point_reference() {
        // Empty, fitted and `extend`ed models, each held to the reference at
        // every point: the batch, a batch of one, and the mean-only call.
        let (xs, ys) = toy_data();
        let hyperopt = GpConfig { seed: 5, ..Default::default() };
        let fitted = GaussianProcess::fit(block(&xs), ys.clone(), &hyperopt).unwrap();
        let cfg = GpConfig::fixed();
        let empty = GaussianProcess::fit(Matrix::zeros(0, 1), Vec::new(), &cfg).unwrap();
        let mut extended =
            GaussianProcess::fit(block(&xs[..11]), ys[..11].to_vec(), &cfg).unwrap();
        extended.extend(Arc::new(block(&xs)), ys[11], &cfg).unwrap();
        let pts = Matrix::from_fn(37, 1, |i, _| i as f64 / 36.0 * 1.4 - 0.2);
        // The same holds after a rank-1 extension, on a 3-d model.
        let xs3: Vec<Vec<f64>> =
            (0..15).map(|i| vec![i as f64 / 14.0, (i as f64 * 0.37).fract(), 0.5]).collect();
        let ys3: Vec<f64> = xs3.iter().map(|x| x[0] - 2.0 * x[1]).collect();
        let mut gp3 = GaussianProcess::fit(block(&xs3[..14]), ys3[..14].to_vec(), &cfg).unwrap();
        gp3.extend(Arc::new(block(&xs3)), ys3[14], &cfg).unwrap();
        let pts3 = Matrix::from_fn(9, 3, |i, c| {
            [i as f64 / 8.0, 1.0 - i as f64 / 8.0, 0.1 * i as f64][c]
        });
        let cases = [(&empty, &pts), (&fitted, &pts), (&extended, &pts), (&gp3, &pts3)];
        for (case, (gp, pts)) in cases.into_iter().enumerate() {
            let batch = gp.predict_batch(pts).unwrap();
            let means = gp.predict_mean_batch(pts).unwrap();
            assert_eq!(batch.len(), pts.rows());
            assert_eq!(means.len(), pts.rows());
            for ((p, b), m) in pts.iter_rows().zip(&batch).zip(&means) {
                let reference = gp.reference_predict(p);
                for got in [*b, gp.predict(p).unwrap()] {
                    assert_eq!(reference.mean.to_bits(), got.mean.to_bits(), "case {case}: {p:?}");
                    assert_eq!(reference.variance.to_bits(), got.variance.to_bits());
                }
                assert_eq!(m.to_bits(), b.mean.to_bits(), "case {case}: mean-only at {p:?}");
            }
            // Rows of a larger block, read as a view, predict the same bits.
            let tail = pts.view(2..pts.rows());
            let from_view = gp.predict_batch(&tail).unwrap();
            assert!(from_view.iter().zip(&batch[2..]).all(|(v, b)| v == b), "case {case}: view");
            let d = gp.dim();
            assert!(gp.predict_mean_batch(&Matrix::zeros(0, d)).unwrap().is_empty());
            let wrong = Matrix::from_vec(1, d + 1, vec![0.1; d + 1]);
            let want = Err(GpError::DimensionMismatch { expected: d, found: d + 1 });
            assert_eq!(gp.predict_batch(&wrong).map(|_| ()), want);
            assert_eq!(gp.predict_mean_batch(&wrong).map(|_| ()), want);
        }
    }

    #[test]
    fn predict_batch_handles_empty_batches_and_empty_gps() {
        let cfg = GpConfig::fixed();
        let gp = GaussianProcess::fit(Matrix::zeros(0, 1), Vec::new(), &cfg).unwrap();
        let preds = gp.predict_batch(&block(&[vec![0.2], vec![0.9]])).unwrap();
        for (pred, point) in preds.iter().zip([[0.2], [0.9]]) {
            assert_eq!(*pred, gp.reference_predict(&point));
        }
        let (xs, ys) = toy_data();
        let fitted = GaussianProcess::fit(block(&xs), ys, &GpConfig::fixed()).unwrap();
        assert!(fitted.predict_batch(&Matrix::zeros(0, 1)).unwrap().is_empty());
        assert!(matches!(
            fitted.predict_batch(&block(&[vec![0.1, 0.2]])),
            Err(GpError::DimensionMismatch { .. })
        ));
        // A block without rows but of another width is still the wrong width.
        assert!(matches!(
            fitted.predict_batch(&Matrix::zeros(0, 2)),
            Err(GpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_width_points_fit_predict_and_sample_without_panicking() {
        // Points with no coordinates: every covariance is the signal
        // variance, so the model is a constant-mean GP.
        let cfg = GpConfig { seed: 4, ..Default::default() };
        let ys = vec![1.0, 2.0, 4.0, 3.0];
        let gp = GaussianProcess::fit(Matrix::zeros(4, 0), ys, &cfg).unwrap();
        assert_eq!(gp.dim(), 0);
        let preds = gp.predict_batch(&Matrix::zeros(3, 0)).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|p| p.mean.is_finite() && p.variance >= 0.0));
        assert!(preds.iter().all(|p| p == &preds[0]), "every point is the same point");
        assert_eq!(gp.predict_mean_batch(&Matrix::zeros(2, 0)).unwrap().len(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        let samples = gp.sample_joint(&Matrix::zeros(2, 0), 5, &mut rng).unwrap();
        assert_eq!((samples.rows(), samples.cols()), (5, 2));
        let mut grown = gp.clone();
        grown.extend(Arc::new(Matrix::zeros(5, 0)), 2.5, &GpConfig::fixed()).unwrap();
        assert_eq!(grown.n(), 5);
        assert_eq!(
            gp.predict_batch(&Matrix::zeros(1, 2)).map(|_| ()),
            Err(GpError::DimensionMismatch { expected: 0, found: 2 })
        );
    }

    #[test]
    fn sample_joint_matches_posterior_moments() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(block(&xs), ys, &GpConfig::fixed()).unwrap();
        let pts = block(&[vec![0.25], vec![0.8]]);
        let mut rng = StdRng::seed_from_u64(42);
        let samples = gp.sample_joint(&pts, 4000, &mut rng).unwrap();
        for (j, pt) in pts.iter_rows().enumerate() {
            let pred = gp.predict(pt).unwrap();
            let vals = samples.col(j);
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
            block(&xs),
            ys.clone(),
            Matern52::with_hyperparameters(&[0.3], 1.0),
            &GpConfig::fixed(),
        )
        .unwrap();
        let loo = gp.loo_predictions();
        // Explicitly refit without point 5 and compare prediction at x_5.
        let hold = 5;
        let mut xs2 = xs.clone();
        let mut ys2 = ys.clone();
        xs2.remove(hold);
        ys2.remove(hold);
        let gp2 = GaussianProcess::fit_with_kernel(
            block(&xs2),
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
        let mut gp = GaussianProcess::fit(block(&xs[..10]), ys[..10].to_vec(), &cfg).unwrap();
        gp.extend(Arc::new(block(&xs[..11])), ys[10], &cfg).unwrap();
        gp.extend(Arc::new(block(&xs)), ys[11], &cfg).unwrap();
        let full = GaussianProcess::fit(block(&xs), ys.clone(), &cfg).unwrap();
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
        let mut gp = GaussianProcess::fit(Matrix::zeros(0, 1), Vec::new(), &cfg).unwrap();
        // Extending from empty takes the full refit path.
        gp.extend(Arc::new(block(&[vec![0.4]])), 1.0, &cfg).unwrap();
        assert_eq!(gp.n(), 1);
        assert!(gp.predict(&[0.4]).unwrap().variance.is_finite());
        let grown = |last: Vec<f64>| Arc::new(block(&[vec![0.4], last]));
        assert_eq!(
            gp.extend(Arc::new(block(&[vec![0.4, 0.0], vec![0.1, 0.2]])), 0.0, &cfg),
            Err(GpError::DimensionMismatch { expected: 1, found: 2 })
        );
        assert!(matches!(gp.extend(grown(vec![f64::NAN]), 0.0, &cfg), Err(GpError::NonFinite)));
        let infinite_target = gp.extend(grown(vec![0.5]), f64::INFINITY, &cfg);
        assert!(matches!(infinite_target, Err(GpError::NonFinite)));
        // A block that does not grow the training set by exactly one row, or
        // does not start with it.
        let two_more = Arc::new(block(&[vec![0.4], vec![0.5], vec![0.6]]));
        assert!(matches!(gp.extend(two_more, 0.0, &cfg), Err(GpError::DataMismatch { .. })));
        let moved = Arc::new(block(&[vec![0.3], vec![0.5]]));
        assert_eq!(gp.extend(moved, 0.0, &cfg), Err(GpError::NotAnExtension));
        assert_eq!(gp.n(), 1, "rejected extensions must not grow the training set");
        assert_eq!(gp.train_x().data(), &[0.4]);
    }

    #[test]
    fn set_targets_matches_fresh_fit_bitwise() {
        let (xs, ys) = toy_data();
        let cfg = GpConfig::fixed();
        let mut gp = GaussianProcess::fit(block(&xs), ys.clone(), &cfg).unwrap();
        // Re-standardized targets: every value changes, inputs don't.
        let ys2: Vec<f64> = ys.iter().map(|v| 2.5 * v - 0.3).collect();
        gp.set_targets(ys2.clone()).unwrap();
        let full = GaussianProcess::fit(block(&xs), ys2, &cfg).unwrap();
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
            block(&xs),
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
            GaussianProcess::fit_with_kernel(block(&xs), ys, tuned.kernel().clone(), &cfg).unwrap();
        assert!(
            refit.log_marginal_likelihood() >= tuned.log_marginal_likelihood() - 1e-6,
            "best-iterate hyperopt must not end below its warm start: refit {} < warm {}",
            refit.log_marginal_likelihood(),
            tuned.log_marginal_likelihood()
        );
    }

    /// `Some((nll, grad))` as bit patterns, so `None`, NaN and signed zeros
    /// compare exactly.
    fn nll_bits(out: Option<(f64, Vec<f64>)>) -> Option<(u64, Vec<u64>)> {
        out.map(|(nll, grad)| (nll.to_bits(), grad.iter().map(|g| g.to_bits()).collect()))
    }

    #[test]
    fn nll_and_grad_matches_the_per_parameter_reference_bitwise() {
        use propcheck::{check, Config};
        use std::cell::Cell;
        // Evaluations that failed to factor, needed jitter, or factored
        // strictly, over the whole run: each kind must occur.
        let outcomes = [Cell::new(0), Cell::new(0), Cell::new(0)];
        // The size ramp runs n from 1 (case 0) and 2 (case 1) up to 48.
        let cfg = Config::default().cases(64).seed(0x6B_4E11).max_size(48);
        check("nll_and_grad_matches_the_per_parameter_reference_bitwise", cfg, |g| {
            let n = g.size().max(1);
            // Up to the 14 native knobs, or up to 40 dimensions, where the
            // trace sweep runs three to six chunks of parameters.
            let d = if g.flag() { g.usize_in(1, 14) } else { g.usize_in(15, 40) };
            let mut xs: Vec<Vec<f64>> = (0..n).map(|_| g.vec_f64(d, 0.0, 1.0)).collect();
            if n >= 2 && g.flag() {
                let (from, to) = (g.usize_in(0, n - 1), g.usize_in(0, n - 1));
                xs[to] = xs[from].clone();
            }
            let ys = g.vec_f64(n, -2.0, 2.0);
            let xs = Matrix::from_rows(d, &xs).unwrap();
            let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
            // The default floor, or one far below rounding error, where a
            // duplicated point leaves `K_y` singular to working precision
            // and only the jitter ladder factors it.
            let min_noise = if g.flag() { GpConfig::default().min_noise } else { 1e-12 };
            let floor = (min_noise * min_noise).ln();
            // One workspace through several parameter vectors in turn, so a
            // buffer one evaluation leaves behind reaches the next.
            let mut ws = FitWorkspace::new(&gp.x, d);
            let y = &gp.y_centered;
            for step in 0..6 {
                // Kernel parameters in bounds, or drawn wide so most are
                // clamped on both sides.
                let wide = g.flag();
                let mut params =
                    if wide { g.vec_f64(d + 1, -12.0, 12.0) } else { g.vec_f64(d + 1, -3.0, 3.0) };
                // Log-noise in range, at or below the floor, or non-finite.
                let noise = match g.usize_in(0, 6) {
                    0 => floor - g.f64_in(0.5, 10.0),
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => f64::NAN,
                    4 => floor,
                    _ => g.f64_in(floor, 0.0),
                };
                params.push(noise);
                let want = nll_bits(gp.reference_nll_and_grad(&params, min_noise));
                if noise == f64::INFINITY {
                    propcheck::prop_assert!(
                        want.is_none(),
                        "an infinite noise variance must not factor"
                    );
                }
                // The NLL-only evaluation runs before or after the full one.
                let early = g.flag().then(|| ws.nll(y, &params, min_noise, false));
                let got =
                    nll_bits(ws.nll(y, &params, min_noise, true).map(|nll| (nll, ws.grad.clone())));
                let outcome = match &got {
                    None => 0,
                    Some(_) if ws.chol.jitter() > 0.0 => 1,
                    Some(_) => 2,
                };
                outcomes[outcome].set(outcomes[outcome].get() + 1);
                let late = early.unwrap_or_else(|| ws.nll(y, &params, min_noise, false));
                let late = late.map(f64::to_bits);
                propcheck::prop_assert!(
                    got == want,
                    "n = {n}, d = {d}, step {step}, wide = {wide}, noise = {noise}: {got:?} vs \
                     reference {want:?}"
                );
                propcheck::prop_assert!(
                    late == want.as_ref().map(|w| w.0),
                    "n = {n}, d = {d}, step {step}: NLL-only {late:?} vs reference {want:?}"
                );
            }
            Ok(())
        });
        let [failed, jittered, strict] = outcomes.map(Cell::into_inner);
        assert!(
            failed > 0 && jittered > 0 && strict > 0,
            "failed {failed}, jittered {jittered}, strict {strict}"
        );
    }

    #[test]
    fn plan_matches_sequential_per_gp_fits_bitwise() {
        use propcheck::{check, Config};
        use std::cell::Cell;
        // GPs whose restarts all saw a non-finite NLL, plans with a restart
        // that failed to factor and one that did not, and failed fits.
        let seen = [Cell::new(0), Cell::new(0), Cell::new(0)];
        // The size ramp runs n from 0 (case 0) to 24.
        let cfg = Config::default().cases(48).seed(0x9_1A_4E).max_size(25);
        check("plan_matches_sequential_per_gp_fits_bitwise", cfg, |g| {
            let n = g.size().saturating_sub(1);
            let d = g.usize_in(1, 6);
            let mut x: Vec<Vec<f64>> = (0..n).map(|_| g.vec_f64(d, 0.0, 1.0)).collect();
            if n >= 2 && g.flag() {
                let (from, to) = (g.usize_in(0, n - 1), g.usize_in(0, n - 1));
                x[to] = x[from].clone();
            }
            // A coordinate so far out that every Gram matrix is NaN.
            let far = n >= 1 && g.usize_in(0, 7) == 0;
            if far {
                x[0][0] = 1e160;
            }
            // Targets at unit scale, or so large that every NLL overflows.
            let scale = if g.usize_in(0, 3) == 0 { 1e200 } else { 1.0 };
            let targets: Vec<Vec<f64>> =
                (0..g.usize_in(1, 3)).map(|_| g.vec_f64(n, -scale, scale)).collect();
            // An infinite initial noise fails restart 0's every evaluation.
            let stuck = g.usize_in(0, 3) == 0;
            let config = GpConfig {
                optimize_hypers: g.usize_in(0, 5) != 0,
                restarts: g.usize_in(1, 3),
                adam_iters: g.usize_in(0, 10),
                learning_rate: if g.flag() { 0.1 } else { 3.0 },
                initial_noise: if stuck { f64::INFINITY } else { 0.1 },
                min_noise: if g.flag() { 1e-4 } else { 1e-12 },
                seed: g.usize_in(0, 1 << 20) as u64,
            };
            let kernel = Matern52::new(d);
            let x = Matrix::from_rows(d, &x).unwrap();
            let want: Vec<_> = targets
                .iter()
                .map(|y| {
                    GaussianProcess::reference_fit(x.clone(), y.clone(), kernel.clone(), &config)
                })
                .collect();
            let plan = FitPlan::new(x, targets, kernel, &config).unwrap();
            // Contiguous lanes at random cuts, inline or each on a thread.
            let tasks = plan.tasks();
            let mut cuts: Vec<usize> =
                (0..g.usize_in(0, 3)).map(|_| g.usize_in(0, tasks)).collect();
            cuts.extend([0, tasks]);
            cuts.sort_unstable();
            let lanes: Vec<_> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
            let threaded = g.flag();
            let fits: Vec<RestartFit> = if threaded {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = lanes
                        .iter()
                        .map(|lane| {
                            let (plan, lane) = (&plan, lane.clone());
                            scope.spawn(move || plan.run(lane))
                        })
                        .collect();
                    handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
                })
            } else {
                lanes.iter().flat_map(|lane| plan.run(lane.clone())).collect()
            };
            let mut per_gp = fits.chunks(config.restarts.max(1));
            let all_inf = per_gp.any(|r| r.iter().all(|f| f.nll == f64::INFINITY));
            if tasks > 0 && all_inf {
                seen[0].set(seen[0].get() + 1);
            }
            if tasks > 0 && stuck && !far && fits.iter().any(|f| f.nll.is_finite()) {
                seen[1].set(seen[1].get() + 1);
            }
            let got: Vec<_> = plan.finish(fits).collect();
            propcheck::prop_assert_eq!(got.len(), want.len());
            for (m, (got, want)) in got.iter().zip(&want).enumerate() {
                if got.is_err() {
                    seen[2].set(seen[2].get() + 1);
                }
                propcheck::prop_assert!(
                    GaussianProcess::fit_bits(got) == GaussianProcess::fit_bits(want),
                    "n = {n}, d = {d}, GP {m}, lanes {lanes:?}, threaded {threaded}, \
                     {config:?}: {got:?} vs reference {want:?}"
                );
            }
            Ok(())
        });
        let [all_inf, stuck, failed] = seen.map(Cell::into_inner);
        assert!(all_inf > 0 && stuck > 0 && failed > 0, "{all_inf} / {stuck} / {failed}");
    }

    #[test]
    fn predictions_are_deterministic() {
        let (xs, ys) = toy_data();
        let cfg = GpConfig { seed: 9, ..Default::default() };
        let a = GaussianProcess::fit(block(&xs), ys.clone(), &cfg).unwrap();
        let b = GaussianProcess::fit(block(&xs), ys, &cfg).unwrap();
        let pa = a.predict(&[0.37]).unwrap();
        let pb = b.predict(&[0.37]).unwrap();
        assert_eq!(pa, pb);
    }
}

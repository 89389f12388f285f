//! Inducing-point sparse Gaussian-process regression for large histories.
//!
//! A base task in the meta-repository can hold thousands of observations;
//! fitting an exact GP there costs `O(n^3)` and predicting `O(n^2)` — the
//! scaling wall ROADMAP item 1 calls out. [`SparseGp`] instead conditions on
//! `m << n` *inducing points* chosen deterministically from the training set
//! (DTC / projected-process approximation, the same family egobox and GPyTorch
//! ship): fitting costs `O(n m^2)` and prediction `O(m^2)`, so the repository
//! can keep full histories without the exact-GP cost.
//!
//! Hyperparameters are fitted *densely on the inducing subset only* (an
//! `O(m^3)` problem) and then frozen for the sparse conditioning pass over all
//! `n` points. Everything is seeded and free of platform-dependent reductions,
//! so same-seed runs are bit-identical — the repository-wide determinism
//! contract extends to the sparse path.

use crate::kernel::Matern52;
use crate::process::{
    check_dims, sample_gaussian, weighted_columns, GaussianProcess, GpConfig, GpError, Prediction,
};
use linalg::{Cholesky, Matrix};
use xrand::Rng;

/// How inducing points are chosen from the training set. Both strategies are
/// deterministic functions of the training data (no RNG), so repeated fits of
/// the same history select the same subset bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InducingSelector {
    /// Every `ceil(n/m)`-th point in arrival order. Cheapest; good when the
    /// history is already well spread (e.g. LHS-seeded tuning runs).
    Strided,
    /// Greedy farthest-point traversal: start from the first observation and
    /// repeatedly add the point with the largest minimum distance to the
    /// selected set (ties broken by lowest index). Better coverage when the
    /// history clusters around incumbents.
    GreedyFarthest,
}

/// Configuration for a sparse fit.
#[derive(Debug, Clone)]
pub struct SparseGpConfig {
    /// Number of inducing points `m`; clamped to the training-set size.
    pub n_inducing: usize,
    /// Inducing-point selection strategy.
    pub selector: InducingSelector,
    /// Hyperparameter-fit configuration for the dense `O(m^3)` subset fit.
    pub gp: GpConfig,
}

impl Default for SparseGpConfig {
    fn default() -> Self {
        SparseGpConfig {
            n_inducing: 64,
            selector: InducingSelector::GreedyFarthest,
            gp: GpConfig::default(),
        }
    }
}

/// Deterministically selects `m` inducing indices from `x`.
pub fn select_inducing(x: &[Vec<f64>], m: usize, selector: InducingSelector) -> Vec<usize> {
    let n = x.len();
    let m = m.min(n);
    if m == 0 {
        return Vec::new();
    }
    match selector {
        InducingSelector::Strided => (0..m).map(|i| i * n / m).collect(),
        InducingSelector::GreedyFarthest => {
            let mut chosen = Vec::with_capacity(m);
            let mut taken = vec![false; n];
            chosen.push(0);
            taken[0] = true;
            // min_d2[i] = squared distance from x[i] to the closest chosen point.
            let mut min_d2: Vec<f64> = x
                .iter()
                .map(|p| linalg::vector::euclidean_distance(p, &x[0]).powi(2))
                .collect();
            while chosen.len() < m {
                let mut best = usize::MAX;
                let mut best_d2 = -1.0;
                for (i, d2) in min_d2.iter().enumerate() {
                    if !taken[i] && *d2 > best_d2 {
                        best_d2 = *d2;
                        best = i;
                    }
                }
                taken[best] = true;
                chosen.push(best);
                for (i, d2) in min_d2.iter_mut().enumerate() {
                    let cand = linalg::vector::euclidean_distance(&x[i], &x[best]).powi(2);
                    if cand < *d2 {
                        *d2 = cand;
                    }
                }
            }
            chosen.sort_unstable();
            chosen
        }
    }
}

/// Inducing-point sparse GP (deterministic training conditional / projected
/// process). Prediction mirrors [`GaussianProcess`]'s interface so the two can
/// sit behind one surrogate enum.
#[derive(Debug, Clone)]
pub struct SparseGp {
    /// Inducing inputs `X_m`.
    x_m: Vec<Vec<f64>>,
    kernel: Matern52,
    mean_offset: f64,
    /// Cholesky factor of `K_mm` (jittered as needed).
    lm: Cholesky,
    /// Cholesky factor of `A = K_mm + sigma^-2 K_mn K_nm` (jittered as needed).
    la: Cholesky,
    /// `sigma^-2 A^-1 K_mn (y - mean)` — the predictive weight vector.
    weights: Vec<f64>,
    n: usize,
    dim: usize,
}

impl SparseGp {
    /// Fits a sparse GP on the full `(x, y)` history.
    ///
    /// Steps: select `m` inducing points, fit hyperparameters densely on that
    /// subset, then condition on all `n` observations through the inducing
    /// set (`O(n m^2)`).
    pub fn fit(x: Vec<Vec<f64>>, y: Vec<f64>, config: &SparseGpConfig) -> Result<Self, GpError> {
        if x.len() != y.len() {
            return Err(GpError::DataMismatch { n_x: x.len(), n_y: y.len() });
        }
        let n = x.len();
        if n == 0 {
            return Err(GpError::DataMismatch { n_x: 0, n_y: 0 });
        }
        let dim = x[0].len();
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

        let idx = select_inducing(&x, config.n_inducing, config.selector);
        let m = idx.len();
        let x_m: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
        let y_m: Vec<f64> = idx.iter().map(|&i| y[i]).collect();

        // Dense hyperparameter fit on the inducing subset only: O(m^3).
        let subset = GaussianProcess::fit_with_kernel(
            x_m.clone(),
            y_m,
            Matern52::new(dim),
            &config.gp,
        )?;
        let kernel = subset.kernel().clone();
        let noise_std = subset.noise_std().max(config.gp.min_noise);
        let noise_var = noise_std * noise_std;

        let mean_offset = y.iter().sum::<f64>() / n as f64;
        let y_c: Vec<f64> = y.iter().map(|v| v - mean_offset).collect();

        let kmm = Matrix::from_fn(m, m, |i, j| kernel.value(&x_m[i], &x_m[j]));
        let lm = Cholesky::factor_with_jitter(&kmm)?;
        let kmn = Matrix::from_fn(m, n, |i, j| kernel.value(&x_m[i], &x[j]));

        // A = K_mm + sigma^-2 K_mn K_nm.
        let inv_noise = 1.0 / noise_var;
        let knm = kmn.transpose();
        let mut a = kmn.matmul(&knm).expect("m x n times n x m");
        for i in 0..m {
            for j in 0..m {
                a[(i, j)] = kmm[(i, j)] + inv_noise * a[(i, j)];
            }
        }
        let la = Cholesky::factor_with_jitter(&a)?;

        // weights = sigma^-2 A^-1 K_mn y_c.
        let kmn_y = kmn.matvec(&y_c).expect("m x n times n");
        let mut weights = la.solve(&kmn_y)?;
        for w in &mut weights {
            *w *= inv_noise;
        }

        Ok(SparseGp { x_m, kernel, mean_offset, lm, la, weights, n, dim })
    }

    /// Observation count the model conditioned on (all `n`, not just `m`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of inducing points actually used.
    pub fn n_inducing(&self) -> usize {
        self.x_m.len()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The fitted kernel (hyperparameters frozen from the subset fit).
    pub fn kernel(&self) -> &Matern52 {
        &self.kernel
    }

    /// The posterior terms prediction and joint sampling share at `points`:
    /// the means `mean + w^T K(X_m, P)` and the forward solves
    /// `V1 = L_m^{-1} K(X_m, P)` and `V2 = L_a^{-1} K(X_m, P)` (`m x q`), one
    /// cross-kernel matrix and one blocked solve per factor.
    fn posterior_terms(&self, points: &[Vec<f64>]) -> Result<(Vec<f64>, Matrix, Matrix), GpError> {
        check_dims(points, self.dim)?;
        if points.is_empty() {
            return Ok((Vec::new(), Matrix::zeros(0, 0), Matrix::zeros(0, 0)));
        }
        let kstar = Matrix::from_fn(self.x_m.len(), points.len(), |i, c| {
            self.kernel.value(&self.x_m[i], &points[c])
        });
        let means = weighted_columns(self.mean_offset, &self.weights, &kstar);
        Ok((means, self.lm.solve_lower_matrix(&kstar)?, self.la.solve_lower_matrix(&kstar)?))
    }

    /// Posterior prediction at one point: a batch of one.
    pub fn predict(&self, point: &[f64]) -> Result<Prediction, GpError> {
        Ok(self.predict_batch(&[point.to_vec()])?[0])
    }

    /// Posterior predictions at many points: mean `mean + k_*^T w`, variance
    /// `(k_** - ||L_m^{-1} k_*||^2) + ||L_a^{-1} k_*||^2`, each norm summed
    /// over the inducing index in ascending order.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Result<Vec<Prediction>, GpError> {
        let (means, v1, v2) = self.posterior_terms(points)?;
        let prior_var = self.kernel.prior_variance();
        Ok(means
            .into_iter()
            .enumerate()
            .map(|(c, mean)| {
                let (mut n1, mut n2) = (0.0, 0.0);
                for i in 0..v1.rows() {
                    n1 += v1[(i, c)] * v1[(i, c)];
                    n2 += v2[(i, c)] * v2[(i, c)];
                }
                Prediction { mean, variance: (prior_var - n1 + n2).max(0.0) }
            })
            .collect())
    }

    /// Joint posterior samples at `points`, with
    /// [`GaussianProcess::sample_joint`]'s regularization and draw order.
    pub fn sample_joint(
        &self,
        points: &[Vec<f64>],
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<f64>>, GpError> {
        let q = points.len();
        if q == 0 {
            return Ok(vec![Vec::new(); n_samples]);
        }
        let (mean, v1, v2) = self.posterior_terms(points)?;
        let (v1t, v2t) = (v1.transpose(), v2.transpose());
        let mut cov = Matrix::from_fn(q, q, |i, j| self.kernel.value(&points[i], &points[j]));
        for i in 0..q {
            for j in 0..=i {
                let reduce = linalg::vector::dot(v1t.row(i), v1t.row(j))
                    - linalg::vector::dot(v2t.row(i), v2t.row(j));
                cov[(i, j)] -= reduce;
                cov[(j, i)] = cov[(i, j)];
            }
        }
        sample_gaussian(&mean, cov, self.kernel.prior_variance(), n_samples, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::StdRng;
    use xrand::SeedableRng;

    impl SparseGp {
        /// The textbook per-point posterior over the private fields (`k_*`,
        /// `mean + k_*^T w`, and one forward solve per factor): the oracle
        /// the batched path is held to, bit for bit.
        pub(crate) fn reference_predict(&self, point: &[f64]) -> Prediction {
            let kstar: Vec<f64> = self.x_m.iter().map(|xi| self.kernel.value(xi, point)).collect();
            let mean = self.mean_offset + linalg::vector::dot(&kstar, &self.weights);
            let v1 = self.lm.solve_lower(&kstar).unwrap();
            let v2 = self.la.solve_lower(&kstar).unwrap();
            let variance = (self.kernel.prior_variance() - linalg::vector::dot(&v1, &v1)
                + linalg::vector::dot(&v2, &v2))
            .max(0.0);
            Prediction { mean, variance }
        }
    }

    fn wave_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                vec![t, (t * 7.3).fract()]
            })
            .collect();
        let ys: Vec<f64> =
            xs.iter().map(|p| (p[0] * 4.0).sin() + 0.3 * p[1]).collect();
        (xs, ys)
    }

    #[test]
    fn strided_selection_is_evenly_spaced_and_unique() {
        let (xs, _) = wave_data(100);
        let idx = select_inducing(&xs, 10, InducingSelector::Strided);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[0], 0);
        for w in idx.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn greedy_selection_is_deterministic_and_spreads_out() {
        let (xs, _) = wave_data(60);
        let a = select_inducing(&xs, 8, InducingSelector::GreedyFarthest);
        let b = select_inducing(&xs, 8, InducingSelector::GreedyFarthest);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let mut sorted = a.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "indices must be unique: {a:?}");
    }

    #[test]
    fn selection_clamps_to_training_size() {
        let (xs, _) = wave_data(5);
        assert_eq!(select_inducing(&xs, 50, InducingSelector::Strided).len(), 5);
        assert_eq!(select_inducing(&xs, 50, InducingSelector::GreedyFarthest).len(), 5);
    }

    #[test]
    fn sparse_predictions_track_dense_on_moderate_data() {
        let (xs, ys) = wave_data(80);
        let dense = GaussianProcess::fit(xs.clone(), ys.clone(), &GpConfig::fixed()).unwrap();
        let cfg = SparseGpConfig {
            n_inducing: 40,
            selector: InducingSelector::GreedyFarthest,
            gp: GpConfig::fixed(),
        };
        let sparse = SparseGp::fit(xs, ys, &cfg).unwrap();
        for t in [0.05, 0.3, 0.55, 0.8] {
            let p = vec![t, (t * 7.3_f64).fract()];
            let d = dense.predict(&p).unwrap();
            let s = sparse.predict(&p).unwrap();
            assert!(
                (d.mean - s.mean).abs() < 0.15,
                "at {p:?}: dense {} sparse {}",
                d.mean,
                s.mean
            );
            assert!(s.variance >= 0.0);
        }
    }

    #[test]
    fn sparse_fit_is_bit_deterministic() {
        let (xs, ys) = wave_data(70);
        let cfg = SparseGpConfig::default();
        let a = SparseGp::fit(xs.clone(), ys.clone(), &cfg).unwrap();
        let b = SparseGp::fit(xs, ys, &cfg).unwrap();
        for t in [0.1, 0.5, 0.9] {
            let p = vec![t, (t * 7.3_f64).fract()];
            let pa = a.predict(&p).unwrap();
            let pb = b.predict(&p).unwrap();
            assert_eq!(pa.mean.to_bits(), pb.mean.to_bits());
            assert_eq!(pa.variance.to_bits(), pb.variance.to_bits());
        }
        let mut ra = StdRng::seed_from_u64(3);
        let mut rb = StdRng::seed_from_u64(3);
        let pts = vec![vec![0.2, 0.4], vec![0.7, 0.1]];
        let sa = a.sample_joint(&pts, 4, &mut ra).unwrap();
        let sb = b.sample_joint(&pts, 4, &mut rb).unwrap();
        for (va, vb) in sa.iter().zip(&sb) {
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_the_per_point_reference() {
        let (xs, ys) = wave_data(130);
        for selector in [InducingSelector::Strided, InducingSelector::GreedyFarthest] {
            let cfg = SparseGpConfig { n_inducing: 28, selector, gp: GpConfig::fixed() };
            let sparse = SparseGp::fit(xs.clone(), ys.clone(), &cfg).unwrap();
            let pts: Vec<Vec<f64>> = (0..31)
                .map(|i| vec![i as f64 / 30.0 * 1.4 - 0.2, (i as f64 * 0.61).fract()])
                .collect();
            let batch = sparse.predict_batch(&pts).unwrap();
            assert_eq!(batch.len(), pts.len());
            for (p, b) in pts.iter().zip(&batch) {
                let reference = sparse.reference_predict(p);
                let (want, at) = (reference, format!("{selector:?} at {p:?}"));
                assert_eq!(want.mean.to_bits(), b.mean.to_bits(), "{at}");
                assert_eq!(want.variance.to_bits(), b.variance.to_bits(), "{at}");
            }
            assert!(sparse.predict_batch(&[]).unwrap().is_empty());
            assert!(matches!(
                sparse.predict_batch(&[vec![0.5]]),
                Err(GpError::DimensionMismatch { expected: 2, found: 1 })
            ));
        }
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn sparse_outputs_match_their_pinned_digest() {
        // No golden run builds a sparse learner, so this digest over
        // `predict_batch` and `sample_joint` of two fixed models (both
        // selectors, one with hyperparameter fitting) is what holds the
        // sparse backend's outputs still, bit for bit.
        let (xs, ys) = wave_data(150);
        let fitted = SparseGpConfig {
            n_inducing: 32,
            selector: InducingSelector::GreedyFarthest,
            gp: GpConfig { restarts: 1, adam_iters: 10, seed: 4, ..Default::default() },
        };
        let strided = SparseGpConfig {
            n_inducing: 24,
            selector: InducingSelector::Strided,
            gp: GpConfig::fixed(),
        };
        let pts: Vec<Vec<f64>> = (0..19)
            .map(|i| {
                let t = i as f64 / 18.0 * 1.2 - 0.1;
                vec![t, (t * 3.1).abs().fract()]
            })
            .collect();
        let mut values = Vec::new();
        for cfg in [&fitted, &strided] {
            let gp = SparseGp::fit(xs.clone(), ys.clone(), cfg).unwrap();
            for p in gp.predict_batch(&pts).unwrap() {
                values.extend([p.mean, p.variance]);
            }
            let mut rng = StdRng::seed_from_u64(11);
            values.extend(gp.sample_joint(&pts[..7], 5, &mut rng).unwrap().into_iter().flatten());
        }
        assert_eq!(values.len(), 2 * (19 * 2 + 7 * 5));
        assert_eq!(fnv1a_bits(values), 0x7d6b_c9e1_488e_5b5e);
    }

    #[test]
    fn handles_a_thousand_observations_quickly() {
        let (xs, ys) = wave_data(1000);
        let cfg = SparseGpConfig {
            n_inducing: 64,
            selector: InducingSelector::Strided,
            gp: GpConfig::fixed(),
        };
        let sparse = SparseGp::fit(xs, ys, &cfg).unwrap();
        assert_eq!(sparse.n(), 1000);
        assert_eq!(sparse.n_inducing(), 64);
        let p = sparse.predict(&[0.5, (0.5 * 7.3_f64).fract()]).unwrap();
        assert!(p.mean.is_finite() && p.variance >= 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        let cfg = SparseGpConfig::default();
        assert!(matches!(
            SparseGp::fit(vec![vec![0.1]], vec![0.1, 0.2], &cfg),
            Err(GpError::DataMismatch { .. })
        ));
        assert!(matches!(
            SparseGp::fit(vec![vec![0.1], vec![f64::NAN]], vec![0.1, 0.2], &cfg),
            Err(GpError::NonFinite)
        ));
        assert!(matches!(SparseGp::fit(vec![], vec![], &cfg), Err(GpError::DataMismatch { .. })));
    }
}

//! A closed set of surrogate backends: exact (dense) GP regression or the
//! inducing-point sparse approximation.
//!
//! The tuning core holds one of these per modeled metric. Target-task models
//! are always dense (they stay small and need leave-one-out predictions and
//! incremental extension); base-task models from the meta-repository switch
//! to [`SparseGp`] once a history crosses the repository's size threshold.

use crate::process::{GaussianProcess, GpError, Prediction};
use crate::sparse::SparseGp;
use xrand::Rng;

/// Either an exact GP or an inducing-point sparse GP, behind one interface.
#[derive(Debug, Clone)]
pub enum SurrogateGp {
    /// Exact GP regression (`O(n^3)` fit, `O(n^2)` predict).
    Dense(GaussianProcess),
    /// Inducing-point approximation (`O(n m^2)` fit, `O(m^2)` predict).
    Sparse(SparseGp),
}

impl SurrogateGp {
    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            SurrogateGp::Dense(gp) => gp.dim(),
            SurrogateGp::Sparse(gp) => gp.dim(),
        }
    }

    /// Observation count the model conditioned on.
    pub fn n(&self) -> usize {
        match self {
            SurrogateGp::Dense(gp) => gp.n(),
            SurrogateGp::Sparse(gp) => gp.n(),
        }
    }

    /// `true` for the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self, SurrogateGp::Sparse(_))
    }

    /// The dense backend, if that is what this is. The incremental-refit path
    /// uses this: only dense target models can be extended in place.
    pub fn as_dense(&self) -> Option<&GaussianProcess> {
        match self {
            SurrogateGp::Dense(gp) => Some(gp),
            SurrogateGp::Sparse(_) => None,
        }
    }

    /// Mutable access to the dense backend, if any.
    pub fn as_dense_mut(&mut self) -> Option<&mut GaussianProcess> {
        match self {
            SurrogateGp::Dense(gp) => Some(gp),
            SurrogateGp::Sparse(_) => None,
        }
    }

    /// Posterior prediction at one point: a batch of one.
    pub fn predict(&self, point: &[f64]) -> Result<Prediction, GpError> {
        Ok(self.predict_batch(&[point.to_vec()])?[0])
    }

    /// Batched posterior prediction. For both backends, element `c` depends
    /// on `points[c]` alone, so it is bit-identical to `predict(&points[c])`.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Result<Vec<Prediction>, GpError> {
        match self {
            SurrogateGp::Dense(gp) => gp.predict_batch(points),
            SurrogateGp::Sparse(gp) => gp.predict_batch(points),
        }
    }

    /// Joint posterior samples at `points`.
    pub fn sample_joint(
        &self,
        points: &[Vec<f64>],
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<f64>>, GpError> {
        match self {
            SurrogateGp::Dense(gp) => gp.sample_joint(points, n_samples, rng),
            SurrogateGp::Sparse(gp) => gp.sample_joint(points, n_samples, rng),
        }
    }

    /// Closed-form leave-one-out predictions. Only defined for the dense
    /// backend; sparse surrogates return an error and callers fall back to
    /// their degenerate-draw paths (base learners never need LOO anyway —
    /// it exists to de-bias the *target* learner's ranking loss).
    pub fn loo_predictions(&self) -> Result<Vec<Prediction>, GpError> {
        match self {
            SurrogateGp::Dense(gp) => gp.loo_predictions(),
            SurrogateGp::Sparse(_) => Err(GpError::Factorization(
                "leave-one-out predictions are undefined for sparse surrogates".into(),
            )),
        }
    }
}

impl From<GaussianProcess> for SurrogateGp {
    fn from(gp: GaussianProcess) -> Self {
        SurrogateGp::Dense(gp)
    }
}

impl From<SparseGp> for SurrogateGp {
    fn from(gp: SparseGp) -> Self {
        SurrogateGp::Sparse(gp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::GpConfig;
    use crate::sparse::{InducingSelector, SparseGpConfig};

    fn data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|p| (p[0] * 3.0).cos()).collect();
        (xs, ys)
    }

    #[test]
    fn dense_variant_matches_inner_gp_bitwise() {
        let (xs, ys) = data(12);
        let gp = GaussianProcess::fit(xs.clone(), ys, &GpConfig::fixed()).unwrap();
        let direct = gp.predict(&[0.4]).unwrap();
        let model = SurrogateGp::from(gp);
        let via = model.predict(&[0.4]).unwrap();
        assert_eq!(direct.mean.to_bits(), via.mean.to_bits());
        assert_eq!(direct.variance.to_bits(), via.variance.to_bits());
        assert!(!model.is_sparse());
        assert!(model.as_dense().is_some());
        assert_eq!(model.n(), 12);
        assert_eq!(model.dim(), 1);
    }

    #[test]
    fn sparse_variant_reports_shape_and_rejects_loo() {
        let (xs, ys) = data(120);
        let cfg = SparseGpConfig {
            n_inducing: 24,
            selector: InducingSelector::Strided,
            gp: GpConfig::fixed(),
        };
        let model = SurrogateGp::from(SparseGp::fit(xs, ys, &cfg).unwrap());
        assert!(model.is_sparse());
        assert!(model.as_dense().is_none());
        assert_eq!(model.n(), 120);
        assert!(model.loo_predictions().is_err());
        let batch = model.predict_batch(&[vec![0.25], vec![0.75]]).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|p| p.mean.is_finite() && p.variance >= 0.0));
    }

    #[test]
    fn both_variants_batch_bitwise_like_their_per_point_reference() {
        let pts: Vec<Vec<f64>> = (0..21).map(|i| vec![i as f64 / 20.0 * 1.2 - 0.1]).collect();
        let (xs, ys) = data(12);
        let dense = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
        let (xs, ys) = data(120);
        let cfg = SparseGpConfig {
            n_inducing: 24,
            selector: InducingSelector::GreedyFarthest,
            gp: GpConfig::fixed(),
        };
        let sparse = SparseGp::fit(xs, ys, &cfg).unwrap();
        let references: Vec<Vec<Prediction>> = vec![
            pts.iter().map(|p| dense.reference_predict(p)).collect(),
            pts.iter().map(|p| sparse.reference_predict(p)).collect(),
        ];
        let models = [SurrogateGp::from(dense), SurrogateGp::from(sparse)];
        for (model, reference) in models.iter().zip(&references) {
            let batch = model.predict_batch(&pts).unwrap();
            for ((p, b), r) in pts.iter().zip(&batch).zip(reference) {
                let sparse = model.is_sparse();
                assert_eq!(b.mean.to_bits(), r.mean.to_bits(), "sparse={sparse} at {p:?}");
                assert_eq!(b.variance.to_bits(), r.variance.to_bits());
                let single = model.predict(p).unwrap();
                assert_eq!(single.mean.to_bits(), r.mean.to_bits());
                assert_eq!(single.variance.to_bits(), r.variance.to_bits());
            }
        }
    }
}

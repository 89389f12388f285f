//! The multi-output task surrogate (§5.1): three conditionally independent
//! Gaussian processes over the normalized knob space, one each for the
//! resource objective, throughput, and p99 latency — fitted on *standardized*
//! observations (§6.1).

use crate::scale::TaskScalers;
use gp::{GaussianProcess, GpConfig, GpError, Prediction, SparseGp, SparseGpConfig, SurrogateGp};

/// Joint prediction of the three modeled outputs, in standardized units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogatePrediction {
    /// Resource objective.
    pub res: Prediction,
    /// Throughput.
    pub tps: Prediction,
    /// p99 latency.
    pub lat: Prediction,
}

impl SurrogatePrediction {
    /// Joint predictions from one column of per-point predictions per metric.
    pub(crate) fn zip(
        res: Vec<Prediction>,
        tps: Vec<Prediction>,
        lat: Vec<Prediction>,
    ) -> Vec<Self> {
        res.into_iter()
            .zip(tps)
            .zip(lat)
            .map(|((res, tps), lat)| SurrogatePrediction { res, tps, lat })
            .collect()
    }
}

/// A single task's surrogate: three GPs on standardized outputs.
///
/// Each metric model is a [`SurrogateGp`]: dense for target tasks (which stay
/// small and need incremental extension + leave-one-out predictions), sparse
/// for large base-task histories from the meta-repository.
#[derive(Debug, Clone)]
pub struct GpTaskModel {
    /// GP over the standardized resource objective.
    pub res: SurrogateGp,
    /// GP over standardized throughput.
    pub tps: SurrogateGp,
    /// GP over standardized latency.
    pub lat: SurrogateGp,
    /// The scalers used (needed to map SLA bounds into model space).
    pub scalers: TaskScalers,
}

impl GpTaskModel {
    /// Fits the three GPs on raw observation columns; standardization happens
    /// internally so base-learners from different tasks share one scale.
    pub fn fit(
        points: &[Vec<f64>],
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        let scalers = TaskScalers::fit(res_raw, tps_raw, lat_raw);
        Self::fit_with_scalers(points, res_raw, tps_raw, lat_raw, scalers, config)
    }

    /// [`GpTaskModel::fit`] with externally fitted scalers, so callers that
    /// already standardized (e.g. for ranking-loss bookkeeping) don't pay for
    /// a second pass. The three metric fits fan out through `core::exec`;
    /// each is self-contained and seeded by `config`, so the models are
    /// bit-identical however they are scheduled.
    pub fn fit_with_scalers(
        points: &[Vec<f64>],
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        scalers: TaskScalers,
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        let metrics = [
            ("fit_res", scalers.res, res_raw),
            ("fit_tps", scalers.tps, tps_raw),
            ("fit_lat", scalers.lat, lat_raw),
        ];
        let mut fits = crate::exec::map(metrics.len(), |i| {
            let (name, scaler, raw) = metrics[i];
            let ys = scaler.transform_all(raw);
            let span = trace::Span::new(name).with_field("n_obs", ys.len() as f64);
            let fitted = GaussianProcess::fit(points.to_vec(), ys, config);
            let _ = span.finish_s();
            fitted.map(SurrogateGp::Dense)
        })
        .into_iter();
        let mut next = || fits.next().expect("one fit per metric");
        Ok(GpTaskModel { res: next()?, tps: next()?, lat: next()?, scalers })
    }

    /// Fits the three metric models as inducing-point sparse GPs — the
    /// large-history path for base learners whose observation count makes a
    /// dense `O(n^3)` fit unaffordable. Hyperparameters come from a dense fit
    /// on the inducing subset (see [`SparseGp::fit`]).
    pub fn fit_sparse(
        points: &[Vec<f64>],
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        config: &SparseGpConfig,
    ) -> Result<Self, GpError> {
        let scalers = TaskScalers::fit(res_raw, tps_raw, lat_raw);
        let fit_one = |ys: Vec<f64>| -> Result<SurrogateGp, GpError> {
            Ok(SurrogateGp::Sparse(SparseGp::fit(points.to_vec(), ys, config)?))
        };
        Ok(GpTaskModel {
            res: fit_one(scalers.res.transform_all(res_raw))?,
            tps: fit_one(scalers.tps.transform_all(tps_raw))?,
            lat: fit_one(scalers.lat.transform_all(lat_raw))?,
            scalers,
        })
    }

    /// Appends the latest observation *incrementally*: each dense metric GP
    /// grows its Cholesky factor by one rank-1 row (`O(n^2)`) instead of
    /// refactoring from scratch (`O(n^3)`), keeping the kernel
    /// hyperparameters it already carries. Standardization is re-fit on the
    /// full raw columns every iteration, so all targets are rewritten through
    /// [`GaussianProcess::set_targets`] (an `O(n^2)` solve against the grown
    /// factor).
    ///
    /// `points`/`*_raw` are the FULL history including the new last entry;
    /// the model must currently hold exactly `points.len() - 1` observations,
    /// with a training set bit-equal to `points[..n-1]`. Errors if any metric
    /// model is sparse (target models never are) — the caller falls back to a
    /// full fit.
    pub fn extend_with_scalers(
        &mut self,
        points: &[Vec<f64>],
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        scalers: TaskScalers,
        config: &GpConfig,
    ) -> Result<(), GpError> {
        let n = points.len();
        if n == 0 || self.n() + 1 != n {
            return Err(GpError::DataMismatch { n_x: n, n_y: self.n() + 1 });
        }
        let x_new = &points[n - 1];
        let extend_one =
            |gp: &mut SurrogateGp, std_col: Vec<f64>| -> Result<(), GpError> {
                let dense = gp.as_dense_mut().ok_or_else(|| {
                    GpError::Factorization("cannot extend a sparse surrogate".into())
                })?;
                dense.extend(x_new.clone(), std_col[n - 1], config)?;
                dense.set_targets(std_col)
            };
        extend_one(&mut self.res, scalers.res.transform_all(res_raw))?;
        extend_one(&mut self.tps, scalers.tps.transform_all(tps_raw))?;
        extend_one(&mut self.lat, scalers.lat.transform_all(lat_raw))?;
        self.scalers = scalers;
        Ok(())
    }

    /// Whether the model's training inputs are exactly `prefix` — the guard
    /// the proposer's incremental cache uses before extending.
    pub fn trained_on(&self, prefix: &[Vec<f64>]) -> bool {
        let Some(dense) = self.res.as_dense() else { return false };
        let train = dense.train_x();
        train.len() == prefix.len()
            && train
                .iter()
                .zip(prefix)
                .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y))
    }

    /// Number of observations the model was fitted on.
    pub fn n(&self) -> usize {
        self.res.n()
    }

    /// Predicts the three outputs (standardized scale) at every point: one
    /// batched prediction, so one blocked solve, per metric GP.
    ///
    /// # Panics
    ///
    /// If a point's length is not the model's knob-space dimensionality.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<SurrogatePrediction> {
        let column = |gp: &SurrogateGp| gp.predict_batch(points).expect("dimension checked at fit");
        SurrogatePrediction::zip(column(&self.res), column(&self.tps), column(&self.lat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> GpTaskModel {
        // res = x, tps = 100 - 50x, lat = 10 + 5x over a 1-D grid.
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let res: Vec<f64> = points.iter().map(|p| 80.0 * p[0] + 10.0).collect();
        let tps: Vec<f64> = points.iter().map(|p| 100.0 - 50.0 * p[0]).collect();
        let lat: Vec<f64> = points.iter().map(|p| 10.0 + 5.0 * p[0]).collect();
        GpTaskModel::fit(&points, &res, &tps, &lat, &GpConfig::fixed()).unwrap()
    }

    #[test]
    fn predictions_track_the_training_signal() {
        let m = toy_model();
        let preds = m.predict_batch(&[vec![0.05], vec![0.95]]);
        let (lo, hi) = (preds[0], preds[1]);
        // Standardized res increases with x, tps decreases, lat increases.
        assert!(lo.res.mean < hi.res.mean);
        assert!(lo.tps.mean > hi.tps.mean);
        assert!(lo.lat.mean < hi.lat.mean);
    }

    #[test]
    fn scalers_invert_to_raw_units() {
        let m = toy_model();
        let p = m.predict_batch(&[vec![0.5]])[0];
        let raw_res = m.scalers.res.inverse(p.res.mean);
        assert!((raw_res - 50.0).abs() < 8.0, "raw res {raw_res}");
    }

    #[test]
    fn n_reports_observation_count() {
        assert_eq!(toy_model().n(), 10);
    }

    #[test]
    fn batched_prediction_routes_each_metric_gp_to_its_field() {
        // Each field holds its own metric GP's prediction at that point,
        // bit for bit; the GP's numbers are held to a per-point reference
        // in `gp`'s unit tests.
        let m = toy_model();
        let pts: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64 / 22.0 * 1.4 - 0.2]).collect();
        let batch = m.predict_batch(&pts);
        assert_eq!(batch.len(), pts.len());
        for (p, b) in pts.iter().zip(&batch) {
            for (gp, got) in [(&m.res, b.res), (&m.tps, b.tps), (&m.lat, b.lat)] {
                let want = gp.predict(p).unwrap();
                assert_eq!(want.mean.to_bits(), got.mean.to_bits(), "mean at {p:?}");
                assert_eq!(want.variance.to_bits(), got.variance.to_bits(), "variance at {p:?}");
            }
        }
    }
}

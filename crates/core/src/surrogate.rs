//! The multi-output task surrogate (§5.1): three conditionally independent
//! Gaussian processes over the normalized knob space, one each for the
//! resource objective, throughput, and p99 latency — fitted on *standardized*
//! observations (§6.1). Target tasks and historical base learners share the
//! one exact backend, [`gp::GaussianProcess`]; only the target's model is
//! grown by rank-1 appends. The three GPs share one block of training
//! points (one point per row of a [`linalg::Matrix`], behind one `Arc`),
//! and an append grows it once for all three.

use crate::scale::TaskScalers;
use gp::{FitPlan, GaussianProcess, GpConfig, GpError, Matern52, Prediction};
use linalg::Matrix;
use std::sync::Arc;

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

/// Runs `plan`'s restart tasks in `exec::lanes()` contiguous ranges, one
/// [`FitPlan::run`] (so one workspace) per lane, as the dynamic-weight draws
/// and candidate bounding split their work (DESIGN.md §8), then finishes
/// it: the fitted GPs in target order. On a fleet worker all tasks run
/// inline. Each task is a pure function of its index, so the split cannot
/// move a bit.
pub(crate) fn fit_plan(plan: FitPlan) -> impl Iterator<Item = Result<GaussianProcess, GpError>> {
    let tasks = plan.tasks();
    let per_lane = tasks.div_ceil(crate::exec::lanes()).max(1);
    let lanes: Vec<_> = (0..tasks).step_by(per_lane).map(|t| t..tasks.min(t + per_lane)).collect();
    let fits = crate::exec::map(lanes.len(), |l| plan.run(lanes[l].clone()));
    plan.finish(fits.into_iter().flatten().collect())
}

/// A single task's surrogate: three exact GPs on standardized outputs, for
/// target tasks and historical base learners alike.
#[derive(Debug, Clone)]
pub struct GpTaskModel {
    /// GP over the standardized resource objective.
    pub res: GaussianProcess,
    /// GP over standardized throughput.
    pub tps: GaussianProcess,
    /// GP over standardized latency.
    pub lat: GaussianProcess,
    /// The scalers used (needed to map SLA bounds into model space).
    pub scalers: TaskScalers,
}

impl GpTaskModel {
    /// Fits the three GPs on raw observation columns, one observation per
    /// row of `points`; standardization happens internally so base-learners
    /// from different tasks share one scale.
    pub fn fit(
        points: impl Into<Arc<Matrix>>,
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        let scalers = TaskScalers::fit(res_raw, tps_raw, lat_raw);
        Self::fit_with_scalers(points, res_raw, tps_raw, lat_raw, scalers, config)
    }

    /// The input check of [`GpTaskModel::fit_with_scalers`]:
    /// [`gp::check_inputs`] on each metric's *standardized* column, so a raw
    /// column that its scaler turns non-finite (an infinite observation
    /// makes the mean infinite, and with it every standardized value) fails
    /// here as its fit would.
    ///
    /// On inputs it passes, with points in the normalized knob space, a
    /// fit does not fail: its last factorization is of a finite,
    /// bounded Matérn Gram matrix plus noise, with the jitter ladder behind
    /// it. The proposer rests its fit skip on that (DESIGN.md §13), and a
    /// propcheck below holds it.
    pub fn check_inputs(
        points: &Matrix,
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        scalers: TaskScalers,
    ) -> Result<(), GpError> {
        let columns = [(scalers.res, res_raw), (scalers.tps, tps_raw), (scalers.lat, lat_raw)];
        for (scaler, raw) in columns {
            gp::check_inputs(points, &scaler.transform_all(raw), points.cols())?;
        }
        Ok(())
    }

    /// [`GpTaskModel::fit`] with externally fitted scalers, so callers that
    /// already standardized (e.g. for ranking-loss bookkeeping) don't pay for
    /// a second pass. The three GPs share their inputs, one `Arc` of
    /// `points`, so they fit as one [`FitPlan`], run in lanes by
    /// `fit_plan`; every restart task is
    /// seeded by `config`, so the models are bit-identical however the
    /// tasks are scheduled. Inputs that fail [`GpTaskModel::check_inputs`]
    /// return its error before any fit runs: `FitPlan::new` runs the same
    /// checks on the same standardized columns, in the same order.
    pub fn fit_with_scalers(
        points: impl Into<Arc<Matrix>>,
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        scalers: TaskScalers,
        config: &GpConfig,
    ) -> Result<Self, GpError> {
        let points = points.into();
        let (n, dim) = (points.rows(), points.cols());
        let targets = [
            scalers.res.transform_all(res_raw),
            scalers.tps.transform_all(tps_raw),
            scalers.lat.transform_all(lat_raw),
        ];
        let plan = FitPlan::new(points, targets, Matern52::new(dim), config)?;
        let mut fitted = fit_plan(plan);
        // One span per metric, around its restart selection and final
        // factorization.
        let mut next = |name: &'static str| {
            let _span = trace::Span::new(name).with_field("n_obs", n as f64);
            fitted.next().expect("one GP per metric")
        };
        let (res, tps, lat) = (next("fit_res")?, next("fit_tps")?, next("fit_lat")?);
        Ok(GpTaskModel { res, tps, lat, scalers })
    }

    /// Appends the latest observation *incrementally*: each metric GP
    /// grows its Cholesky factor by one rank-1 row (`O(n^2)`) instead of
    /// refactoring from scratch (`O(n^3)`), keeping the kernel
    /// hyperparameters it already carries. Standardization is re-fit on the
    /// full raw columns every iteration, so all targets are rewritten through
    /// [`GaussianProcess::set_targets`] (an `O(n^2)` solve against the grown
    /// factor).
    ///
    /// `points`/`*_raw` are the FULL history including the new last entry;
    /// the model must currently hold exactly `points.rows() - 1`
    /// observations, with training points bit-equal to the first rows of
    /// `points` ([`GaussianProcess::extend`] checks both). The three GPs
    /// take `points` as their one shared block. On an error the caller
    /// falls back to a full fit.
    pub fn extend_with_scalers(
        &mut self,
        points: &Arc<Matrix>,
        res_raw: &[f64],
        tps_raw: &[f64],
        lat_raw: &[f64],
        scalers: TaskScalers,
        config: &GpConfig,
    ) -> Result<(), GpError> {
        let n = points.rows();
        if n == 0 || self.n() + 1 != n {
            return Err(GpError::DataMismatch { n_x: n, n_y: self.n() + 1 });
        }
        let extend_one = |gp: &mut GaussianProcess, std_col: Vec<f64>| -> Result<(), GpError> {
            gp.extend(Arc::clone(points), std_col[n - 1], config)?;
            gp.set_targets(std_col)
        };
        extend_one(&mut self.res, scalers.res.transform_all(res_raw))?;
        extend_one(&mut self.tps, scalers.tps.transform_all(tps_raw))?;
        extend_one(&mut self.lat, scalers.lat.transform_all(lat_raw))?;
        self.scalers = scalers;
        Ok(())
    }

    /// Number of observations the model was fitted on.
    pub fn n(&self) -> usize {
        self.res.n()
    }

    /// Predicts the three outputs (standardized scale) at every point (row)
    /// of `points`: one batched prediction, so one blocked solve, per metric
    /// GP.
    ///
    /// # Panics
    ///
    /// If the block's width is not the model's knob-space dimensionality.
    pub fn predict_batch<S: AsRef<[f64]>>(&self, points: &Matrix<S>) -> Vec<SurrogatePrediction> {
        let column =
            |gp: &GaussianProcess| gp.predict_batch(points).expect("dimension checked at fit");
        SurrogatePrediction::zip(column(&self.res), column(&self.tps), column(&self.lat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> GpTaskModel {
        // res = x, tps = 100 - 50x, lat = 10 + 5x over a 1-D grid.
        let points = Matrix::from_fn(10, 1, |i, _| i as f64 / 9.0);
        let res: Vec<f64> = points.iter_rows().map(|p| 80.0 * p[0] + 10.0).collect();
        let tps: Vec<f64> = points.iter_rows().map(|p| 100.0 - 50.0 * p[0]).collect();
        let lat: Vec<f64> = points.iter_rows().map(|p| 10.0 + 5.0 * p[0]).collect();
        GpTaskModel::fit(points, &res, &tps, &lat, &GpConfig::fixed()).unwrap()
    }

    #[test]
    fn predictions_track_the_training_signal() {
        let m = toy_model();
        let preds = m.predict_batch(&Matrix::from_vec(2, 1, vec![0.05, 0.95]));
        let (lo, hi) = (preds[0], preds[1]);
        // Standardized res increases with x, tps decreases, lat increases.
        assert!(lo.res.mean < hi.res.mean);
        assert!(lo.tps.mean > hi.tps.mean);
        assert!(lo.lat.mean < hi.lat.mean);
    }

    #[test]
    fn scalers_invert_to_raw_units() {
        let m = toy_model();
        let p = m.predict_batch(&Matrix::from_vec(1, 1, vec![0.5]))[0];
        let raw_res = m.scalers.res.inverse(p.res.mean);
        assert!((raw_res - 50.0).abs() < 8.0, "raw res {raw_res}");
    }

    #[test]
    fn n_reports_observation_count() {
        assert_eq!(toy_model().n(), 10);
    }

    #[test]
    fn fits_succeed_whenever_the_input_check_passes() {
        use propcheck::{check, prop_assert, Config, Gen};
        // The oracle the proposer's fit skip rests on: a step that skips its
        // fit assumes the fit would not have failed, which holds iff every
        // input that passes `check_inputs` fits. Points stay in the unit
        // cube, as every point a proposer fits on does: proposals and the
        // default point lie in it, and `seed_history` rejects a point
        // outside it, because a far coordinate (1e160) overflows the kernel
        // into a NaN Gram matrix that this finiteness check cannot see. Raw
        // columns range up to 1e150 and may be constant (a constant column
        // standardizes to rounding residue over the 1e-9 floor, which can
        // reach 1e143).
        let quick = GpConfig { restarts: 1, adam_iters: 10, ..Default::default() };
        check(
            "fits_succeed_whenever_the_input_check_passes",
            Config::default().cases(48).seed(0xF17_C4EC).max_size(40),
            |g| {
                let n = g.dim(40);
                let d = g.usize_in(1, 14);
                let mut points = Matrix::zeros(0, d);
                for i in 0..n {
                    let point: Vec<f64> = if i > 0 && g.usize_in(0, 3) == 0 {
                        points.row(g.usize_in(0, i - 1)).to_vec()
                    } else {
                        (0..d).map(|_| g.unit()).collect()
                    };
                    points.push_row(&point).unwrap();
                }
                let column = |g: &mut Gen| -> Vec<f64> {
                    let scale = 10f64.powi(g.i64_in(-3, 150) as i32);
                    let offset = scale * g.f64_in(-1.0, 1.0);
                    if g.usize_in(0, 3) == 0 {
                        vec![offset; n]
                    } else {
                        (0..n).map(|_| offset + scale * g.f64_in(-1.0, 1.0)).collect()
                    }
                };
                let mut cols = [column(g), column(g), column(g)];
                let config = if g.flag() {
                    GpConfig { seed: g.usize_in(0, 1 << 20) as u64, ..GpConfig::default() }
                } else {
                    quick.clone()
                };
                let outcome = |points: &Matrix, [res, tps, lat]: &[Vec<f64>; 3]| {
                    let scalers = TaskScalers::fit(res, tps, lat);
                    let checked = GpTaskModel::check_inputs(points, res, tps, lat, scalers);
                    let fitted = GpTaskModel::fit_with_scalers(
                        points.clone(),
                        res,
                        tps,
                        lat,
                        scalers,
                        &config,
                    );
                    (checked, fitted.map(|_| ()))
                };
                let (checked, fitted) = outcome(&points, &cols);
                prop_assert!(checked.is_ok(), "n {n}, d {d}: check {checked:?}");
                prop_assert!(fitted.is_ok(), "n {n}, d {d}: fit {fitted:?}");

                // One non-finite value in a point or a raw column fails both.
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][g.usize_in(0, 2)];
                let i = g.usize_in(0, n - 1);
                match g.usize_in(0, 3) {
                    3 => points.row_mut(i)[g.usize_in(0, d - 1)] = bad,
                    c => cols[c][i] = bad,
                }
                let (checked, fitted) = outcome(&points, &cols);
                prop_assert!(checked.is_err(), "n {n}, d {d}, {bad} at {i}: check passed");
                prop_assert!(fitted.is_err(), "n {n}, d {d}, {bad} at {i}: fit passed");
                Ok(())
            },
        );
    }

    /// A fitted GP as bit patterns through its public surface: kernel
    /// parameters, noise, log marginal likelihood and the posterior at its
    /// training points; a failed fit as its error.
    fn fit_bits(fit: &Result<GaussianProcess, GpError>) -> Result<Vec<u64>, String> {
        let gp = fit.as_ref().map_err(|e| e.to_string())?;
        let mut bits: Vec<f64> = gp.kernel().params();
        bits.extend([gp.noise_std(), gp.log_marginal_likelihood()]);
        for p in gp.predict_batch(gp.train_x()).unwrap() {
            bits.extend([p.mean, p.variance]);
        }
        Ok(bits.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn lane_split_plans_match_sequential_per_gp_fits_bitwise() {
        use propcheck::{check, prop_assert, Config};
        // Inline on a pool worker (`lanes()` = 1) and on the test thread,
        // where `lanes()` is the host's parallelism (2 on a 2-vCPU host, so
        // the tasks fan out over two lanes), against each GP fitted alone by
        // `GaussianProcess::fit_with_kernel`, which `gp`'s unit tests hold
        // to the per-GP restart loop the plan replaced.
        let cfg = Config::default().cases(24).seed(0x1A_4E5).max_size(16);
        check("lane_split_plans_match_sequential_per_gp_fits_bitwise", cfg, |g| {
            let n = g.size();
            let d = g.usize_in(1, 4);
            let mut x = Matrix::from_fn(n, d, |_, _| g.unit());
            if n >= 1 && g.usize_in(0, 5) == 0 {
                x[(0, 0)] = 1e160; // every Gram matrix NaN: every fit fails
            }
            let scale = if g.usize_in(0, 3) == 0 { 1e200 } else { 1.0 }; // every NLL overflows
            let targets: Vec<Vec<f64>> =
                (0..g.usize_in(1, 3)).map(|_| g.vec_f64(n, -scale, scale)).collect();
            let config = GpConfig {
                restarts: g.usize_in(1, 3),
                adam_iters: g.usize_in(0, 8),
                // An infinite initial noise fails restart 0's every evaluation.
                initial_noise: if g.usize_in(0, 3) == 0 { f64::INFINITY } else { 0.1 },
                seed: g.usize_in(0, 1 << 20) as u64,
                ..GpConfig::default()
            };
            let kernel = Matern52::new(d);
            let want: Vec<_> = targets
                .iter()
                .map(|y| {
                    let (x, y, kernel) = (x.clone(), y.clone(), kernel.clone());
                    fit_bits(&GaussianProcess::fit_with_kernel(x, y, kernel, &config))
                })
                .collect();
            let run = {
                let (x, targets, kernel, config) = (x, targets, kernel, config.clone());
                move || {
                    let plan = FitPlan::new(x, targets, kernel, &config).unwrap();
                    fit_plan(plan).map(|fit| fit_bits(&fit)).collect::<Vec<_>>()
                }
            };
            let fanned = run.clone()();
            let inline = crate::exec::on_pool_worker(run);
            prop_assert!(fanned == want, "n = {n}, d = {d}, {config:?}: fanned out");
            prop_assert!(inline == want, "n = {n}, d = {d}, {config:?}: inline");
            Ok(())
        });
    }

    #[test]
    fn the_three_gps_share_one_block_and_an_extension_grows_it_once() {
        let m = toy_model();
        let shares = |m: &GpTaskModel| {
            let x = m.res.train_x();
            std::ptr::eq(x, m.tps.train_x()) && std::ptr::eq(x, m.lat.train_x())
        };
        assert!(shares(&m));
        // One more observation: the three GPs take the grown block as one.
        let mut grown = m.clone();
        let mut points = m.res.train_x().clone();
        points.push_row(&[0.5]).unwrap();
        let res: Vec<f64> = points.iter_rows().map(|p| 80.0 * p[0] + 10.0).collect();
        let tps: Vec<f64> = points.iter_rows().map(|p| 100.0 - 50.0 * p[0]).collect();
        let lat: Vec<f64> = points.iter_rows().map(|p| 10.0 + 5.0 * p[0]).collect();
        let scalers = TaskScalers::fit(&res, &tps, &lat);
        let points = Arc::new(points);
        let config = GpConfig::fixed();
        grown.extend_with_scalers(&points, &res, &tps, &lat, scalers, &config).unwrap();
        assert!(shares(&grown) && std::ptr::eq(grown.res.train_x(), &*points));
        // A history whose earlier points moved is not an extension.
        let mut moved = m.clone();
        let mut other = Matrix::from_fn(10, 1, |i, _| i as f64 / 10.0);
        other.push_row(&[0.5]).unwrap();
        let other = Arc::new(other);
        let moved_fit = moved.extend_with_scalers(&other, &res, &tps, &lat, scalers, &config);
        assert_eq!(moved_fit, Err(GpError::NotAnExtension));
    }

    #[test]
    fn batched_prediction_routes_each_metric_gp_to_its_field() {
        // Each field holds its own metric GP's prediction at that point,
        // bit for bit; the GP's numbers are held to a per-point reference
        // in `gp`'s unit tests.
        let m = toy_model();
        let pts = Matrix::from_fn(23, 1, |i, _| i as f64 / 22.0 * 1.4 - 0.2);
        let batch = m.predict_batch(&pts);
        assert_eq!(batch.len(), pts.rows());
        for (p, b) in pts.iter_rows().zip(&batch) {
            for (gp, got) in [(&m.res, b.res), (&m.tps, b.tps), (&m.lat, b.lat)] {
                let want = gp.predict(p).unwrap();
                assert_eq!(want.mean.to_bits(), got.mean.to_bits(), "mean at {p:?}");
                assert_eq!(want.variance.to_bits(), got.variance.to_bits(), "variance at {p:?}");
            }
        }
    }
}

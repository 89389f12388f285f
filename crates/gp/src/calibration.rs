//! Leave-one-out calibration diagnostics for a fitted GP.
//!
//! A surrogate that is *accurate* can still be *mis-calibrated*: its
//! predictive variance may be far too small (overconfident — the acquisition
//! under-explores) or far too large (underconfident — expected improvement
//! flattens out). The classic check is the standardized LOO residual
//! `z_i = (y_i − μ_{−i}(x_i)) / σ_{−i}(x_i)`: for a well-specified model the
//! `z_i` are approximately standard normal, so `|z| ≤ 1` should hold for
//! ~68% of points and `|z| ≤ 2` for ~95%. This module condenses the closed-
//! form LOO predictions ([`GaussianProcess::loo_predictions`], Rasmussen &
//! Williams Eqs. 5.10–5.12) into a [`Calibration`] summary — z-score
//! magnitudes, empirical 1σ/2σ coverage, and the mean LOO negative log
//! predictive density (R&W Eq. 5.11) — consumed by `core::diag`'s per-
//! iteration `TunerHealth` event.
//!
//! Everything here is deterministic: no RNG streams are read, so emitting
//! calibration diagnostics cannot move a bit of a seeded tuning run.

use crate::process::{GaussianProcess, Prediction};

/// Floor on the LOO predictive standard deviation, guarding the division in
/// the z-score and the log in the NLL against a numerically-zero variance.
const STD_FLOOR: f64 = 1e-12;

/// Standardized-residual calibration summary of a fitted GP, from its
/// closed-form leave-one-out predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Training points the summary is computed over.
    pub n: usize,
    /// Mean `|z|` of the standardized LOO residuals (≈ 0.80 when healthy).
    pub mean_abs_z: f64,
    /// Largest `|z|` — a single wild residual flags a surprise observation.
    pub max_abs_z: f64,
    /// Mean LOO negative log predictive density (R&W Eq. 5.11; lower is
    /// better, scale depends on the target's units).
    pub loo_nll: f64,
    /// Fraction of residuals with `|z| ≤ 1` (≈ 0.683 when well-calibrated).
    pub coverage_1s: f64,
    /// Fraction of residuals with `|z| ≤ 2` (≈ 0.954 when well-calibrated).
    pub coverage_2s: f64,
}

impl Calibration {
    /// An empty summary (zero points, all statistics zero).
    pub fn empty() -> Calibration {
        Calibration {
            n: 0,
            mean_abs_z: 0.0,
            max_abs_z: 0.0,
            loo_nll: 0.0,
            coverage_1s: 0.0,
            coverage_2s: 0.0,
        }
    }

    /// Summarizes observed targets against their LOO predictions. The two
    /// slices are paired by index; lengths must match.
    pub fn from_loo(y: &[f64], loo: &[Prediction]) -> Calibration {
        assert_eq!(y.len(), loo.len(), "targets and LOO predictions must pair up");
        let n = y.len();
        if n == 0 {
            return Calibration::empty();
        }
        let mut sum_abs_z = 0.0;
        let mut max_abs_z = 0.0f64;
        let mut nll = 0.0;
        let mut within_1s = 0usize;
        let mut within_2s = 0usize;
        for (yi, p) in y.iter().zip(loo) {
            let std = p.std_dev().max(STD_FLOOR);
            let r = yi - p.mean;
            let z = (r / std).abs();
            sum_abs_z += z;
            max_abs_z = max_abs_z.max(z);
            nll += 0.5 * (2.0 * std::f64::consts::PI * std * std).ln() + z * z / 2.0;
            if z <= 1.0 {
                within_1s += 1;
            }
            if z <= 2.0 {
                within_2s += 1;
            }
        }
        let nf = n as f64;
        Calibration {
            n,
            mean_abs_z: sum_abs_z / nf,
            max_abs_z,
            loo_nll: nll / nf,
            coverage_1s: within_1s as f64 / nf,
            coverage_2s: within_2s as f64 / nf,
        }
    }
}

impl GaussianProcess {
    /// The LOO calibration summary of this fitted model (see [`Calibration`]).
    pub fn loo_calibration(&self) -> Calibration {
        Calibration::from_loo(self.train_y(), &self.loo_predictions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::GpConfig;
    use crate::rand_util;
    use xrand::rngs::StdRng;
    use xrand::SeedableRng;

    /// 50 noisy observations of a smooth 1-D function — a task the default
    /// hyperparameter search is well-specified for.
    fn synthetic_task(seed: u64, n: usize) -> (linalg::Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = 0.1;
        let xs = linalg::Matrix::from_fn(n, 1, |i, _| i as f64 / (n - 1) as f64);
        let ys: Vec<f64> = xs
            .iter_rows()
            .map(|x| (x[0] * std::f64::consts::TAU).sin() + noise * rand_util::standard_normal(&mut rng))
            .collect();
        (xs, ys)
    }

    #[test]
    fn well_specified_gp_reports_nominal_one_sigma_coverage() {
        // Satellite gate: over 50 iterations of a well-specified synthetic
        // task, empirical 1σ coverage must land in [0.55, 0.80] — the band
        // around the nominal 0.683 that separates "healthy" from "mis-scaled"
        // in the health telemetry.
        let (xs, ys) = synthetic_task(17, 50);
        let gp = GaussianProcess::fit(xs, ys, &GpConfig::default()).unwrap();
        let cal = gp.loo_calibration();
        assert_eq!(cal.n, 50);
        assert!(
            (0.55..=0.80).contains(&cal.coverage_1s),
            "well-specified 1σ coverage {} outside [0.55, 0.80]",
            cal.coverage_1s
        );
        assert!(cal.coverage_2s >= cal.coverage_1s);
        assert!(cal.mean_abs_z < 1.5, "mean |z| {} too large", cal.mean_abs_z);
        assert!(cal.loo_nll.is_finite());
    }

    #[test]
    fn mis_scaled_targets_fall_outside_the_coverage_band() {
        // Deliberate mis-scaling: keep the hyperparameters fitted for the
        // original targets but swap in targets 100x larger. The predictive
        // std stays the same while residuals blow up, so the model is grossly
        // overconfident — coverage collapses below the band and mean |z|
        // explodes. This is exactly the failure mode the health event flags.
        let (xs, ys) = synthetic_task(17, 50);
        let mut gp = GaussianProcess::fit(xs, ys.clone(), &GpConfig::default()).unwrap();
        gp.set_targets(ys.iter().map(|y| y * 100.0).collect()).unwrap();
        let cal = gp.loo_calibration();
        assert!(
            !(0.55..=0.80).contains(&cal.coverage_1s),
            "mis-scaled 1σ coverage {} should fall outside [0.55, 0.80]",
            cal.coverage_1s
        );
        assert!(cal.mean_abs_z > 2.0, "mis-scaled mean |z| {} should explode", cal.mean_abs_z);
    }

    #[test]
    fn empty_and_singleton_summaries_are_defined() {
        let empty = Calibration::from_loo(&[], &[]);
        assert_eq!(empty, Calibration::empty());
        let one = Calibration::from_loo(
            &[1.0],
            &[Prediction { mean: 1.0, variance: 1.0 }],
        );
        assert_eq!(one.n, 1);
        assert_eq!(one.coverage_1s, 1.0);
        assert_eq!(one.mean_abs_z, 0.0);
    }
}

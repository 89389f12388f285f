//! Gaussian-process regression built from scratch for the ResTune surrogates.
//!
//! ResTune (SIGMOD 2021) models the objective (resource utilization) and both
//! SLA constraints (throughput, p99 latency) with independent Gaussian
//! processes (§5.1), and its meta-learning layer needs posterior *samples* and
//! leave-one-out predictions to compute ranking-loss weights (§6.4.2). The
//! paper's implementation sits on BoTorch; no equivalent exists offline, so
//! this crate rebuilds the pieces:
//!
//! * [`kernel::Matern52`] — Matérn-5/2 kernel with ARD lengthscales (the
//!   BoTorch default ResTune inherits) and analytic gradients with respect to
//!   the log-hyperparameters,
//! * [`GaussianProcess`] — exact GP regression with observation noise, fitted
//!   by multi-restart Adam ascent on the log marginal likelihood: the one
//!   backend, for target tasks and historical base learners alike (the
//!   paper's repository holds about 188 observations per task),
//! * posterior prediction with confidence bounds, joint posterior sampling,
//! * [`GaussianProcess::loo_predictions`] — closed-form leave-one-out
//!   predictions (Rasmussen & Williams, Eqs. 5.10–5.12), used to score the
//!   *target* base-learner without in-sample bias.
//!
//! Inputs are expected in the normalized knob space `[0, 1]^d`; outputs are
//! whatever scale the caller chooses (ResTune standardizes per task, §6.1).

// Indexed loops are intentional in the numeric kernels below: they mirror
// the textbook formulations and keep bounds explicit.
#![allow(clippy::needless_range_loop)]

pub mod calibration;
pub mod kernel;
pub mod process;
pub mod rand_util;

pub use calibration::Calibration;
pub use kernel::Matern52;
pub use process::{
    check_inputs, FitPlan, GaussianProcess, GpConfig, GpError, Prediction, RestartFit,
};

/// Standard normal cumulative distribution function.
///
/// Used by the (constrained) expected-improvement acquisition functions.
/// Implemented via a rational-polynomial erf approximation accurate to ~1e-7,
/// which is far below observation noise in this domain.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal probability density function.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Error function via the Abramowitz & Stegun 7.1.26 approximation.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_symmetry_and_anchors() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.959964) - 0.025).abs() < 1e-4);
        for z in [-3.0, -1.0, 0.3, 2.2] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn normal_pdf_peak_value() {
        assert!((normal_pdf(0.0) - 0.3989422804014327).abs() < 1e-12);
    }

    #[test]
    fn erf_anchors() {
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
    }
}

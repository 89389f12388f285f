//! Property-based tests on Gaussian-process invariants, on the in-tree
//! `propcheck` harness with fixed suite seeds.

use gp::{GaussianProcess, GpConfig};
use propcheck::{check, Config, Gen};

/// Draws what the old proptest `dataset()` strategy produced: `n` points in
/// `2..12`, dimension in `1..4`, inputs in `[0, 1)`, targets in `[-2, 2)`.
fn draw_dataset(g: &mut Gen) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = g.usize_in(2, 11);
    let d = g.usize_in(1, 3);
    let xs: Vec<Vec<f64>> = (0..n).map(|_| g.vec_f64(d, 0.0, 1.0)).collect();
    let ys = g.vec_f64(n, -2.0, 2.0);
    (xs, ys)
}

#[test]
fn posterior_variance_is_nonnegative() {
    check("posterior_variance_is_nonnegative", Config::default().cases(48).seed(0x6B_0001), |g| {
        let (xs, ys) = draw_dataset(g);
        let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
        for i in 0..20 {
            let p: Vec<f64> = (0..gp.dim()).map(|j| ((i * 7 + j * 3) % 11) as f64 / 10.0).collect();
            let pred = gp.predict(&p).unwrap();
            propcheck::prop_assert!(pred.variance >= 0.0);
            propcheck::prop_assert!(pred.mean.is_finite());
        }
        Ok(())
    });
}

#[test]
fn adding_data_never_increases_variance_at_new_point() {
    check(
        "adding_data_never_increases_variance_at_new_point",
        Config::default().cases(48).seed(0x6B_0002),
        |g| {
            // Fit on a prefix, then the full set; variance at any point must not grow.
            let (xs, ys) = draw_dataset(g);
            let half = xs.len() / 2;
            let gp_small =
                GaussianProcess::fit(xs[..half].to_vec(), ys[..half].to_vec(), &GpConfig::fixed())
                    .unwrap();
            let gp_full = GaussianProcess::fit(xs.clone(), ys.clone(), &GpConfig::fixed()).unwrap();
            let probe: Vec<f64> = vec![0.5; gp_full.dim()];
            let vs = gp_small.predict(&probe).unwrap().variance;
            let vf = gp_full.predict(&probe).unwrap().variance;
            propcheck::prop_assert!(vf <= vs + 1e-6, "variance grew from {vs} to {vf} with more data");
            Ok(())
        },
    );
}

#[test]
fn log_marginal_likelihood_is_finite() {
    check("log_marginal_likelihood_is_finite", Config::default().cases(48).seed(0x6B_0003), |g| {
        let (xs, ys) = draw_dataset(g);
        let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
        propcheck::prop_assert!(gp.log_marginal_likelihood().is_finite());
        Ok(())
    });
}

#[test]
fn loo_has_one_prediction_per_observation() {
    check("loo_has_one_prediction_per_observation", Config::default().cases(48).seed(0x6B_0004), |g| {
        let (xs, ys) = draw_dataset(g);
        let n = xs.len();
        let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
        let loo = gp.loo_predictions().unwrap();
        propcheck::prop_assert_eq!(loo.len(), n);
        for p in &loo {
            propcheck::prop_assert!(p.variance >= 0.0);
            propcheck::prop_assert!(p.mean.is_finite());
        }
        Ok(())
    });
}

#[test]
fn constant_shift_moves_predictions_by_the_shift() {
    check(
        "constant_shift_moves_predictions_by_the_shift",
        Config::default().cases(48).seed(0x6B_0005),
        |g| {
            let (xs, ys) = draw_dataset(g);
            let shift = g.f64_in(-10.0, 10.0);
            let gp_a = GaussianProcess::fit(xs.clone(), ys.clone(), &GpConfig::fixed()).unwrap();
            let shifted: Vec<f64> = ys.iter().map(|y| y + shift).collect();
            let gp_b = GaussianProcess::fit(xs, shifted, &GpConfig::fixed()).unwrap();
            let probe: Vec<f64> = vec![0.3; gp_a.dim()];
            let pa = gp_a.predict(&probe).unwrap();
            let pb = gp_b.predict(&probe).unwrap();
            propcheck::prop_assert!((pb.mean - pa.mean - shift).abs() < 1e-8);
            propcheck::prop_assert!((pb.variance - pa.variance).abs() < 1e-8);
            Ok(())
        },
    );
}

#[test]
fn batch_predictions_do_not_depend_on_the_rest_of_the_batch() {
    // A point's prediction is a function of that point alone: predicting it
    // alone, inside the whole batch, or inside the reversed batch gives the
    // same bits. The acquisition optimizer relies on this when it scores
    // candidates in 256-point blocks split across lanes. The per-point
    // formula itself is held by the reference tests in the unit modules.
    check(
        "batch_predictions_do_not_depend_on_the_rest_of_the_batch",
        Config::default().cases(48).seed(0x6B_0006),
        |g| {
            let (xs, ys) = draw_dataset(g);
            let cfg = if g.flag() {
                GpConfig::fixed()
            } else {
                GpConfig { restarts: 1, adam_iters: 10, seed: 17, ..Default::default() }
            };
            let gp = GaussianProcess::fit(xs, ys, &cfg).unwrap();
            let m = g.usize_in(1, 40);
            let pts: Vec<Vec<f64>> = (0..m).map(|_| g.vec_f64(gp.dim(), -0.5, 1.5)).collect();
            let batch = gp.predict_batch(&pts).unwrap();
            let reversed: Vec<Vec<f64>> = pts.iter().rev().cloned().collect();
            let mut rev_batch = gp.predict_batch(&reversed).unwrap();
            rev_batch.reverse();
            propcheck::prop_assert_eq!(batch.len(), pts.len());
            for ((p, b), r) in pts.iter().zip(&batch).zip(&rev_batch) {
                let single = gp.predict(p).unwrap();
                for other in [&single, r] {
                    propcheck::prop_assert_eq!(other.mean.to_bits(), b.mean.to_bits());
                    propcheck::prop_assert_eq!(other.variance.to_bits(), b.variance.to_bits());
                }
            }
            Ok(())
        },
    );
}

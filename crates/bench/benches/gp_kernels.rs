//! Microbenchmarks of the Gaussian-process surrogate stack — the
//! computational kernels behind every "Model Update" row of Table 3.

use gp::{GaussianProcess, GpConfig};
use restune_bench::microbench::{black_box, suite, Bencher};
use restune_core::acquisition::{AcquisitionOptimizer, ConstrainedExpectedImprovement};
use restune_core::surrogate::GpTaskModel;
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
    (xs, ys)
}

fn main() {
    let b = Bencher::from_env();
    suite("gp");

    for &n in &[50usize, 100, 200] {
        let (xs, ys) = dataset(n, 14, 1);
        b.bench(&format!("fit_fixed_hypers/{n}"), || {
            black_box(
                GaussianProcess::fit(black_box(xs.clone()), black_box(ys.clone()), &GpConfig::fixed())
                    .unwrap(),
            );
        });
    }

    let (xs, ys) = dataset(100, 14, 2);
    let opt_cfg = GpConfig { restarts: 1, adam_iters: 25, ..Default::default() };
    b.bench("fit_optimized_hypers_n100", || {
        black_box(GaussianProcess::fit(black_box(xs.clone()), black_box(ys.clone()), &opt_cfg).ok());
    });

    // The default refit (2 restarts x 40 Adam steps) a metric GP pays on a
    // hyperparameter-refit step once a session is past 100 observations.
    let (xs110, ys110) = dataset(110, 14, 5);
    let default_cfg = GpConfig::default();
    b.bench("fit_default_hypers_n110_d14", || {
        black_box(
            GaussianProcess::fit(black_box(xs110.clone()), black_box(ys110.clone()), &default_cfg)
                .ok(),
        );
    });

    // The same default refit at fleet size: every full-refit step of a
    // tenant with n <= 40 pays it, at a native tenant's 14 knobs and at a
    // HeSBO tenant's 8 embedded dimensions.
    for d in [14, 8] {
        let (xs12, ys12) = dataset(12, d, 6);
        b.bench(&format!("fit_default_hypers_n12_d{d}"), || {
            black_box(
                GaussianProcess::fit(
                    black_box(xs12.clone()),
                    black_box(ys12.clone()),
                    &default_cfg,
                )
                .ok(),
            );
        });
    }

    // Acquisition scoring predicts in 256-candidate blocks
    // (`AcquisitionOptimizer`'s block size), so time exactly that call.
    let model = GaussianProcess::fit(xs.clone(), ys.clone(), &GpConfig::fixed()).unwrap();
    let probes = dataset(256, 14, 3).0;
    b.bench("predict_batch_256_points_n100", || {
        black_box(model.predict_batch(black_box(&probes)).unwrap());
    });
    // The same block through the mean-only call ensemble base learners use:
    // the gap to the arm above is the variance's forward solve.
    b.bench("predict_mean_batch_256_points_n100", || {
        black_box(model.predict_mean_batch(black_box(&probes)).unwrap());
    });

    let sample_points = dataset(40, 14, 4).0;
    let mut rng = StdRng::seed_from_u64(9);
    b.bench("sample_joint_30x40_n100", || {
        black_box(model.sample_joint(&sample_points, 30, &mut rng).unwrap());
    });

    b.bench("loo_predictions_n100", || {
        black_box(model.loo_predictions());
    });

    // One default acquisition (1,500 uniform + 200 local candidates) with
    // CEI over a fitted three-metric model: the bounded search alone,
    // objective-only bounds for every candidate and the full prediction for
    // those it values, without the fits a tuning step runs first.
    let tps: Vec<f64> = xs.iter().map(|x| (2.0 * x[0]).cos() + x[2]).collect();
    let lat: Vec<f64> = xs.iter().map(|x| x[1] - x[3] * x[4]).collect();
    let task = GpTaskModel::fit(&xs, &ys, &tps, &lat, &GpConfig::fixed()).unwrap();
    let incumbent = ys.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    let anchors = vec![xs[incumbent].clone()];
    let cei = ConstrainedExpectedImprovement {
        best_feasible: Some(task.predict_batch(&anchors)[0].res.mean),
        tps_floor: -0.5,
        lat_ceiling: 0.5,
    };
    let optimizer = AcquisitionOptimizer::default();
    b.bench("cei_optimize_n100_d14", || {
        black_box(optimizer.optimize(
            14,
            &anchors,
            7,
            |pts| task.res.predict_batch(pts).unwrap().iter().map(|p| cei.bound(p)).collect(),
            |pts| task.predict_batch(pts).iter().map(|p| cei.value(p)).collect(),
        ));
    });
}

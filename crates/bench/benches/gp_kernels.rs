//! Microbenchmarks of the Gaussian-process surrogate stack — the
//! computational kernels behind every "Model Update" row of Table 3.

use gp::{GaussianProcess, GpConfig, Prediction};
use linalg::{Matrix, MatrixView};
use restune_bench::microbench::{black_box, suite, Bencher};
use restune_core::acquisition::{AcquisitionOptimizer, ConstrainedExpectedImprovement};
use restune_core::surrogate::{GpTaskModel, SurrogatePrediction};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

/// `n` uniform points in `[0,1]^d`, one per row, and a smooth target.
fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs = Matrix::from_fn(n, d, |_, _| rng.random::<f64>());
    let ys: Vec<f64> = xs.iter_rows().map(|x| x.iter().sum::<f64>().sin()).collect();
    (xs, ys)
}

/// One default acquisition (1,500 uniform + 200 local candidates) with CEI
/// over a three-metric model fitted on `xs`: the bounded search alone,
/// objective bounds for every candidate, the constraint predictions for
/// those it values, without the fits a tuning step runs first.
fn bench_cei_optimize(b: &Bencher, label: &str, xs: &Matrix, ys: &[f64]) {
    let tps: Vec<f64> = xs.iter_rows().map(|x| (2.0 * x[0]).cos() + x[2]).collect();
    let lat: Vec<f64> = xs.iter_rows().map(|x| x[1] - x[3] * x[4]).collect();
    let task = GpTaskModel::fit(xs.clone(), ys, &tps, &lat, &GpConfig::fixed()).unwrap();
    let incumbent = ys.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
    let anchors = Matrix::from_vec(1, xs.cols(), xs.row(incumbent).to_vec());
    let cei = ConstrainedExpectedImprovement {
        best_feasible: Some(task.predict_batch(&anchors)[0].res.mean),
        tps_floor: -0.5,
        lat_ceiling: 0.5,
    };
    let value = |pts: &MatrixView<'_>, res: &[Prediction]| -> Vec<f64> {
        let [tps, lat] = [&task.tps, &task.lat].map(|gp| gp.predict_batch(pts).unwrap());
        let joint = |((&res, tps), lat)| SurrogatePrediction { res, tps, lat };
        res.iter().zip(tps).zip(lat).map(|p| cei.value(&joint(p))).collect()
    };
    let optimizer = AcquisitionOptimizer::default();
    b.bench(label, || {
        black_box(optimizer.optimize(
            &anchors,
            7,
            |pts| task.res.predict_batch(pts).unwrap(),
            Some(|p: &Prediction| cei.bound(p)),
            value,
        ));
    });
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

    bench_cei_optimize(&b, "cei_optimize_n100_d14", &xs, &ys);
    // The same acquisition at fleet size: `fleet_mixed` tenants acquire at
    // n <= 20, where the candidate bookkeeping around the predictions is a
    // large share of the search.
    let (xs20, ys20) = dataset(20, 14, 8);
    bench_cei_optimize(&b, "cei_optimize_n20_d14", &xs20, &ys20);
}

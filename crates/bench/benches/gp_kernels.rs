//! Microbenchmarks of the Gaussian-process surrogate stack — the
//! computational kernels behind every "Model Update" row of Table 3.

use gp::{GaussianProcess, GpConfig};
use restune_bench::microbench::{black_box, suite, Bencher};
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

    // Acquisition scoring predicts in 256-candidate blocks
    // (`AcquisitionOptimizer`'s block size), so time exactly that call.
    let model = GaussianProcess::fit(xs.clone(), ys.clone(), &GpConfig::fixed()).unwrap();
    let probes = dataset(256, 14, 3).0;
    b.bench("predict_batch_256_points_n100", || {
        black_box(model.predict_batch(black_box(&probes)).unwrap());
    });

    let sample_points = dataset(40, 14, 4).0;
    let mut rng = StdRng::seed_from_u64(9);
    b.bench("sample_joint_30x40_n100", || {
        black_box(model.sample_joint(&sample_points, 30, &mut rng).unwrap());
    });

    b.bench("loo_predictions_n100", || {
        black_box(model.loo_predictions().unwrap());
    });
}

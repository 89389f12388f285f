//! GP surrogate fit timing (*ours*, DESIGN.md §13), saved as
//! `BENCH_gp.json`: incremental rank-1 extension vs full refactorization at
//! growing history sizes.
//!
//! In-run checks: extending a GP by one point predicts like refitting it
//! (within 1e-9 on a probe), extending a 50-observation GP is at least 2×
//! faster than refitting it (median over samples), and the incremental arms
//! drive the `linalg.cholesky.update` trace counter (the rank-1 path really
//! ran; nothing silently fell back). `bench_gate` compares every speedup
//! arm the current run shares with the baseline; a 40 % drop allowance means
//! a 2× slowdown of the optimized path trips it.

use std::sync::Arc;

use gp::{GaussianProcess, GpConfig};
use linalg::Matrix;

use super::check;
use crate::gate::{Check, Gate, Rule};
use crate::microbench::{black_box, Bencher};
use crate::report::traced;

/// Every history size with an arm; a run takes those up to its largest.
pub const SIZES: [usize; 4] = [25, 50, 200, 1000];
/// The largest history at quick and at full scale.
pub const LARGEST: (usize, usize) = (50, 1000);
/// The history size whose speedup the run checks.
pub const CHECKED_N: usize = 50;
/// The least speedup the run accepts at [`CHECKED_N`].
pub const MIN_SPEEDUP: f64 = 2.0;

/// One history size's timings.
#[derive(Debug, Clone, PartialEq)]
pub struct GpArm {
    /// Observations after the absorbed one.
    pub n: usize,
    /// Median full refit, µs.
    pub full_us: f64,
    /// Median rank-1 extension, µs.
    pub incremental_us: f64,
    /// `full_us / incremental_us`.
    pub speedup: f64,
}

/// The timing run, as `BENCH_gp.json` holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct GpDoc {
    /// Always `gp_fit`.
    pub bench: String,
    /// True when the run skipped the larger sizes (quick scale).
    pub smoke: bool,
    /// Rank-1 factor updates the incremental arms counted.
    pub cholesky_updates: u64,
    /// One arm per history size, ascending.
    pub incremental: Vec<GpArm>,
    /// What `bench_gate` compares.
    pub gate: Gate,
}

minjson::json_struct!(GpArm { n, full_us, incremental_us, speedup });
minjson::json_struct!(GpDoc { bench, smoke, cholesky_updates, incremental, gate });

/// Deterministic synthetic training set: a smooth 3-dim response surface
/// (no RNG, so every run and both arms see identical data), one point per
/// row.
fn training_data(n: usize) -> (Matrix, Vec<f64>) {
    let xs = Matrix::from_fn(n, 3, |i, c| {
        let t = i as f64 / n as f64;
        [t, (t * 13.7).fract(), (t * 5.3).fract()][c]
    });
    let ys = xs
        .iter_rows()
        .map(|x| (3.0 * x[0]).sin() + 0.5 * x[1] * x[1] - 0.3 * x[2])
        .collect();
    (xs, ys)
}

/// Times "absorb the n-th observation": full refit of all n points vs
/// rank-1 extension of a factor already holding n-1.
fn incremental_arm(b: &Bencher, n: usize) -> Result<GpArm, String> {
    let cfg = GpConfig::fixed();
    let fit_error = |what: &str, e: gp::GpError| format!("n={n}: {what} failed: {e}");
    let (xs, ys) = training_data(n);
    let prefix = Matrix::from_rows(3, xs.view(0..n - 1).iter_rows())
        .map_err(|e| format!("n={n}: training prefix: {e}"))?;
    let base = GaussianProcess::fit(prefix, ys[..n - 1].to_vec(), &cfg)
        .map_err(|e| fit_error("base fit", e))?;
    // The grown training block the extension takes, and the new target.
    let (grown, y_new) = (Arc::new(xs.clone()), ys[n - 1]);

    // The rank-1 path must predict exactly like the full refit before its
    // timing means anything.
    let mut extended = base.clone();
    extended.extend(Arc::clone(&grown), y_new, &cfg).map_err(|e| fit_error("extend", e))?;
    let full =
        GaussianProcess::fit(xs.clone(), ys.clone(), &cfg).map_err(|e| fit_error("full fit", e))?;
    let probe = [0.37, 0.71, 0.13];
    let predict = |g: &GaussianProcess| g.predict(&probe).map_err(|e| fit_error("predict", e));
    let (pe, pf) = (predict(&extended)?, predict(&full)?);
    check((pe.mean - pf.mean).abs() < 1e-9 && (pe.variance - pf.variance).abs() < 1e-9, || {
        format!("n={n}: incremental and full fits disagree ({} vs {})", pe.mean, pf.mean)
    })?;

    let full_stats = b.bench(&format!("gp_fit/full/n={n}"), || {
        black_box(GaussianProcess::fit(xs.clone(), ys.clone(), &cfg).expect("full fit"));
    });
    let inc_stats = b.bench_with_setup(
        &format!("gp_fit/incremental/n={n}"),
        || base.clone(),
        |mut g| {
            g.extend(Arc::clone(&grown), y_new, &cfg).expect("extend");
            g
        },
    );
    Ok(GpArm {
        n,
        full_us: full_stats.median_ns / 1e3,
        incremental_us: inc_stats.median_ns / 1e3,
        speedup: full_stats.median_ns / inc_stats.median_ns,
    })
}

/// Times every arm of [`SIZES`] up to `largest` and runs the in-run checks;
/// `Err` names the first check that failed.
pub fn run(largest: usize) -> Result<GpDoc, String> {
    // Allocator warm-up. The timed `extend` allocates its grown factor
    // (`Cholesky::append_row`), 5 KB at n = 25 but 8 MB at n = 1000. glibc
    // serves a block above its mmap threshold (128 KiB at start) from a fresh
    // `mmap`, whose pages fault in inside the timed region, and raises the
    // threshold whenever such a block is freed. So whether an arm paid for
    // page faults depended on which unrelated allocations came first.
    // Freeing one 16 MiB block here raises the threshold past every factor
    // this run grows, before any arm runs.
    black_box(vec![0u8; 16 << 20]);

    let b = Bencher::from_env();
    let sizes: Vec<usize> = SIZES.into_iter().filter(|&n| n <= largest).collect();
    // Count rank-1 factor updates across the incremental arms: the check
    // below proves the Cholesky append path actually ran.
    let (arms, snap) = traced(|| {
        sizes.iter().map(|&n| incremental_arm(&b, n)).collect::<Result<Vec<_>, _>>()
    });
    let arms = arms?;
    let updates = snap.counter("linalg.cholesky.update");

    let at = arms
        .iter()
        .find(|a| a.n == CHECKED_N)
        .ok_or_else(|| format!("no n={CHECKED_N} arm at largest history {largest}"))?;
    check(at.speedup >= MIN_SPEEDUP, || {
        format!(
            "incremental refit at n={CHECKED_N} is only {:.2}x faster than a full refit \
             (need >= {MIN_SPEEDUP}x)",
            at.speedup
        )
    })?;
    check(updates > 0, || {
        "linalg.cholesky.update counter stayed 0: rank-1 path never ran".to_string()
    })?;

    Ok(GpDoc {
        bench: "gp_fit".to_string(),
        smoke: sizes.len() < SIZES.len(),
        cholesky_updates: updates,
        incremental: arms,
        gate: Gate {
            same: Vec::new(),
            checks: vec![
                Check { path: "incremental[n].speedup".into(), rule: Rule::Floor { drop: 0.4 } },
                Check { path: "cholesky_updates".into(), rule: Rule::Nonzero },
            ],
        },
    })
}

//! GP surrogate fit bench (DESIGN.md §13): incremental rank-1 extension vs
//! full refactorization at growing history sizes.
//!
//! Usage:
//!   gp_fit_bench [--smoke] [--out BENCH_gp.json]
//!
//! `--smoke` restricts the arms to n ∈ {25, 50} so a CI pass finishes in
//! seconds; the default (full) run covers n ∈ {25, 50, 200, 1000}, the
//! numbers tracked in EXPERIMENTS.md. Both modes enforce the two hard
//! gates:
//!
//! * extending a 50-observation GP by one point must be ≥ 2x faster than
//!   refitting it from scratch (median over samples), and
//! * the incremental arm must drive the `linalg.cholesky.update` trace
//!   counter (the rank-1 path really ran; nothing silently fell back).
//!
//! The JSON written to `--out` is the tracked `BENCH_gp.json` trajectory.
//! Its `"gate"` block declares what `bench_gate` compares: every speedup arm
//! the current run shares with the baseline (may drop 40 %, so a 2x
//! slowdown of the optimized path trips it) and a nonzero rank-1 update
//! count.

use gp::{GaussianProcess, GpConfig};
use linalg::Matrix;
use restune_bench::gate::{Check, Gate, Rule};
use restune_bench::microbench::{black_box, suite, Bencher};
use std::sync::Arc;

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

struct IncArm {
    n: usize,
    full_ns: f64,
    incremental_ns: f64,
    speedup: f64,
}

/// Times "absorb the n-th observation": full refit of all n points vs
/// rank-1 extension of a factor already holding n-1.
fn incremental_arm(b: &Bencher, n: usize) -> IncArm {
    let cfg = GpConfig::fixed();
    let (xs, ys) = training_data(n);
    let prefix = Matrix::from_rows(3, xs.view(0..n - 1).iter_rows()).expect("3-dim rows");
    let base = GaussianProcess::fit(prefix, ys[..n - 1].to_vec(), &cfg).expect("base fit");
    // The grown training block the extension takes, and the new target.
    let (grown, y_new) = (Arc::new(xs.clone()), ys[n - 1]);

    // Sanity: the rank-1 path must predict exactly like the full refit
    // before its timing means anything.
    let mut extended = base.clone();
    extended.extend(Arc::clone(&grown), y_new, &cfg).expect("extend");
    let full = GaussianProcess::fit(xs.clone(), ys.clone(), &cfg).expect("full fit");
    let probe = vec![0.37, 0.71, 0.13];
    let (pe, pf) = (extended.predict(&probe).unwrap(), full.predict(&probe).unwrap());
    assert!(
        (pe.mean - pf.mean).abs() < 1e-9 && (pe.variance - pf.variance).abs() < 1e-9,
        "n={n}: incremental and full fits disagree ({} vs {})",
        pe.mean,
        pf.mean
    );

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
    IncArm {
        n,
        full_ns: full_stats.median_ns,
        incremental_ns: inc_stats.median_ns,
        speedup: full_stats.median_ns / inc_stats.median_ns,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_gp.json".to_string());

    // Allocator warm-up. The timed `extend` allocates its grown factor
    // (`Cholesky::append_row`), 5 KB at n = 25 but 8 MB at n = 1000. glibc
    // serves a block above its mmap threshold (128 KiB at start) from a fresh
    // `mmap`, whose pages fault in inside the timed region, and raises the
    // threshold whenever such a block is freed. So whether an arm paid for
    // page faults depended on which unrelated allocations came first.
    // Freeing one 16 MiB block here raises the threshold past every factor
    // this bench grows, before any arm runs.
    black_box(vec![0u8; 16 << 20]);

    let b = Bencher::from_env();
    let inc_sizes: &[usize] = if smoke { &[25, 50] } else { &[25, 50, 200, 1000] };

    suite("gp_fit: incremental (rank-1 extend) vs full refit");
    // Count rank-1 factor updates across the incremental arms: the gate
    // below proves the Cholesky append path actually ran.
    trace::enable();
    trace::reset();
    let inc: Vec<IncArm> = inc_sizes.iter().map(|&n| incremental_arm(&b, n)).collect();
    let updates = trace::snapshot().counter("linalg.cholesky.update");
    trace::reset();
    trace::disable();

    println!("\n{:>6}  {:>12}  {:>14}  {:>8}", "n", "full", "incremental", "speedup");
    for a in &inc {
        println!(
            "{:>6}  {:>10.1} µs  {:>12.1} µs  {:>7.1}x",
            a.n,
            a.full_ns / 1e3,
            a.incremental_ns / 1e3,
            a.speedup
        );
    }

    // Hard gates (ISSUE acceptance): ≥ 2x at 50 observations, and the
    // rank-1 path must have been exercised for real.
    let at50 = inc.iter().find(|a| a.n == 50).expect("n=50 arm always runs");
    assert!(
        at50.speedup >= 2.0,
        "incremental refit at n=50 is only {:.2}x faster than a full refit (need >= 2x)",
        at50.speedup
    );
    assert!(updates > 0, "linalg.cholesky.update counter stayed 0: rank-1 path never ran");
    println!(
        "\ngates: n=50 speedup {:.1}x (>= 2x), {updates} rank-1 cholesky updates traced",
        at50.speedup
    );

    // Tracked trajectory entry (BENCH_gp.json).
    let gate = Gate {
        same: Vec::new(),
        checks: vec![
            Check { path: "incremental[n].speedup".into(), rule: Rule::Floor { drop: 0.4 } },
            Check { path: "cholesky_updates".into(), rule: Rule::Nonzero },
        ],
    };
    let json = format!(
        "{{\n  \"bench\": \"gp_fit\",\n  \"smoke\": {smoke},\n  \"cholesky_updates\": {updates},\n  \"incremental\": [\n{}\n  ],\n{}\n}}\n",
        inc.iter()
            .map(|a| format!(
                "    {{\"n\": {}, \"full_us\": {:.1}, \"incremental_us\": {:.1}, \"speedup\": {:.1}}}",
                a.n,
                a.full_ns / 1e3,
                a.incremental_ns / 1e3,
                a.speedup
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        gate.render(),
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("[saved {out_path}]");
}

//! The drift and projection artifacts at their committed size, gated against
//! the committed `BENCH_drift.json` and `BENCH_projection.json`: every
//! in-run check holds and every declared value passes, so both quality
//! gates run with the test suite.

use std::path::Path;

use restune_bench::gate::{self, Outcome};
use restune_bench::paper::{Runner, ARTIFACTS};
use restune_bench::Scale;

#[test]
fn drift_and_projection_runs_pass_the_committed_gates() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quality_gates");
    let _ = std::fs::remove_dir_all(&results);
    let runner = Runner::new(Scale::Quick);
    for id in ["drift_sweep", "projection_sweep"] {
        let artifact = ARTIFACTS.iter().find(|a| a.id == id).expect("registered");
        runner.run(artifact, &results).unwrap_or_else(|e| panic!("{id}: {e}"));
    }

    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let report = gate::gate_dirs(root, &results, None).unwrap();
    assert!(report.passed(), "{}", report.render());
    let (ours, others): (Vec<_>, Vec<_>) = report
        .checks
        .iter()
        .partition(|c| c.metric.starts_with("drift.") || c.metric.starts_with("projection."));
    // The wall-clock baselines have no current file here.
    let others: Vec<&str> = others.iter().map(|c| c.metric.as_str()).collect();
    assert_eq!(others, ["fleet.file", "gp.file"], "{}", report.render());
    let skipped: Vec<&str> = ours
        .iter()
        .filter(|c| c.outcome == Outcome::Skipped)
        .map(|c| c.metric.as_str())
        .collect();
    assert_eq!(
        skipped,
        ["drift.arms[arm=oblivious].final_cpu_pct", "drift.arms[arm=oblivious].iters_to_10pct"],
        "{}",
        report.render()
    );
    assert_eq!(ours.len(), 23, "{}", report.render());
}

//! The committed `BENCH_*.json` baselines at the repository root: each
//! declares its own checks, a self-diff regresses nothing, and the gate's
//! self-test trips on every declared value.

use std::path::Path;

use restune_bench::gate::{self, Gate, Outcome};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn committed_baselines_declare_their_checks_and_self_diff_clean() {
    let root = repo_root();
    let mut names: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["BENCH_drift.json", "BENCH_fleet.json", "BENCH_gp.json", "BENCH_projection.json"]
    );
    for name in &names {
        let doc = gate::load(&root.join(name)).unwrap();
        let declared = Gate::from_doc(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!declared.checks.is_empty(), "{name} declares no checks");
    }

    let report = gate::gate_dirs(root, root, None).unwrap();
    assert!(report.passed(), "{}", report.render());
    let passes = report.checks.iter().filter(|c| c.outcome == Outcome::Pass).count();
    assert!(passes >= 30, "{}", report.render());
    // Only null baseline values (the oblivious drift arm) skip.
    for c in report.checks.iter().filter(|c| c.outcome == Outcome::Skipped) {
        assert_eq!(c.detail, "baseline null", "{}", report.render());
    }

    let mutated = gate::self_test_dir(root, None).unwrap();
    assert_eq!(mutated.checks.len(), passes);
    assert_eq!(mutated.regressions(), passes, "{}", mutated.render());
}

//! Bench-trajectory regression gate (DESIGN.md §15): pairs every
//! `BENCH_*.json` baseline with the current file of the same name and
//! applies the checks the baseline declares in its `"gate"` block
//! (`restune_bench::gate`). Exits nonzero on any regression.
//!
//! Usage:
//!   bench_gate [--baseline-dir DIR] [--current-dir DIR] [--prefix P] [--floor-drop F]
//!   bench_gate --self-test [--baseline-dir DIR] [--floor-drop F]
//!
//! Defaults: baseline-dir `.` (the committed baselines), current-dir =
//! baseline-dir (a self-diff, which must pass on an unmodified tree).
//! `--prefix` is prepended to the *current* file names, matching CI's
//! `results/ci.BENCH_*.json` outputs. `--floor-drop` replaces the drop of
//! every declared `floor` check. `--self-test` proves the regression
//! machinery trips: it pushes each checked value just past its bound and
//! exits 0 only if every one regresses.
//!
//! Exit codes: 0 gate passed, 1 regression (or self-test failed to trip),
//! 2 usage, read or parse error, or a baseline without a gate block.

use std::path::PathBuf;

use restune_bench::gate;

const VALUE_FLAGS: [&str; 4] = ["--baseline-dir", "--current-dir", "--prefix", "--floor-drop"];

fn usage(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut values: Vec<(&str, &str)> = Vec::new();
    let mut self_test = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--self-test" {
            self_test = true;
        } else if VALUE_FLAGS.contains(&flag) {
            let value = args.get(i + 1).unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            values.push((flag, value));
            i += 1;
        } else {
            usage(&format!("unexpected argument {flag}"));
        }
        i += 1;
    }
    let get = |flag: &str| values.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| *v);

    let floor_drop = get("--floor-drop").map(|v| {
        v.parse::<f64>()
            .unwrap_or_else(|_| usage(&format!("--floor-drop expects a number, got {v}")))
    });
    let baseline_dir = PathBuf::from(get("--baseline-dir").unwrap_or("."));
    let current_dir =
        get("--current-dir").map(PathBuf::from).unwrap_or_else(|| baseline_dir.clone());

    let result = if self_test {
        gate::self_test_dir(&baseline_dir, floor_drop)
    } else {
        gate::gate_dirs(&baseline_dir, &current_dir, get("--prefix").unwrap_or(""), floor_drop)
    };
    let report = result.unwrap_or_else(|e| usage(&e));
    print!("{}", report.render());
    if self_test {
        let mutated = report.checks.len();
        if mutated == 0 || report.regressions() != mutated {
            eprintln!(
                "bench_gate: SELF-TEST FAILED: only {} of {mutated} values pushed past \
                 their bounds regressed",
                report.regressions()
            );
            std::process::exit(1);
        }
        println!("self-test ok: all {mutated} values pushed past their bounds regressed");
    } else if !report.passed() {
        std::process::exit(1);
    }
}

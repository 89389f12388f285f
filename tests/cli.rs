//! End-to-end checks of the `restune` command-line binary.

use dbsim::InstanceType;
use restune::core::problem::ResourceKind;
use restune::core::repository::{DataRepository, TaskObservation, TaskRecord};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Eight observations along the diagonal of a `dim`-dimensional space.
fn diagonal(dim: usize) -> Vec<TaskObservation> {
    (0..8)
        .map(|i| {
            let t = i as f64 / 7.0;
            TaskObservation {
                point: vec![t; dim],
                res: 40.0 + 10.0 * t,
                tps: 900.0 - 50.0 * t,
                lat: 12.0 + t,
                metrics: vec![t; 4],
            }
        })
        .collect()
}

fn tmp_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs the binary and asserts that it exits 0.
fn restune(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_restune")).args(args).output().unwrap();
    assert!(out.status.success(), "restune {args:?} failed\n{}", describe(&out));
    String::from_utf8(out.stdout).unwrap()
}

/// Runs the binary in the test's scratch directory and asserts that it
/// exits 1, printing one `error:` line and then the usage; returns stderr.
fn restune_rejects(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_restune"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "restune {args:?} should fail\n{}", describe(&out));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let errors = stderr.lines().filter(|l| l.starts_with("error: ")).count();
    assert!(errors == 1 && stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    stderr
}

fn describe(out: &Output) -> String {
    format!(
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn tune_skips_repository_tasks_whose_points_have_the_wrong_length() {
    // All tasks name the CPU knob space and the native search space, so the
    // name filter keeps them, but one task's points are one coordinate short
    // and another stores no points at all: fitting either used to hand the
    // session a learner it rejects with a panic. The last two are
    // well-formed, but their meta-features are longer and shorter than the
    // target's five entries: the longer one used to panic in the static
    // weights, and the shorter one was compared over its first entries.
    let knobs = ResourceKind::Cpu.default_knob_set();
    let dim = knobs.dim() - 1;
    let observations = diagonal(dim);
    let short = TaskRecord {
        task_id: "Twitter@A".into(),
        workload: "Twitter".into(),
        instance: InstanceType::A,
        resource: ResourceKind::Cpu,
        knob_names: knobs.names().to_vec(),
        space_id: "native".into(),
        meta_feature: vec![0.25; 4],
        observations,
    };
    let empty = TaskRecord {
        task_id: "Twitter@B".into(),
        instance: InstanceType::B,
        observations: Vec::new(),
        ..short.clone()
    };
    let long_feature = TaskRecord {
        task_id: "Twitter@C".into(),
        instance: InstanceType::C,
        meta_feature: vec![0.2; 6],
        observations: diagonal(dim + 1),
        ..short.clone()
    };
    let short_feature = TaskRecord {
        task_id: "Twitter@D".into(),
        instance: InstanceType::D,
        meta_feature: vec![0.2; 3],
        ..long_feature.clone()
    };
    let mut repo = DataRepository::new();
    repo.add(short);
    repo.add(empty);
    repo.add(long_feature);
    repo.add(short_feature);
    let path = tmp_path("cli_short_points.json");
    repo.save(&path).unwrap();

    let stdout = restune(&[
        "tune",
        "--workload",
        "twitter",
        "--iters",
        "6",
        "--repo",
        path.to_str().unwrap(),
    ]);
    let skipped =
        format!("skipped 1 repository task(s) whose points are not {}-dimensional", dim + 1);
    assert!(stdout.contains(&skipped), "{stdout}");
    assert!(stdout.contains("usable base-learners in this search space: 2"), "{stdout}");
}

#[test]
fn tune_saves_the_default_first_and_traces_without_changing_its_output() {
    const ITERS: usize = 3;
    let iters = ITERS.to_string();
    let [plain_repo, traced_repo, trace_file] =
        ["cli_plain.json", "cli_traced.json", "cli_run.trace.jsonl"].map(|name| {
            let path = tmp_path(name);
            let _ = std::fs::remove_file(&path);
            path.to_str().unwrap().to_string()
        });
    let tune = |rest: &[&str]| {
        restune(&[&["tune", "--workload", "twitter", "--iters", &iters][..], rest].concat())
    };
    let plain = tune(&["--save-repo", &plain_repo]);
    let traced = tune(&["--save-repo", &traced_repo, "--trace", &trace_file]);
    // Tracing and diagnostics add one closing line and change nothing else,
    // neither the printed results nor the saved task.
    let expected = format!(
        "{}\ntrace written to {trace_file}\n",
        plain.replace(&plain_repo, &traced_repo)
    );
    assert_eq!(traced, expected);
    assert_eq!(std::fs::read(&plain_repo).unwrap(), std::fs::read(&traced_repo).unwrap());

    // The saved task holds the default observation first, then one per
    // iteration, like every other writer of the repository.
    let repo = DataRepository::load(Path::new(&plain_repo)).unwrap();
    assert_eq!(repo.len(), 1);
    let task = &repo.tasks()[0];
    assert_eq!(task.task_id, "Twitter@A");
    assert_eq!(task.observations.len(), ITERS + 1);
    assert_eq!(task.observations[0].point, ResourceKind::Cpu.default_knob_set().default_point());

    let report = restune(&["report", &trace_file]);
    for section in [
        "== span tree ==",
        "per-iteration phase means (Table 3 layout)",
        "== session health ==",
        &format!("summary: {ITERS} iterations"),
    ] {
        assert!(report.contains(section), "missing {section:?} in\n{report}");
    }
    let missing = Command::new(env!("CARGO_BIN_EXE_restune"))
        .args(["report", tmp_path("cli_missing.trace.jsonl").to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert!(!missing.status.success() && stderr.contains("cannot read"), "{}", describe(&missing));
}

#[test]
fn tune_rejects_unknown_flags_and_flags_without_values() {
    // A mistyped flag used to be ignored: `--iter 3` ran the default 40
    // iterations. Each command takes only its own flags.
    let stderr = restune_rejects(&["tune", "--workload", "twitter", "--iter", "3"]);
    assert!(stderr.contains("unknown argument --iter"), "{stderr}");
    let stderr = restune_rejects(&["grid", "--workload", "twitter", "--iters", "3"]);
    assert!(stderr.contains("unknown argument --iters"), "{stderr}");

    // A flag without a value used to take the next flag as its value:
    // `--trace --save-repo x.json` wrote the trace to a file named
    // `--save-repo` and saved no repository.
    let saved = tmp_path("cli_swallowed.json");
    let swallowed = tmp_path("--save-repo");
    let _ = std::fs::remove_file(&swallowed);
    let args = ["tune", "--workload", "twitter", "--iters", "3", "--trace", "--save-repo"];
    let stderr = restune_rejects(&[&args[..], &[saved.to_str().unwrap()]].concat());
    assert!(stderr.contains("--trace needs a value"), "{stderr}");
    assert!(!swallowed.exists() && !saved.exists());
    let stderr = restune_rejects(&["tune", "--workload", "twitter", "--seed"]);
    assert!(stderr.contains("--seed needs a value"), "{stderr}");
}

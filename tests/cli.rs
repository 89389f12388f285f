//! End-to-end checks of the `restune` command-line binary.

use dbsim::InstanceType;
use restune::core::problem::ResourceKind;
use restune::core::repository::{DataRepository, TaskObservation, TaskRecord};
use std::process::Command;

#[test]
fn tune_skips_repository_tasks_whose_points_have_the_wrong_length() {
    // Both tasks name the CPU knob space and the native search space, so the
    // name filter keeps them, but one task's points are one coordinate short
    // and the other stores no points at all: fitting either used to hand the
    // session a learner it rejects with a panic.
    let knobs = ResourceKind::Cpu.default_knob_set();
    let dim = knobs.dim() - 1;
    let observations = (0..8)
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
        .collect();
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
    let mut repo = DataRepository::new();
    repo.add(short);
    repo.add(empty);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_short_points.json");
    repo.save(&path).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_restune"))
        .args(["tune", "--workload", "twitter", "--iters", "6", "--repo"])
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let skipped =
        format!("skipped 1 repository task(s) whose points are not {}-dimensional", dim + 1);
    assert!(stdout.contains(&skipped), "{stdout}");
    assert!(stdout.contains("usable base-learners in this search space: 0"), "{stdout}");
}

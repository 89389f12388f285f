//! Failure injection and robustness: degenerate data, heavy observation
//! noise, corrupted persistence, and pathological workloads must degrade
//! gracefully, never panic or violate the SLA invariant.

use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use gp::{GaussianProcess, GpConfig};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::repository::DataRepository;
use restune::prelude::*;

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 200, n_local: 40, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 10, ..Default::default() },
        dynamic_samples: 8,
        seed,
        ..Default::default()
    }
}

#[test]
fn gp_survives_duplicate_points() {
    // A kernel matrix with repeated rows is singular without jitter.
    let xs = linalg::Matrix::from_vec(8, 2, vec![0.5; 16]);
    let ys = vec![1.0; 8];
    let gp = GaussianProcess::fit(xs, ys, &GpConfig::fixed()).unwrap();
    let p = gp.predict(&[0.5, 0.5]).unwrap();
    assert!((p.mean - 1.0).abs() < 0.2);
    assert!(p.variance.is_finite());
}

#[test]
fn gp_survives_constant_targets() {
    let xs = linalg::Matrix::from_fn(10, 1, |i, _| i as f64 / 9.0);
    let ys = vec![42.0; 10];
    let gp = GaussianProcess::fit(xs, ys, &GpConfig::default()).unwrap();
    let p = gp.predict(&[0.3]).unwrap();
    assert!((p.mean - 42.0).abs() < 1.0);
}

#[test]
fn tuning_under_heavy_noise_still_never_adopts_infeasible_incumbents() {
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(3)
        .noise(0.10) // ~7x the default observation noise
        .build();
    let outcome = TuningSession::new(env, quick_config(3)).run(15);
    for r in &outcome.history {
        if Some(r.iteration) == outcome.best_iteration {
            assert!(r.feasible, "noisy run adopted an infeasible incumbent");
        }
    }
}

#[test]
fn corrupted_repository_files_error_cleanly() {
    let dir = std::env::temp_dir();
    let path = dir.join("restune_corrupt.json");
    std::fs::write(&path, "{ not valid json !!!").unwrap();
    assert!(DataRepository::load(&path).is_err());
    std::fs::write(&path, r#"{"tasks": [{"bogus": true}]}"#).unwrap();
    assert!(DataRepository::load(&path).is_err());
    let _ = std::fs::remove_file(path);
    // Missing file too.
    assert!(DataRepository::load(std::path::Path::new("/nonexistent/repo.json")).is_err());
}

#[test]
#[should_panic(expected = "unknown knob")]
fn unknown_knob_names_panic_loudly() {
    let _ = KnobSet::new(&["innodb_not_a_real_knob"]);
}

#[test]
fn pathological_workloads_evaluate_finitely() {
    // Tiny data, read-only, single connection.
    let tiny = WorkloadSpec {
        name: "tiny".into(),
        threads: 1,
        data_gb: 0.01,
        read_parts: 1.0,
        write_parts: 0.0,
        request_rate: Some(1.0),
        ..WorkloadSpec::sysbench()
    };
    // Monster write-only load far beyond any device.
    let monster = WorkloadSpec {
        name: "monster".into(),
        threads: 4096,
        data_gb: 10_000.0,
        read_parts: 0.0,
        write_parts: 1.0,
        request_rate: Some(10_000_000.0),
        ..WorkloadSpec::tpcc()
    };
    for w in [tiny, monster] {
        for inst in [InstanceType::C, InstanceType::F] {
            let dbms = SimulatedDbms::new(inst, w.clone(), 0).with_noise(0.0);
            let obs = dbms.evaluate_noiseless(&Configuration::dba_default());
            assert!(obs.tps.is_finite() && obs.tps > 0.0, "{} on {:?}", w.name, inst);
            assert!(obs.p99_ms.is_finite() && obs.p99_ms > 0.0);
            assert!(obs.resources.cpu_pct.is_finite());
        }
    }
}

#[test]
fn zero_iteration_run_reports_the_default() {
    let env = TuningEnvironment::builder()
        .instance(InstanceType::B)
        .workload(WorkloadSpec::sales())
        .resource(ResourceKind::Memory)
        .seed(9)
        .build();
    let outcome = TuningSession::new(env, quick_config(9)).run(0);
    assert!(outcome.history.is_empty());
    assert_eq!(outcome.best_iteration, None);
    assert_eq!(outcome.best_objective, Some(outcome.default_obj_value));
    assert_eq!(outcome.improvement(), 0.0);
}

fn mismatched_learners() -> Vec<restune::core::meta::BaseLearner> {
    // Base learners fitted on the 3-dim case-study space.
    let characterizer = workload::WorkloadCharacterizer::train_default(1);
    let mut dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 1);
    let rec = restune::core::repository::TaskRecord::collect(
        &mut dbms,
        &KnobSet::case_study(), // 3-dim space
        ResourceKind::Cpu,
        &characterizer,
        8,
        1,
    );
    let mut repo = DataRepository::new();
    repo.add(rec);
    repo.base_learners(&gp::GpConfig::fixed(), |_| true)
}

#[test]
fn repository_filter_guards_against_mismatched_knob_spaces() {
    // The repository-side guard used by the CLI: filtering by knob names
    // keeps foreign-space tasks out of the learner set entirely.
    let characterizer = workload::WorkloadCharacterizer::train_default(1);
    let mut dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 1);
    let rec = restune::core::repository::TaskRecord::collect(
        &mut dbms,
        &KnobSet::case_study(), // 3-dim space
        ResourceKind::Cpu,
        &characterizer,
        8,
        1,
    );
    let mut repo = DataRepository::new();
    repo.add(rec);
    // The 14-knob CPU space must filter this task out.
    let wanted = KnobSet::cpu();
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |t| {
        t.knob_names == wanted.names()
    });
    assert!(learners.is_empty());
}

#[test]
#[should_panic(expected = "3-dim search space; the target space is 14-dim")]
fn session_with_mismatched_learner_dimensions_is_rejected_by_construction() {
    // If a caller bypasses the repository filter, the session itself rejects
    // dimensionally-mismatched base learners at construction — with the
    // offending task named — rather than panicking at prediction time deep
    // inside the GP (and only in debug builds).
    let learners = mismatched_learners();
    assert!(!learners.is_empty(), "need at least one mismatched learner");
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::cpu()) // 14-dim target space
        .seed(1)
        .build();
    let _ = TuningSession::with_base_learners(env, quick_config(1), learners, vec![0.2; 5]);
}

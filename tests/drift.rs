//! End-to-end drift detection and warm-restart re-tuning (DESIGN.md §16):
//! a session whose workload a [`dbsim::WorkloadSchedule`] drifts into the
//! OLAP mix must detect the drift, seal its pre-drift epoch into the
//! repository as a meta-learning base task, and restart with that task as a
//! live transfer source — all while remaining observable through the
//! `drift.*` counters and the health-telemetry stream.

use std::sync::{Arc, Mutex};

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSchedule, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::diag::{TunerHealth, HEALTH_EVENT};
use restune::core::drift::{DriftConfig, DriftController, LocalSealSink, RestartPolicy};
use restune::core::repository::{DataRepository, TaskRecord};
use restune::prelude::*;

/// Serializes the tests that step drifting sessions: one of them records
/// the global trace collector's counters, which every session feeds.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 42;

fn drift_bo_config() -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 150, n_local: 40, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
        dynamic_samples: 8,
        init_iters: 4,
        // The sealed OLTP profile sits far from the drifted OLAP profile in
        // meta-feature space; the wide bandwidth keeps its static
        // Epanechnikov weight nonzero so the transfer visibly engages.
        static_bandwidth: 2.0,
        diag: true,
        seed: SEED,
        ..Default::default()
    }
}

fn drift_config() -> DriftConfig {
    DriftConfig {
        check_every: 2,
        min_epoch_iters: 6,
        embed_seed: 0,
        policy: RestartPolicy::Warm,
    }
}

/// The session under test: Twitter on instance A drifting into the OLAP mix,
/// with a drift controller whose sink holds `repo`.
fn drifting_session(
    characterizer: &Arc<workload::WorkloadCharacterizer>,
    repo: DataRepository,
    config: RestuneConfig,
    drift: DriftConfig,
) -> TuningSession {
    let base = WorkloadSpec::twitter();
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(base.clone())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::cpu())
        .seed(SEED)
        .schedule(WorkloadSchedule::oltp_to_olap(SEED, 6, 4))
        .build();
    let sink = Box::new(LocalSealSink::new(
        repo,
        gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
    ));
    let mut session = TuningSession::new(env, config);
    session.set_drift(DriftController::for_workload(
        drift,
        Arc::clone(characterizer),
        &base,
        "twitter@A",
        sink,
    ));
    session
}

/// Two finished OLTP tasks in the session's exact knob space — the
/// historical repository the sealed epoch joins.
fn historical_repository(characterizer: &workload::WorkloadCharacterizer) -> DataRepository {
    let mut repo = DataRepository::new();
    for (i, spec) in WorkloadSpec::twitter_variations().into_iter().take(2).enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, spec, SEED + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::cpu(),
            ResourceKind::Cpu,
            characterizer,
            16,
            SEED + 100 + i as u64,
        ));
    }
    repo
}

#[test]
fn drifting_session_seals_its_past_and_warm_restarts_with_it_as_transfer_source() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::reset();
    trace::enable();

    let characterizer = Arc::new(workload::WorkloadCharacterizer::train_default(SEED));
    let repo = historical_repository(&characterizer);
    let historical_tasks = repo.tasks().len();
    assert_eq!(historical_tasks, 2);

    let mut driver = drifting_session(&characterizer, repo, drift_bo_config(), drift_config());
    let iters = 16;
    for _ in 0..iters {
        driver.step();
    }

    // The controller fired: one drift, one sealed epoch, one restart.
    let drift = driver.drift().expect("controller installed");
    assert_eq!(drift.restarts(), 1, "expected exactly one warm restart");
    assert_eq!(drift.sealed_tasks(), 1);
    assert_eq!(drift.epoch(), 1);
    let epoch_start = driver.engine().epoch_start();
    assert!(epoch_start > 0 && epoch_start < iters, "restart mid-run, got {epoch_start}");

    let snap = trace::snapshot();
    trace::disable();
    trace::reset();

    // Observability: the counters fired, including the settle debounce (the
    // first threshold crossing lands mid-ramp and must defer the restart).
    assert!(snap.counter("drift.checks") >= 2);
    // Only a moved workload is re-embedded.
    let embeds = snap.counter("drift.embeds");
    assert!(0 < embeds && embeds < snap.counter("drift.checks"), "{embeds} embeddings");
    assert!(snap.counter("drift.detected") >= 2);
    assert!(snap.counter("drift.pending") >= 1, "ramp crossing must debounce before restarting");
    assert_eq!(snap.counter("drift.restarts"), 1);
    assert_eq!(snap.counter("drift.epochs.sealed"), 1);

    // The restart event names the sealed task and the refitted learner set:
    // both historical tasks plus the sealed epoch.
    let restarts = snap.events_named("drift.restart");
    assert_eq!(restarts.len(), 1);
    let ev = restarts[0];
    assert_eq!(ev.str("sealed"), Some("twitter@A#epoch0"));
    assert_eq!(ev.int("learners"), Some(historical_tasks as i64 + 1));
    assert!(ev.int("sealed_obs").unwrap_or(0) > 0, "sealed epoch must carry observations");

    // Health telemetry carries the drift block after the restart — and the
    // last record reflects the final controller state.
    let health: Vec<TunerHealth> =
        snap.events_named(HEALTH_EVENT).into_iter().filter_map(TunerHealth::from_event).collect();
    assert_eq!(health.len(), iters);
    assert!(health[0].drift.is_none(), "no drift block before the first restart");
    let last = health.last().unwrap().drift.as_ref().expect("drift block after restart");
    assert_eq!(last.epoch, 1);
    assert_eq!(last.restarts, 1);
    assert_eq!(last.sealed_tasks, 1);
    assert!(last.last_score >= 0.0);

    let outcome = driver.into_outcome();
    assert_eq!(outcome.history.len(), iters);

    // Before the restart the session has no base-learners (weights None);
    // after it, the weight vector spans the matching repository tasks plus
    // the target (last). The sealed epoch joined the repository *last*, so
    // its weight sits just before the target's — and the wide static
    // bandwidth keeps it strictly positive: the session's own sealed past is
    // a live transfer source (nonzero RGPE weight).
    for r in &outcome.history[..epoch_start] {
        assert!(r.weights.is_none(), "pre-drift iteration {} had ensemble weights", r.iteration);
    }
    let post_weights: Vec<&Vec<f64>> =
        outcome.history[epoch_start..].iter().filter_map(|r| r.weights.as_ref()).collect();
    assert!(!post_weights.is_empty(), "no post-restart iteration recorded ensemble weights");
    for w in post_weights {
        assert_eq!(w.len(), historical_tasks + 2, "base learners (incl. sealed) + target");
        let sealed_weight = w[w.len() - 2];
        assert!(
            sealed_weight > 0.0,
            "sealed pre-drift task must carry a nonzero transfer weight, got {sealed_weight}"
        );
    }
}

#[test]
fn cold_restart_seals_the_epoch_but_transfers_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::reset();

    let characterizer = Arc::new(workload::WorkloadCharacterizer::train_default(SEED));
    let mut config = drift_bo_config();
    config.diag = false;
    let mut driver = drifting_session(
        &characterizer,
        historical_repository(&characterizer),
        config,
        DriftConfig { policy: RestartPolicy::Cold, ..drift_config() },
    );
    for _ in 0..16 {
        driver.step();
    }
    let drift = driver.drift().expect("controller installed");
    assert_eq!(drift.restarts(), 1);
    assert_eq!(drift.sealed_tasks(), 1, "cold restarts still seal the epoch");
    let epoch_start = driver.engine().epoch_start();
    assert!(epoch_start > 0);
    // No transfer: the restarted epoch runs meta-free, so no iteration ever
    // records ensemble weights.
    let outcome = driver.into_outcome();
    assert!(
        outcome.history.iter().all(|r| r.weights.is_none()),
        "cold restart must not hand the proposer any base-learners"
    );
}

#[test]
fn a_restart_transfers_only_the_stored_tasks_that_fit_the_run() {
    // Two more stored tasks name the session's knobs and search space, but
    // may not transfer to it: one holds points a coordinate short (a
    // hand-edited file), the other tuned I/O bandwidth. Refitting the first
    // used to panic the restarted session's next step in `MetaLearner::new`;
    // the second handed it a learner for another objective.
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let characterizer = Arc::new(workload::WorkloadCharacterizer::train_default(SEED));
    let mut repo = historical_repository(&characterizer);
    let historical_tasks = repo.tasks().len();
    let mut short = TaskRecord { task_id: "short@A".into(), ..repo.tasks()[0].clone() };
    for o in &mut short.observations {
        o.point.pop();
    }
    let io = TaskRecord {
        task_id: "io@A".into(),
        resource: ResourceKind::IoBps,
        ..repo.tasks()[1].clone()
    };
    repo.add(short);
    repo.add(io);
    let mut config = drift_bo_config();
    config.diag = false;
    let mut driver = drifting_session(&characterizer, repo, config, drift_config());
    let iters = 16;
    for _ in 0..iters {
        driver.step();
    }
    assert_eq!(driver.drift().expect("controller installed").restarts(), 1);
    let epoch_start = driver.engine().epoch_start();
    let outcome = driver.into_outcome();
    assert_eq!(outcome.history.len(), iters);
    // After the restart the ensemble holds the two historical tasks, the
    // sealed epoch and the target: neither misfit task.
    let post: Vec<&Vec<f64>> =
        outcome.history[epoch_start..].iter().filter_map(|r| r.weights.as_ref()).collect();
    assert!(!post.is_empty(), "no post-restart iteration recorded ensemble weights");
    assert!(post.iter().all(|w| w.len() == historical_tasks + 2), "{post:?}");
}

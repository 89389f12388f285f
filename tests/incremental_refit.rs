//! End-to-end checks of the incremental surrogate layer (DESIGN.md §13):
//! the proposer's rank-1 target-GP extension past 40 observations, its
//! determinism, the boundaries of its fit skip, and a meta-boosted session
//! over a base learner fitted on a 300-observation history.

use dbsim::{InstanceType, KnobSet, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::diag::{FitPath, Stage, TunerHealth, HEALTH_EVENT};
use restune::core::repository::{DataRepository, TaskObservation, TaskRecord};
use restune::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The trace collector is process-global; serialize the tests that use it.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 120, n_local: 30, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 10, ..Default::default() },
        dynamic_samples: 8,
        seed,
        ..Default::default()
    }
}

fn env(seed: u64) -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
        .build()
}

fn history_digest(o: &TuningOutcome) -> String {
    o.history
        .iter()
        .map(|r| format!("{:?}|{:?}|{:?}\n", r.point, r.observation, r.best_feasible_objective))
        .collect()
}

/// FNV-1a over [`history_digest`]'s text.
fn outcome_digest(o: &TuningOutcome) -> u64 {
    history_digest(o).bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn skipped_fits_leave_every_boundary_session_unchanged() {
    // A step skips its target fit only when nothing reads the model (its
    // stage, its weights, the next step's rank-1 append) and the inputs pass
    // the fit's own check. These sessions sit on the rule's boundaries; each
    // digest was captured by running this body at the commit before the
    // skip existed (b3746a7), where every step fitted.
    let _g = trace_lock();
    // (a) LHS steps past n = 40 whose next step extends their model. The
    // bootstrap runs through iteration 41 (ResTune trains on the default
    // observation too, so iteration i fits on i + 1 points). Step 40
    // refits, and the off-schedule steps 41 to 44 extend its model, so the
    // LHS steps 40 and 41 must fit.
    let mut lhs_past_forty = quick_config(42);
    lhs_past_forty.init_iters = 42;
    let a = TuningSession::new(env(42), lhs_past_forty).run(46);
    // (b) A non-finite tuple seeded before step 0 fails every fit, so even
    // the LHS steps take the GP-failure fallback point.
    let seeded = |res: f64| {
        let mut s = TuningSession::new(env(6), quick_config(6));
        s.seed_history(vec![0.5, 0.5, 0.5], res, 1.0, 1.0).unwrap();
        for _ in 0..3 {
            s.step();
        }
        s.outcome()
    };
    let (nan, inf) = (seeded(f64::NAN), seeded(f64::INFINITY));
    assert!(nan.history.iter().chain(&inf.history).all(|r| r.weights.is_none()));
    // (c) ε-greedy steps on both sides of n = 40, traced to show which.
    trace::enable();
    trace::reset();
    let mut explore = quick_config(2);
    explore.diag = true;
    let c = TuningSession::new(env(2), explore).run(49);
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();

    let got = [&a, &nan, &inf, &c].map(outcome_digest);
    assert_eq!(
        got,
        [0x6116da2bd5dc5ec2, 0xc44cd5e8c18363c8, 0xc44cd5e8c18363c8, 0x6247b67782b35ff1],
        "{got:#018x?}"
    );
    let health: Vec<TunerHealth> =
        snap.events_named(HEALTH_EVENT).into_iter().filter_map(TunerHealth::from_event).collect();
    assert_eq!(health.len(), 49);
    // A skipped step holds no model: no surrogate and no calibration.
    for h in health.iter().filter(|h| h.fit_path == FitPath::Skipped) {
        assert!(h.surrogate() == "none" && h.calibration.is_none(), "iteration {}", h.iteration);
    }
    let explored: Vec<(usize, FitPath)> = health
        .iter()
        .filter(|h| h.stage == Stage::Explore)
        .map(|h| (h.iteration + 1, h.fit_path))
        .collect();
    let (small, large): (Vec<_>, Vec<_>) = explored.iter().partition(|(n, _)| *n <= 40);
    assert!(!small.is_empty() && !large.is_empty(), "ε-greedy steps at n: {explored:?}");
    // At n <= 40 the next step refits, so nothing reads the model. Past 40
    // the step fits iff the next step extends its model.
    assert!(small.iter().all(|(_, path)| *path == FitPath::Skipped), "{explored:?}");
    for want in [FitPath::Skipped, FitPath::Incremental] {
        assert!(large.iter().any(|(_, path)| *path == want), "{want:?} past 40: {explored:?}");
    }
    // The 10 LHS steps at n <= 40 skip too, and nothing else does.
    let skipped_explore = explored.iter().filter(|(_, path)| *path == FitPath::Skipped).count();
    assert_eq!(snap.counter("gp.fit.skipped"), 10 + skipped_explore as u64);
}

#[test]
fn a_step_whose_fit_fails_holds_no_surrogate() {
    // The session fits at steps 10 and 11 (after the LHS bootstrap), then a
    // NaN observation is seeded, so the refits of steps 12 to 14 fail and
    // fall back. A failed fit must drop the model the previous step cached:
    // its health record reports no surrogate and no calibration.
    let _g = trace_lock();
    trace::enable();
    trace::reset();
    let mut config = quick_config(3);
    config.diag = true;
    let mut session = TuningSession::new(env(3), config);
    for _ in 0..12 {
        session.step();
    }
    session.seed_history(vec![0.5; 3], f64::NAN, 100.0, 10.0).unwrap();
    for _ in 0..3 {
        session.step();
    }
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    let events = snap.events_named(HEALTH_EVENT);
    let health: Vec<TunerHealth> =
        events.iter().copied().filter_map(TunerHealth::from_event).collect();
    let paths: Vec<FitPath> = health.iter().map(|h| h.fit_path).collect();
    let (full, fallback) = (FitPath::Full, FitPath::Fallback);
    assert_eq!(paths[10..], [full, full, fallback, fallback, fallback]);
    for (h, ev) in health.iter().zip(&events) {
        let holds_model = matches!(h.fit_path, FitPath::Full | FitPath::Incremental);
        assert_eq!(h.surrogate(), if holds_model { "dense" } else { "none" }, "{}", h.iteration);
        assert_eq!(ev.str("surrogate"), Some(h.surrogate()), "the emitted key, {}", h.iteration);
        assert_eq!(h.calibration.is_some(), holds_model, "calibration at {}", h.iteration);
    }
}

#[test]
fn incremental_refit_kicks_in_past_forty_observations() {
    let _g = trace_lock();
    trace::enable();
    trace::reset();
    // 46 iterations: hyperopt runs on every iteration up to n = 40, then only
    // every fifth iteration (`surrogate::refits_hypers`). The off-schedule
    // iterations past 40 must extend the cached model instead of refitting.
    let outcome = TuningSession::new(env(21), quick_config(21)).run(46);
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    assert_eq!(outcome.history.len(), 46);
    let incremental = snap.counter("gp.fit.incremental");
    let full = snap.counter("gp.fit.full");
    assert!(incremental > 0, "no incremental refits in 46 iterations");
    assert!(full > 0, "hyperopt iterations must still pay the full fit");
    // Every incremental model update grows three metric GPs by one rank-1
    // Cholesky append each.
    assert!(
        snap.counter("linalg.cholesky.update") >= 3 * incremental,
        "rank-1 appends ({}) must cover 3 GPs per incremental fit ({incremental})",
        snap.counter("linalg.cholesky.update"),
    );
    // The reuse/refit tally and the fit-path tally tell one story: every
    // no-hyperopt iteration went incremental (nothing invalidated the cache
    // in a single uninterrupted session).
    assert_eq!(incremental, snap.counter("gp.hypers.reuse"));
    assert_eq!(full, snap.counter("gp.hypers.refit"));
}

#[test]
fn incremental_sessions_are_deterministic() {
    let _g = trace_lock();
    // Same seed, two runs past 40 observations, so off-schedule iterations
    // extend the cached model: bit-identical traces.
    let a = TuningSession::new(env(33), quick_config(33)).run(45);
    let b = TuningSession::new(env(33), quick_config(33)).run(45);
    assert_eq!(a.history.len(), 45);
    assert_eq!(history_digest(&a), history_digest(&b), "incremental path must be deterministic");
}

fn synthetic_record(n: usize, task_id: &str) -> TaskRecord {
    // A smooth 3-knob response surface; no DBMS replay needed, so a long
    // history is cheap to construct.
    let observations: Vec<TaskObservation> = (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            let point = vec![t, (t * 13.7).fract(), (t * 5.3).fract()];
            TaskObservation {
                res: 40.0 + 20.0 * point[0] + 5.0 * point[1],
                tps: 900.0 - 300.0 * point[0],
                lat: 12.0 + 6.0 * point[2],
                metrics: Vec::new(),
                point,
            }
        })
        .collect();
    TaskRecord {
        task_id: task_id.into(),
        workload: "synthetic".into(),
        instance: InstanceType::A,
        resource: ResourceKind::Cpu,
        knob_names: vec!["a".into(), "b".into(), "c".into()],
        space_id: "native".into(),
        meta_feature: vec![0.3, 0.7],
        observations,
    }
}

#[test]
fn a_300_observation_learner_participates_in_a_meta_boosted_session() {
    let _g = trace_lock();
    // A base learner fitted on a history past the paper's ~188 observations
    // per task must carry a session end to end: static weights, dynamic
    // ranking-loss weights (it draws joint posterior samples), and
    // recommendation. It is fitted like every other base learner, by one
    // exact GP per metric.
    let mut repo = DataRepository::new();
    repo.add(synthetic_record(300, "big@A"));
    trace::enable();
    trace::reset();
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    let snap = trace::snapshot();
    trace::reset();
    trace::disable();
    assert_eq!(snap.counter("repository.fit.dense"), 1);
    assert_eq!(learners.len(), 1);
    assert_eq!(learners[0].model.n(), 300);
    let mut config = quick_config(7);
    config.init_iters = 2;
    let outcome = TuningSession::with_base_learners(
        env(7),
        config,
        learners,
        vec![0.3, 0.7],
    )
    .run(6);
    assert_eq!(outcome.history.len(), 6);
    assert!(outcome.best_objective.is_some());
}

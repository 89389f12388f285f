//! Golden end-to-end determinism: with the in-tree PRNG and JSON stack, two
//! identically-seeded runs must agree exactly — same iteration traces, and
//! byte-identical serialized repositories. This is the property that makes
//! every figure/table in the bench harness reproducible offline.

use std::sync::Mutex;

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::repository::{DataRepository, TaskRecord};
use restune::prelude::*;

/// Serializes the tests that toggle the global trace collector (the harness
/// runs tests on parallel threads); everything else stays parallel.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 300, n_local: 60, local_sigma: 0.08 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 15, ..Default::default() },
        dynamic_samples: 12,
        seed,
        ..Default::default()
    }
}

fn run_once(seed: u64, iters: usize) -> TuningOutcome {
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
        .build();
    TuningSession::new(env, quick_config(seed)).run(iters)
}

/// Exact Debug fingerprint of one iteration's algorithmic state. Wall-clock
/// timing fields (model update, recommendation) measure real elapsed time and
/// legitimately differ between runs; everything else must be bit-identical,
/// including the *simulated* replay time.
fn fingerprint(r: &restune::core::tuner::IterationRecord) -> String {
    format!(
        "{} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.iteration,
        r.point,
        r.observation,
        r.objective,
        r.feasible,
        r.best_feasible_objective,
        r.weights,
        r.timing.replay_s,
    )
}

#[test]
fn same_seed_advisor_runs_are_bit_identical() {
    let a = run_once(7, 12);
    let b = run_once(7, 12);
    assert_eq!(a.history.len(), b.history.len());
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(a.best_objective, b.best_objective);
    assert_eq!(format!("{:?}", a.best_config), format!("{:?}", b.best_config));
}

#[test]
fn tracing_on_and_off_runs_are_bit_identical() {
    // The trace collector (DESIGN.md §10) reads clocks only — never RNG
    // streams or observation values — so flipping it must not move a single
    // bit of the tuning trace. Other tests in this binary are unaffected by
    // the global toggle for the same reason.
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let off = run_once(7, 10);
    let config = quick_config(7);
    trace::enable();
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(7)
        .build();
    let on = TuningSession::new(env, config).run(10);
    let snapshot = trace::snapshot();
    trace::disable();
    trace::reset();
    assert!(
        snapshot.counter("loop.iterations") >= 10,
        "the traced run must actually have recorded events"
    );
    assert_eq!(off.history.len(), on.history.len());
    for (ra, rb) in off.history.iter().zip(&on.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(off.best_objective, on.best_objective);
    assert_eq!(format!("{:?}", off.best_config), format!("{:?}", on.best_config));
}

#[test]
fn diagnostics_on_and_off_runs_are_bit_identical() {
    // The health-telemetry layer (DESIGN.md §15) reads closed-form
    // quantities only — LOO calibration from the already-fitted Cholesky
    // factor, weight entropy, incumbent deltas — never RNG streams, so
    // flipping `RestuneConfig::diag` must not move a single bit of the
    // tuning trace either.
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let off = run_once(7, 10);
    let mut config = quick_config(7);
    config.diag = true;
    trace::enable();
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(7)
        .build();
    let on = TuningSession::new(env, config).run(10);
    let snapshot = trace::snapshot();
    trace::disable();
    trace::reset();
    let health = snapshot.events_named(restune::core::diag::HEALTH_EVENT);
    assert_eq!(health.len(), 10, "diag must emit one tuner.health event per iteration");
    assert_eq!(off.history.len(), on.history.len());
    for (ra, rb) in off.history.iter().zip(&on.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(off.best_objective, on.best_objective);
    assert_eq!(format!("{:?}", off.best_config), format!("{:?}", on.best_config));
}

#[test]
fn same_seed_diagnostic_event_streams_are_byte_identical() {
    // Health events are timestamp-free by design, so the serialized event
    // stream itself — not just the tuning trace — must reproduce exactly.
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = || {
        let mut config = quick_config(7);
        config.diag = true;
        trace::enable();
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(7)
            .build();
        TuningSession::new(env, config).run(8);
        let snap = trace::snapshot();
        trace::disable();
        trace::reset();
        snap
    };
    let a = run();
    let b = run();
    let lines = |snap: &trace::TraceSnapshot| -> Vec<String> {
        snap.to_jsonl()
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"type\":\"event\""))
            .map(String::from)
            .collect()
    };
    let (la, lb) = (lines(&a), lines(&b));
    assert!(!la.is_empty(), "the diagnostic runs must have emitted events");
    assert_eq!(la, lb, "same-seed diagnostic event streams diverged");
}

#[test]
fn identity_transform_runs_are_bit_identical_to_untransformed_runs() {
    use restune::core::space::IdentityTransform;
    use std::sync::Arc;

    // Installing the identity `SpaceTransform` must be a no-op to the last
    // bit: the engine takes the `lift()` code path on every evaluation (and
    // restricts the default point once), but the numbers it produces are the
    // same `f64`s the untransformed path sees. This pins the transform seam
    // itself — any accidental re-normalization, clone-induced reordering, or
    // clamp drift in the lift path breaks this test before it breaks a bench.
    let plain = run_once(7, 10);
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(7)
        .space(Arc::new(IdentityTransform::new(KnobSet::case_study().dim())))
        .build();
    let through_identity = TuningSession::new(env, quick_config(7)).run(10);
    assert_eq!(plain.history.len(), through_identity.history.len());
    for (ra, rb) in plain.history.iter().zip(&through_identity.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(plain.best_objective, through_identity.best_objective);
    assert_eq!(
        format!("{:?}", plain.best_config),
        format!("{:?}", through_identity.best_config)
    );
}

#[test]
fn attaching_an_empty_schedule_is_bit_identical_to_no_schedule() {
    use dbsim::WorkloadSchedule;

    // The schedule seam (DESIGN.md §16) must be invisible when the schedule
    // has no transitions: the dbsim recomputes the effective workload before
    // every evaluation, but a static schedule is the identity, so the trace
    // cannot move a bit relative to a schedule-free session.
    let plain = run_once(7, 10);
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(7)
        .schedule(WorkloadSchedule::new(7))
        .build();
    let scheduled = TuningSession::new(env, quick_config(7)).run(10);
    assert_eq!(plain.history.len(), scheduled.history.len());
    for (ra, rb) in plain.history.iter().zip(&scheduled.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(plain.best_objective, scheduled.best_objective);
}

#[test]
fn same_seed_drifting_sessions_are_bit_identical() {
    use restune::core::drift::{DriftConfig, DriftController, LocalSealSink, RestartPolicy};
    use std::sync::Arc;

    // A drifting session adds three new deterministic actors — the workload
    // schedule, the drift detector's epoch clock, and the warm-restart
    // re-initialization — and the whole composition must still replay
    // bit-for-bit from the seed, restart included.
    let characterizer = Arc::new(workload::WorkloadCharacterizer::train_default(7));
    let run = || {
        let base = WorkloadSpec::twitter();
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(base.clone())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::cpu())
            .seed(7)
            .schedule(dbsim::WorkloadSchedule::oltp_to_olap(7, 5, 3))
            .build();
        let mut config = quick_config(7);
        config.init_iters = 3;
        config.static_bandwidth = 2.0;
        let sink = Box::new(LocalSealSink::new(DataRepository::new(), gp::GpConfig::fixed()));
        let controller = DriftController::for_workload(
            DriftConfig {
                check_every: 2,
                min_epoch_iters: 4,
                embed_seed: 0,
                policy: RestartPolicy::Warm,
            },
            Arc::clone(&characterizer),
            &base,
            "twitter@A",
            sink,
        );
        let mut driver = TuningSession::new(env, config);
        driver.set_drift(controller);
        for _ in 0..12 {
            driver.step();
        }
        let restarts = driver.drift().map(|d| d.restarts()).unwrap_or(0);
        let epoch_start = driver.engine().epoch_start();
        (restarts, epoch_start, driver.into_outcome())
    };
    let (restarts_a, epoch_a, a) = run();
    let (restarts_b, epoch_b, b) = run();
    assert!(restarts_a >= 1, "the drift must actually fire for this test to mean anything");
    assert_eq!(restarts_a, restarts_b);
    assert_eq!(epoch_a, epoch_b, "same-seed sessions restarted at different iterations");
    assert_eq!(a.history.len(), b.history.len());
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(a.best_objective, b.best_objective);
}

#[test]
fn drifting_fleet_runs_are_bit_identical_across_worker_counts() {
    use restune::core::drift::DriftConfig;
    use restune::core::fleet::{mix_seed, FleetConfig, FleetService, ShardedStore, Tenant};
    use std::sync::Arc;

    // The fleet extension of the drift determinism contract: per-tenant
    // drift detection, epoch sealing into the shared store, and
    // warm-restarted traces depend only on each tenant's own state and its
    // **pinned** pre-start snapshot — never on sibling commits or worker
    // scheduling (DESIGN.md §12/§16).
    let characterizer = Arc::new(workload::WorkloadCharacterizer::train_default(5));
    let iters = 12;
    let run_fleet = |workers: usize| {
        let store = Arc::new(ShardedStore::new(4));
        let tenants: Vec<Tenant> = (0..3u64)
            .map(|id| {
                let seed = mix_seed(42, id);
                let base = WorkloadSpec::fleet_tenant(id);
                let env = TuningEnvironment::builder()
                    .instance(InstanceType::A)
                    .workload(base)
                    .resource(ResourceKind::Cpu)
                    .knob_set(KnobSet::cpu())
                    .seed(seed)
                    .schedule(dbsim::WorkloadSchedule::oltp_to_olap(seed, 4, 2))
                    .build();
                let mut config = quick_config(seed);
                config.optimizer =
                    AcquisitionOptimizer { n_candidates: 100, n_local: 25, local_sigma: 0.1 };
                config.init_iters = 2;
                config.static_bandwidth = 2.0;
                Tenant::restune_drift(
                    id,
                    format!("tenant-{id}"),
                    env,
                    config,
                    iters,
                    DriftConfig {
                        check_every: 2,
                        min_epoch_iters: 4,
                        embed_seed: 0,
                        policy: restune::core::drift::RestartPolicy::Warm,
                    },
                    Arc::clone(&characterizer),
                    Arc::clone(&store),
                )
            })
            .collect();
        FleetService::new(FleetConfig { workers, slice: 2, shards: 4 }).run(tenants)
    };

    let baseline = run_fleet(1);
    for t in &baseline.tenants {
        // The committed record covers the *current epoch* only: strictly
        // fewer observations than the full run (+1 default anchor) proves
        // every tenant actually sealed a pre-drift epoch mid-flight.
        assert!(
            t.record.observations.len() < iters + 1,
            "tenant {} never warm-restarted ({} observations)",
            t.id,
            t.record.observations.len()
        );
    }
    let out = run_fleet(3);
    assert_eq!(out.tenants.len(), baseline.tenants.len());
    for (a, b) in baseline.tenants.iter().zip(&out.tenants) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.record_json().unwrap(),
            b.record_json().unwrap(),
            "tenant {} sealed-epoch repository JSON diverged between workers=1 and workers=3",
            a.id
        );
        for (ra, rb) in a.outcome.history.iter().zip(&b.outcome.history) {
            assert_eq!(
                fingerprint(ra),
                fingerprint(rb),
                "tenant {} iteration {} diverged at workers=3",
                a.id,
                ra.iteration
            );
        }
    }
}

#[test]
fn different_seeds_actually_diverge() {
    // Guards against the determinism test passing vacuously (e.g. a seed
    // that is ignored would also make same-seed runs identical).
    let a = run_once(7, 6);
    let b = run_once(8, 6);
    let traces_differ =
        a.history.iter().zip(&b.history).any(|(ra, rb)| fingerprint(ra) != fingerprint(rb));
    assert!(traces_differ, "seeds 7 and 8 produced identical traces");
}

fn build_repository(seed: u64) -> DataRepository {
    let characterizer = workload::WorkloadCharacterizer::train_default(seed);
    let mut repo = DataRepository::new();
    for (i, spec) in WorkloadSpec::twitter_variations().into_iter().take(2).enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, spec, seed + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::cpu(),
            ResourceKind::Cpu,
            &characterizer,
            20,
            seed + 100 + i as u64,
        ));
    }
    repo
}

#[test]
fn inline_and_fanned_out_step_paths_agree_for_arbitrary_seeds() {
    use propcheck::{check, Config};
    use restune::core::fleet::{FleetConfig, FleetService, Tenant};
    // The one execution choice left on the recommend path, property-tested:
    // a solo session fans its GP fits, posterior draws and candidate
    // scoring out on scoped threads, while the same configuration as a
    // fleet tenant runs them inline on its pool worker. Neither may move a
    // single bit of the algorithmic trace, for any session seed. Base
    // learners are built once; the property varies the seed.
    let characterizer = workload::WorkloadCharacterizer::train_default(5);
    let mut repo = DataRepository::new();
    for (i, spec) in WorkloadSpec::twitter_variations().into_iter().take(2).enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, spec, 50 + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::cpu(),
            ResourceKind::Cpu,
            &characterizer,
            20,
            60 + i as u64,
        ));
    }
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    let mf = characterizer.embed_workload(&WorkloadSpec::twitter(), 1).probs;
    let iters = 6;
    check(
        "inline_and_fanned_out_step_paths_agree_for_arbitrary_seeds",
        Config::default().cases(3).seed(0xD0_0001),
        |g| {
            let seed = g.usize_in(0, 1_000_000) as u64;
            let mut config = quick_config(seed);
            config.init_iters = 3;
            config.optimizer =
                AcquisitionOptimizer { n_candidates: 150, n_local: 40, local_sigma: 0.08 };
            let env = || {
                TuningEnvironment::builder()
                    .instance(InstanceType::A)
                    .workload(WorkloadSpec::twitter())
                    .resource(ResourceKind::Cpu)
                    .knob_set(KnobSet::cpu())
                    .seed(seed)
                    .build()
            };
            let session =
                TuningSession::with_base_learners(env(), config.clone(), learners.clone(), mf.clone());
            let tenant = Tenant::new(0, "inline", iters, mf.clone(), session);
            let fanned =
                TuningSession::with_base_learners(env(), config, learners.clone(), mf.clone())
                    .run(iters);
            let fleet = FleetService::new(FleetConfig { workers: 1, slice: 2, shards: 1 })
                .run(vec![tenant]);
            let inline = &fleet.tenants[0].outcome;
            propcheck::prop_assert_eq!(fanned.history.len(), inline.history.len());
            for (ra, rb) in fanned.history.iter().zip(&inline.history) {
                propcheck::prop_assert_eq!(fingerprint(ra), fingerprint(rb));
            }
            propcheck::prop_assert_eq!(fanned.best_objective, inline.best_objective);
            Ok(())
        },
    );
}

#[test]
fn fleet_runs_are_bit_identical_across_worker_counts_and_to_single_driver() {
    use restune::core::fleet::{mix_seed, FleetConfig, FleetService, Tenant};

    // The fleet determinism contract (DESIGN.md §12): per-tenant outcomes
    // and repository JSON depend only on each tenant's own spec — never on
    // worker count, scheduling, or fleet composition — and equal a plain
    // single-driver run of the same configuration.
    let tenant_config = |seed: u64| {
        let mut config = quick_config(seed);
        config.optimizer =
            AcquisitionOptimizer { n_candidates: 100, n_local: 25, local_sigma: 0.1 };
        config.init_iters = 2;
        config
    };
    let tenant_env = |id: u64, seed: u64| {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::fleet_tenant(id))
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::cpu())
            .seed(seed)
            .build()
    };
    let iters = 5;
    let build_tenants = || -> Vec<Tenant> {
        (0..6u64)
            .map(|id| {
                let seed = mix_seed(42, id);
                Tenant::restune(
                    id,
                    format!("tenant-{id}"),
                    tenant_env(id, seed),
                    tenant_config(seed),
                    iters,
                )
            })
            .collect()
    };
    let run_fleet = |workers: usize| {
        FleetService::new(FleetConfig { workers, slice: 2, shards: 4 }).run(build_tenants())
    };

    let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let baseline = run_fleet(1);
    for workers in [4, ncpu] {
        let out = run_fleet(workers);
        assert_eq!(out.tenants.len(), baseline.tenants.len());
        for (a, b) in baseline.tenants.iter().zip(&out.tenants) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.record_json().unwrap(),
                b.record_json().unwrap(),
                "tenant {} repository JSON diverged between workers=1 and workers={workers}",
                a.id
            );
            for (ra, rb) in a.outcome.history.iter().zip(&b.outcome.history) {
                assert_eq!(
                    fingerprint(ra),
                    fingerprint(rb),
                    "tenant {} iteration {} diverged at workers={workers}",
                    a.id,
                    ra.iteration
                );
            }
        }
    }

    // Single-driver baseline: each tenant alone, no fleet machinery at all.
    for t in &baseline.tenants {
        let seed = mix_seed(42, t.id);
        let solo = TuningSession::new(tenant_env(t.id, seed), tenant_config(seed)).run(iters);
        assert_eq!(solo.history.len(), t.outcome.history.len());
        for (ra, rb) in solo.history.iter().zip(&t.outcome.history) {
            assert_eq!(
                fingerprint(ra),
                fingerprint(rb),
                "tenant {} diverged from its single-driver baseline",
                t.id
            );
        }
        assert_eq!(solo.best_objective, t.outcome.best_objective);
    }
}

#[test]
fn repository_serialization_is_byte_identical_across_runs() {
    let json_a = build_repository(11).to_json().expect("serializes");
    let json_b = build_repository(11).to_json().expect("serializes");
    assert_eq!(json_a, json_b, "same-seed repositories serialized differently");
    assert!(!json_a.is_empty());

    // Stability also holds through a decode/encode cycle: parse then
    // re-serialize and the bytes must not move (insertion-order objects,
    // shortest-round-trip floats).
    let decoded = DataRepository::from_json(&json_a).expect("parses");
    let json_c = decoded.to_json().expect("re-serializes");
    assert_eq!(json_a, json_c, "serialization is not a fixed point");
}

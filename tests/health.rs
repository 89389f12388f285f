//! End-to-end model-quality telemetry (DESIGN.md §15): a diagnostics-enabled
//! session emits one well-formed `tuner.health` event per iteration, the
//! records survive the JSONL round trip losslessly, and a fleet run's
//! task-tagged streams aggregate into per-tenant and fleet-level health.

use std::sync::Mutex;

use dbsim::{FaultPlan, InstanceType, KnobSet, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::diag::{TunerHealth, HEALTH_EVENT};
use restune::core::fleet::health::FleetHealth;
use restune::core::fleet::{mix_seed, FleetConfig, FleetService, Tenant};
use restune::prelude::*;

/// Serializes the tests in this binary: they all toggle the global trace
/// collector.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 120, n_local: 30, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 10, ..Default::default() },
        dynamic_samples: 8,
        init_iters: 3,
        seed,
        diag: true,
        ..Default::default()
    }
}

fn traced_run(seed: u64, iters: usize) -> trace::TraceSnapshot {
    trace::enable();
    trace::reset();
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
        .build();
    TuningSession::new(env, quick_config(seed)).run(iters);
    let snap = trace::snapshot();
    trace::disable();
    trace::reset();
    snap
}

fn records(snap: &trace::TraceSnapshot) -> Vec<TunerHealth> {
    snap.events_named(HEALTH_EVENT).into_iter().filter_map(TunerHealth::from_event).collect()
}

#[test]
fn diagnostic_sessions_emit_one_coherent_health_event_per_iteration() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let iters = 10;
    let snap = traced_run(7, iters);
    let health = records(&snap);
    assert_eq!(health.len(), iters, "one tuner.health event per iteration");
    let mut incumbent = f64::INFINITY;
    for (i, r) in health.iter().enumerate() {
        assert_eq!(r.iteration, i);
        assert!(r.objective.is_finite());
        // The incumbent is monotone non-increasing for a minimized objective.
        assert!(r.incumbent <= incumbent + 1e-12, "incumbent rose at iteration {i}");
        incumbent = r.incumbent;
        // Regret is measured against the running incumbent, so never negative
        // on feasible, unpenalized iterations.
        if r.feasible && !r.penalized {
            assert!(r.regret >= -1e-9, "negative regret at iteration {i}: {}", r.regret);
        }
        assert!(r.since_improvement <= i, "stagnation clock ahead of time at {i}");
    }
    // After the model warms up the calibration block must be present and
    // structurally sane (probabilities in range, counts matching history).
    let calibrated: Vec<_> = health.iter().filter_map(|r| r.calibration).collect();
    assert!(!calibrated.is_empty(), "no iteration carried GP calibration");
    for c in &calibrated {
        assert!(c.n >= 1 && c.n <= iters + 1);
        assert!((0.0..=1.0).contains(&c.coverage_1s));
        assert!((0.0..=1.0).contains(&c.coverage_2s));
        assert!(c.coverage_2s >= c.coverage_1s, "2-sigma coverage below 1-sigma");
        assert!(c.mean_abs_z >= 0.0 && c.mean_abs_z <= c.max_abs_z);
    }
}

#[test]
fn health_records_survive_the_jsonl_round_trip() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let snap = traced_run(11, 8);
    let original = records(&snap);
    assert!(!original.is_empty());
    let text = snap.to_jsonl().expect("serialize snapshot");
    let reparsed = trace::TraceSnapshot::from_jsonl(&text).expect("reparse snapshot");
    assert_eq!(records(&reparsed), original, "health records changed across JSONL");
}

#[test]
fn fleet_health_aggregates_task_tagged_streams_per_tenant() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tenants = 6u64;
    let iters = 4;
    let storm = tenants - 1;
    // Every tenant tolerates a steady 0.2 transient-fault rate; the last one
    // is a failure storm at 0.9 that the straggler thresholds must flag.
    let run = |workers: usize| {
        trace::enable();
        trace::reset();
        let service = FleetService::new(FleetConfig { workers, slice: 2, shards: 4 });
        let out = service.run(
            (0..tenants)
                .map(|id| {
                    let seed = mix_seed(0x4EA17, id);
                    let rate = if id == storm { 0.9 } else { 0.2 };
                    let faults = FaultPlan::none().with_transient_rate(rate).with_seed(seed ^ 0xFA);
                    let env = TuningEnvironment::builder()
                        .instance(InstanceType::A)
                        .workload(WorkloadSpec::fleet_tenant(id))
                        .resource(ResourceKind::Cpu)
                        .knob_set(KnobSet::case_study())
                        .seed(seed)
                        .fault_plan(faults)
                        .build();
                    Tenant::restune(id, format!("tenant-{id}"), env, quick_config(seed), iters)
                })
                .collect(),
        );
        let snap = trace::snapshot();
        trace::disable();
        trace::reset();
        (out, snap)
    };
    let (out, snap) = run(2);
    assert_eq!(out.tenants.len(), tenants as usize);

    let fleet = FleetHealth::from_snapshot(&snap);
    assert_eq!(fleet.tenants.len(), tenants as usize, "one health stream per tenant");
    for (i, t) in fleet.tenants.iter().enumerate() {
        assert_eq!(t.task, i as u64, "tenant summaries sorted by task id");
        assert_eq!(t.iterations, iters, "tenant {} stream incomplete", t.task);
    }
    // The digests cover every tenant, and the fleet's final incumbents match
    // the tenants' own outcomes exactly (same data, two paths).
    let regret = fleet.regret.expect("regret digest");
    assert_eq!(regret.n, tenants as usize);
    for (tenant, result) in fleet.tenants.iter().zip(&out.tenants) {
        if let Some(best) = result.outcome.best_objective {
            assert_eq!(tenant.final_incumbent, best, "tenant {} incumbent", tenant.task);
        }
    }
    let flagged = fleet.stragglers.iter().find(|s| s.task == storm);
    assert!(
        flagged.is_some_and(|s| s.reasons.iter().any(|r| r.starts_with("failure storm"))),
        "failure-storm tenant {storm} not flagged: {:?}",
        fleet.stragglers
    );
    let reparsed = trace::TraceSnapshot::from_jsonl(&snap.to_jsonl().unwrap()).unwrap();
    assert_eq!(FleetHealth::from_snapshot(&reparsed), fleet, "aggregate changed across JSONL");
    // Every step counts exactly one fit path, and the LHS bootstrap steps
    // (`init_iters` = 3, at n <= 40, where the next step refits anyway)
    // all skip.
    let [full, incremental, skipped] =
        ["gp.fit.full", "gp.fit.incremental", "gp.fit.skipped"].map(|c| snap.counter(c));
    assert_eq!(full + incremental + skipped, tenants * iters as u64);
    assert!(skipped >= tenants * 3, "{skipped} skipped fits");

    // Tracing and diagnostics leave the schedule independence intact: a
    // rerun at another worker count reproduces every tenant's record.
    let (again, _) = run(1);
    for (a, b) in out.tenants.iter().zip(&again.tenants) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.record_json().unwrap(), b.record_json().unwrap(), "tenant {}", a.id);
    }
}

//! End-to-end contract of the search-space transformation layer
//! (`core::space`, DESIGN.md §14): a ResTune session tuning 200 knobs
//! through a seeded HeSBO projection must be deterministic (golden-digest
//! pinned), must emit `space.project` trace counters at the engine's lift
//! seam, and must only ever materialize in-range configurations no matter
//! what the proposer emits in the low space.

use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::space::{projected_space, Projection};
use restune::prelude::*;

const ITERS: usize = 8;
const D_LOW: usize = 8;

fn projected_env(seed: u64) -> TuningEnvironment {
    let set = KnobSet::extended();
    let transform = projected_space(&set, Projection::Hesbo, D_LOW, seed, Some(64), Some(0.2));
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(set)
        .seed(seed)
        .space(transform)
        .build()
}

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 200, n_local: 40, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
        dynamic_samples: 8,
        init_iters: 3,
        seed,
        ..Default::default()
    }
}

/// FNV-1a over the full iteration trace — same digest construction as
/// `golden_methods.rs`, pinning every bit of the projected session.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn outcome_digest(o: &TuningOutcome) -> u64 {
    let mut text = String::new();
    for r in &o.history {
        text.push_str(&format!(
            "{}|{:?}|{:?}|{:?}|{}|{:?}\n",
            r.iteration, r.point, r.observation, r.objective, r.feasible, r.timing.replay_s,
        ));
    }
    text.push_str(&format!("best={:?}@{:?}", o.best_objective, o.best_iteration));
    fnv1a(text.as_bytes())
}

#[test]
fn projected_restune_session_matches_its_golden_digest() {
    // Captured from the first green run of this test; pins the projection
    // matrix seeding, the lift/clip/hybrid/quantize order, and the engine's
    // low-space bookkeeping all at once.
    const GOLDEN: u64 = 0x73a51788b5644a70;
    let outcome = TuningSession::new(projected_env(21), quick_config(21)).run(ITERS);
    assert_eq!(outcome.history.len(), ITERS);
    // Every searched point lives in the low space.
    for r in &outcome.history {
        assert_eq!(r.point.len(), D_LOW, "iteration {} point not low-dimensional", r.iteration);
    }
    let got = outcome_digest(&outcome);
    assert_eq!(
        got, GOLDEN,
        "projected session diverged from its golden digest (got 0x{got:016x})"
    );
}

#[test]
fn projected_sessions_are_reproducible_and_seed_sensitive() {
    let a = TuningSession::new(projected_env(21), quick_config(21)).run(5);
    let b = TuningSession::new(projected_env(21), quick_config(21)).run(5);
    assert_eq!(outcome_digest(&a), outcome_digest(&b), "same seed diverged");
    let c = TuningSession::new(projected_env(22), quick_config(22)).run(5);
    assert_ne!(outcome_digest(&a), outcome_digest(&c), "different seeds coincided");
}

#[test]
fn projected_sessions_count_every_lift_in_the_trace() {
    trace::reset();
    trace::enable();
    let outcome = TuningSession::new(projected_env(21), quick_config(21)).run(5);
    let snapshot = trace::snapshot();
    trace::disable();
    trace::reset();
    assert_eq!(outcome.history.len(), 5);
    // One lift per evaluation (including the default-seeding observation is
    // *not* lifted — it is restricted), plus one for rendering the winning
    // configuration at the end of the run.
    let lifts = snapshot.counter("space.project");
    assert!(
        lifts >= 5,
        "expected at least one space.project count per iteration, got {lifts}"
    );
}

#[test]
fn out_of_cube_proposals_materialize_in_range_configurations() {
    // The clamp regression, end-to-end through the transform: whatever the
    // proposer hands the engine — even coordinates outside [0,1] — the
    // configuration that reaches the DBMS stays inside every knob's range.
    let set = KnobSet::extended();
    let transform = projected_space(&set, Projection::Hesbo, D_LOW, 7, None, Some(0.2));
    let hostile = vec![1.7, -0.4, 0.0, 1.0, 0.5, -2.0, 3.0, 0.999];
    let native = transform.lift(&hostile);
    assert_eq!(native.len(), set.dim());
    let config = set.to_configuration(&native, &Configuration::dba_default());
    let reg = dbsim::KnobRegistry::mysql();
    for i in 0..reg.len() {
        let k = reg.knob(i);
        let v = config.values()[i];
        assert!(
            v >= k.min && v <= k.max || matches!(k.kind, dbsim::KnobKind::Enum(_)),
            "{}: {v} escaped [{}, {}]",
            k.name,
            k.min,
            k.max
        );
    }
    // And the simulator accepts it without panicking or producing non-finite
    // metrics.
    let mut dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 3);
    let obs = dbms.evaluate(&config);
    assert!(obs.tps.is_finite() && obs.p99_ms.is_finite());
}

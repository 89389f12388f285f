//! End-to-end integration tests across crates: a full ResTune tuning run on
//! the simulated DBMS must reduce resource usage while honoring the SLA, and
//! meta-learning must accelerate convergence.

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::repository::{DataRepository, TaskRecord};
use restune::prelude::*;

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 400, n_local: 80, local_sigma: 0.08 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 20, ..Default::default() },
        dynamic_samples: 12,
        seed,
        ..Default::default()
    }
}

fn case_env(seed: u64) -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
        .build()
}

#[test]
fn tuning_reduces_cpu_substantially_within_sla() {
    let mut session = TuningSession::new(case_env(1), quick_config(1));
    let outcome = session.run(30);
    let default = outcome.default_objective();
    let best = outcome.best_objective.expect("a feasible best exists");
    assert!(best < 0.5 * default, "default {default:.1}% -> best {best:.1}%");
    // The iteration that produced the incumbent was feasible.
    let best_iter = outcome.best_iteration.expect("improved over the default");
    assert!(outcome.history[best_iter].feasible);
    // Verify against the ground-truth simulator: the recommended config
    // really does meet the SLA noiselessly.
    let dbms =
        SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 1).with_noise(0.0);
    let obs = dbms.evaluate_noiseless(&outcome.best_config);
    assert!(obs.tps >= outcome.sla.tps_floor() * 0.98, "tps {} floor {}", obs.tps, outcome.sla.tps_floor());
}

#[test]
fn incumbent_never_violates_sla() {
    let mut session = TuningSession::new(case_env(2), quick_config(2));
    let outcome = session.run(20);
    // best_feasible_objective must only ever decrease, and only via feasible
    // observations.
    let mut last = f64::INFINITY;
    for r in &outcome.history {
        assert!(r.best_feasible_objective <= last + 1e-9);
        if r.best_feasible_objective < last - 1e-9 {
            assert!(
                r.feasible || r.best_feasible_objective == outcome.default_objective(),
                "incumbent improved via an infeasible observation at iter {}",
                r.iteration
            );
        }
        last = r.best_feasible_objective;
    }
}

#[test]
fn meta_learning_accelerates_early_iterations() {
    // History: Twitter variations on the same instance, over the full
    // 14-knob CPU space — too large for 10 LHS samples to solve, so the
    // static-weight bootstrap has real work to do.
    let characterizer = workload::WorkloadCharacterizer::train_default(5);
    let mut repo = DataRepository::new();
    for (i, spec) in WorkloadSpec::twitter_variations().into_iter().take(3).enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, spec, 900 + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::cpu(),
            ResourceKind::Cpu,
            &characterizer,
            60,
            910 + i as u64,
        ));
    }
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    let mf = characterizer.embed_workload(&WorkloadSpec::twitter(), 1).probs;

    let env = |seed| {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .seed(seed)
            .build()
    };
    let boosted =
        TuningSession::with_base_learners(env(3), quick_config(3), learners, mf).run(10);

    // The absolute transfer claim: with base-learners from Twitter-variation
    // tasks, the static-weight bootstrap finds a configuration far below the
    // default (~92 % CPU) within the first few iterations — the behaviour
    // Figure 3(b) shows. (Comparisons against a scratch run are seed-luck on
    // this workload: random 14-dim points have a fair chance of being decent
    // for Twitter; the harness-level Figures 3-5 do the statistical
    // comparison.)
    let early_best = boosted.best_curve()[4];
    assert!(
        early_best < 0.45 * boosted.default_objective(),
        "boosted best after 5 iterations is {early_best:.1}% (default {:.1}%)",
        boosted.default_objective()
    );
}

#[test]
fn timing_breakdown_reflects_replay_dominance() {
    let mut session = TuningSession::new(case_env(6), quick_config(6));
    let outcome = session.run(3);
    for r in &outcome.history {
        assert!(r.timing.replay_s > 60.0);
        assert!(r.timing.replay_s / r.timing.total_s() > 0.5);
    }
}

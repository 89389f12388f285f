//! Seed-matrix fault-injection end-to-end: a six-learner meta-boosted run
//! under a 20% transient fault rate must complete every iteration without
//! panicking, never certify an incumbent from a failed or infeasible replay,
//! retain most of the fault-free improvement, and keep the fault schedule —
//! and the whole algorithmic trace — a pure function of the seeds, whether
//! the recommend path fans out or runs inline as a fleet tenant.

use dbsim::{FaultPlan, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::meta::BaseLearner;
use restune::core::repository::{DataRepository, TaskRecord};
use restune::prelude::*;

const ITERS: usize = 12;
const TRANSIENT_RATE: f64 = 0.2;

fn quick_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 200, n_local: 40, local_sigma: 0.08 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 10, ..Default::default() },
        dynamic_samples: 8,
        init_iters: 3,
        seed,
        ..Default::default()
    }
}

/// Six base learners on the 3-dim case-study space: the five Twitter R/W
/// variations of Table 5 plus a Sysbench task.
fn six_learners() -> (Vec<BaseLearner>, Vec<f64>) {
    let characterizer = workload::WorkloadCharacterizer::train_default(5);
    let mut repo = DataRepository::new();
    let mut specs = WorkloadSpec::twitter_variations();
    specs.push(WorkloadSpec::sysbench());
    for (i, spec) in specs.into_iter().enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, spec, 50 + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::case_study(),
            ResourceKind::Cpu,
            &characterizer,
            10,
            70 + i as u64,
        ));
    }
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    assert_eq!(learners.len(), 6, "expected a six-learner ensemble");
    let mf = characterizer.embed_workload(&WorkloadSpec::twitter(), 1).probs;
    (learners, mf)
}

fn meta_env(seed: u64, plan: FaultPlan) -> TuningEnvironment {
    TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::case_study())
        .seed(seed)
        .fault_plan(plan)
        .build()
}

fn run_meta(seed: u64, plan: FaultPlan, learners: &[BaseLearner], mf: &[f64]) -> TuningOutcome {
    let env = meta_env(seed, plan);
    TuningSession::with_base_learners(env, quick_config(seed), learners.to_vec(), mf.to_vec())
        .run(ITERS)
}

/// Full algorithmic fingerprint of one iteration, failure channel included.
fn fingerprint(r: &restune::core::tuner::IterationRecord) -> String {
    format!(
        "{} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.iteration,
        r.point,
        r.observation,
        r.objective,
        r.feasible,
        r.best_feasible_objective,
        r.weights,
        r.failure,
        r.retries,
        r.timing.replay_s,
    )
}

#[test]
fn faulted_runs_complete_stay_feasible_and_keep_most_improvement() {
    let (learners, mf) = six_learners();
    let plan = FaultPlan::none().with_transient_rate(TRANSIENT_RATE).with_seed(0xFA);
    let mut any_failures = false;
    for seed in [3u64, 11, 42] {
        let clean = run_meta(seed, FaultPlan::none(), &learners, &mf);
        let faulted = run_meta(seed, plan, &learners, &mf);

        // Every iteration completes — failures degrade, never abort.
        assert_eq!(faulted.history.len(), ITERS, "seed {} aborted early", seed);
        for r in &faulted.history {
            assert!(r.objective.is_finite(), "seed {} iter {} non-finite", seed, r.iteration);
            if Some(r.iteration) == faulted.best_iteration {
                assert!(r.feasible, "seed {} certified an infeasible incumbent", seed);
                assert!(
                    r.failure.is_none(),
                    "seed {} certified an incumbent from a failed replay",
                    seed
                );
            }
        }
        // With the default 2-retry policy most 20%-rate transients are
        // absorbed (an iteration only *fails* if three consecutive attempts
        // fault), so count retried attempts as evidence the schedule fired.
        any_failures |=
            faulted.failures.retries > 0 || faulted.failures.failed_iterations() > 0;

        // ≥80% of the fault-free improvement survives the fault storm.
        assert!(
            clean.improvement() > 0.0,
            "seed {} fault-free run found no improvement; check would be vacuous",
            seed
        );
        assert!(
            faulted.improvement() >= 0.8 * clean.improvement(),
            "seed {}: faulted improvement {:.4} < 80% of fault-free {:.4}",
            seed,
            faulted.improvement(),
            clean.improvement()
        );
    }
    assert!(any_failures, "20% transient rate never fired across the seed matrix");
}

#[test]
fn fault_schedule_is_a_pure_function_of_the_seeds() {
    let (learners, mf) = six_learners();
    let plan = FaultPlan::none().with_transient_rate(TRANSIENT_RATE).with_seed(0xFA);
    let a = run_meta(11, plan, &learners, &mf);
    let b = run_meta(11, plan, &learners, &mf);
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.best_objective, b.best_objective);
}

#[test]
fn inline_tenant_execution_does_not_move_the_fault_schedule() {
    use restune::core::fleet::{FleetConfig, FleetService, Tenant};
    let (learners, mf) = six_learners();
    let plan = FaultPlan::none().with_transient_rate(TRANSIENT_RATE).with_seed(0xFA);
    let fanned = run_meta(42, plan, &learners, &mf);
    let session =
        TuningSession::with_base_learners(meta_env(42, plan), quick_config(42), learners, mf.clone());
    let tenant = Tenant::new(0, "faulted", ITERS, mf, session);
    let fleet =
        FleetService::new(FleetConfig { workers: 1, slice: 4, shards: 1 }).run(vec![tenant]);
    let inline = &fleet.tenants[0].outcome;
    assert_eq!(fanned.history.len(), inline.history.len());
    for (ra, rb) in fanned.history.iter().zip(&inline.history) {
        assert_eq!(fingerprint(ra), fingerprint(rb), "iteration {} diverged", ra.iteration);
    }
    assert_eq!(fanned.failures, inline.failures);
    assert_eq!(format!("{:?}", fanned.best_config), format!("{:?}", inline.best_config));
}

//! Unit tests for the experiment-harness library: metrics, small experiment
//! runs, and report plumbing.

use restune_bench::context::{build_repository_from, fit_learners, Scale};
use restune_bench::experiments::{efficiency, fig1};
use dbsim::{InstanceType, WorkloadSpec};
use restune_core::problem::ResourceKind;

#[test]
fn iterations_to_best_edge_cases() {
    // Monotone descent reaching the floor early.
    assert_eq!(efficiency::iterations_to_best(&[10.0, 5.0, 5.0, 5.0]), 2);
    // Flat curve: best from the start.
    assert_eq!(efficiency::iterations_to_best(&[7.0, 7.0, 7.0]), 1);
    // Within-1% tolerance counts as reached.
    assert_eq!(efficiency::iterations_to_best(&[10.0, 5.04, 5.0]), 2);
    // Empty curve degrades gracefully.
    assert_eq!(efficiency::iterations_to_best(&[]), 0);
}

#[test]
fn fig1_plateau_structure_at_small_scale() {
    let r = fig1::run(5);
    assert_eq!(r.levels, 5);
    assert_eq!(r.tps.len(), 5);
    assert_eq!(r.cpu[0].len(), 5);
    // All entries are physical.
    for row in r.tps.iter().chain(r.cpu.iter()) {
        for v in row {
            assert!(v.is_finite() && *v >= 0.0);
        }
    }
}

#[test]
fn scale_budget_relationships() {
    assert!(Scale::Quick.task_observations() < Scale::Full.task_observations());
    assert!(Scale::Quick.repeats() <= Scale::Full.repeats());
}

#[test]
fn repository_builder_from_explicit_tasks() {
    let characterizer = workload::WorkloadCharacterizer::train_default(0);
    let repo = build_repository_from(
        &characterizer,
        &[
            (WorkloadSpec::twitter(), InstanceType::A),
            (WorkloadSpec::sysbench(), InstanceType::B),
        ],
        &dbsim::KnobSet::case_study(),
        ResourceKind::Cpu,
        10,
        3,
    );
    assert_eq!(repo.len(), 2);
    // Each task stores the default anchor plus its n LHS samples.
    assert_eq!(repo.n_observations(), 2 * (10 + 1));
    let learners = fit_learners(&repo);
    assert_eq!(learners.len(), 2);
    assert_eq!(learners[0].instance, InstanceType::A);
    assert_eq!(learners[1].workload, "SYSBENCH");
}

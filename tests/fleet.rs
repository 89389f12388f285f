//! Fleet fault-isolation regression tests (DESIGN.md §12): one tenant's
//! replay-failure storm — or an outright panicking strategy — must be
//! contained to that tenant. Siblings' outcomes are bit-identical to a fleet
//! that never contained the poisoned tenant at all.

use dbsim::{FaultPlan, InstanceType, KnobSet, WorkloadSpec};
use restune::core::acquisition::AcquisitionOptimizer;
use restune::core::fleet::{mix_seed, FleetConfig, FleetOutcome, FleetService, Tenant};
use restune::prelude::*;

const ITERS: usize = 5;

fn tenant_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 100, n_local: 25, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 6, ..Default::default() },
        dynamic_samples: 4,
        init_iters: 2,
        seed,
        ..Default::default()
    }
}

/// A fleet tenant whose replay fails transiently at `fault_rate`; seeds and
/// workloads derive from the id alone, so the same id always yields the same
/// tenant regardless of fleet composition.
fn tenant(id: u64, fault_rate: f64) -> Tenant {
    let seed = mix_seed(0xBEEF, id);
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::fleet_tenant(id))
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::cpu())
        .seed(seed)
        .fault_plan(FaultPlan::none().with_transient_rate(fault_rate).with_seed(seed ^ 0xFA))
        .build();
    Tenant::restune(id, format!("tenant-{id}"), env, tenant_config(seed), ITERS)
}

/// Asserts the tenant with `id` is bit-identical between the two fleets.
fn assert_tenant_identical(a: &FleetOutcome, b: &FleetOutcome, id: u64) {
    let ta = a.tenants.iter().find(|t| t.id == id).expect("tenant in first fleet");
    let tb = b.tenants.iter().find(|t| t.id == id).expect("tenant in second fleet");
    assert_eq!(
        ta.record_json().unwrap(),
        tb.record_json().unwrap(),
        "tenant {id} repository JSON diverged"
    );
    assert_eq!(ta.outcome.history.len(), tb.outcome.history.len());
    for (ra, rb) in ta.outcome.history.iter().zip(&tb.outcome.history) {
        assert_eq!(
            format!("{:?} {:?} {:?} {:?}", ra.point, ra.observation, ra.objective, ra.retries),
            format!("{:?} {:?} {:?} {:?}", rb.point, rb.observation, rb.objective, rb.retries),
            "tenant {id} iteration {} diverged",
            ra.iteration
        );
    }
    assert_eq!(ta.outcome.best_objective, tb.outcome.best_objective);
}

#[test]
fn a_total_fault_storm_is_contained_to_its_tenant() {
    const POISONED: u64 = 7;
    // 16 tenants; tenant 7's every replay attempt fails (OOM/timeout storm
    // at 100% transient rate). Run on 4 workers.
    let with_storm: Vec<Tenant> = (0..16u64)
        .map(|id| tenant(id, if id == POISONED { 1.0 } else { 0.0 }))
        .collect();
    let storm_fleet =
        FleetService::new(FleetConfig { workers: 4, slice: 2, shards: 8 }).run(with_storm);
    assert_eq!(storm_fleet.tenants.len(), 16);
    assert_eq!(storm_fleet.poisoned().count(), 0, "a fault storm must not poison the tenant");

    // The storm tenant itself survives on the engine's resilience semantics:
    // every iteration exhausts its retries and is penalized, yet the tenant
    // completes its budget and commits a record.
    let storm = storm_fleet.tenants.iter().find(|t| t.id == POISONED).unwrap();
    assert_eq!(storm.iterations_run, ITERS);
    let f = &storm.outcome.failures;
    assert!(f.retries > 0, "storm tenant must have burned retries");
    assert_eq!(
        f.crashes + f.timeouts + f.partials,
        ITERS,
        "every storm iteration must end in a failure outcome, got {f:?}"
    );
    for r in &storm.outcome.history {
        assert!(r.failure.is_some(), "storm iteration {} reported no failure", r.iteration);
    }

    // Siblings are bit-identical to a 15-tenant fleet that never contained
    // the storm tenant — run at a different worker count for good measure.
    let without_storm: Vec<Tenant> =
        (0..16u64).filter(|&id| id != POISONED).map(|id| tenant(id, 0.0)).collect();
    let clean_fleet =
        FleetService::new(FleetConfig { workers: 2, slice: 3, shards: 8 }).run(without_storm);
    assert_eq!(clean_fleet.tenants.len(), 15);
    for id in (0..16u64).filter(|&id| id != POISONED) {
        assert_tenant_identical(&storm_fleet, &clean_fleet, id);
    }
}

/// A strategy that panics mid-run — modelling a tenant whose proposer hits
/// an unrecoverable bug, which must not take the fleet (or its worker) down.
struct Exploding {
    after: usize,
    calls: usize,
}

impl restune::core::Proposer for Exploding {
    fn propose(
        &mut self,
        view: &restune::core::HistoryView<'_>,
        _iter: usize,
        _seed: u64,
    ) -> restune::core::Proposal {
        self.calls += 1;
        if self.calls > self.after {
            panic!("strategy bug");
        }
        restune::core::Proposal::point(vec![0.5; view.problem.dim()])
    }
}

#[test]
fn a_panicking_strategy_is_contained_to_its_tenant() {
    use restune::core::engine::EvalEngine;
    use restune::core::TuningDriver;

    let exploding_env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::cpu())
        .seed(3)
        .build();
    let engine = EvalEngine::new(exploding_env, false);
    let exploding = Tenant::new(
        99,
        "exploding",
        ITERS,
        Vec::new(),
        TuningDriver::new(engine, Exploding { after: 2, calls: 0 }, 0),
    );

    let mut tenants: Vec<Tenant> = (0..4u64).map(|id| tenant(id, 0.0)).collect();
    tenants.push(exploding);
    let fleet =
        FleetService::new(FleetConfig { workers: 2, slice: 2, shards: 4 }).run(tenants);
    assert_eq!(fleet.tenants.len(), 5, "the fleet must complete despite the panic");
    let poisoned: Vec<u64> = fleet.poisoned().map(|t| t.id).collect();
    assert_eq!(poisoned, vec![99]);
    let exploded = fleet.tenants.iter().find(|t| t.id == 99).unwrap();
    assert_eq!(exploded.iterations_run, 2, "iterations before the panic are kept");

    // Siblings match a fleet that never contained the panicking tenant.
    let clean = FleetService::new(FleetConfig { workers: 1, slice: 4, shards: 4 })
        .run((0..4u64).map(|id| tenant(id, 0.0)).collect());
    for id in 0..4u64 {
        assert_tenant_identical(&fleet, &clean, id);
    }
}

//! Fleet throughput scaling (*ours*, DESIGN.md §12), saved as
//! `BENCH_fleet.json`: the same simulated tenant fleet at worker counts 1,
//! 4 and ncpu, tenants/s per arm, and the determinism contract — every arm
//! must produce byte-identical per-tenant repository JSON.
//!
//! In-run checks: every arm completes every tenant, no tenant is poisoned,
//! and every arm's digest equals the 1-worker arm's. `bench_gate` compares
//! throughput only between runs of the same size.

use dbsim::{InstanceType, KnobSet, WorkloadSpec};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::fleet::{mix_seed, FleetConfig, FleetService, Tenant};
use restune_core::problem::ResourceKind;
use restune_core::tuner::{RestuneConfig, TuningEnvironment};

use super::check;
use crate::gate::{Check, Gate, Rule};
use crate::report::fnv1a;

/// Tenants at quick and at full scale; the full fleet is the committed
/// baseline's size.
pub const TENANTS: (usize, usize) = (128, 1000);
/// Iterations per tenant, at both scales.
pub const ITERS: usize = 4;

/// One worker count's run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArm {
    /// Pool workers.
    pub workers: usize,
    /// Wall-clock seconds for the whole fleet.
    pub wall_s: f64,
    /// Tenants finished per wall-clock second.
    pub tenants_per_s: f64,
}

/// The scaling run, as `BENCH_fleet.json` holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDoc {
    /// Always `fleet_scaling`.
    pub bench: String,
    /// Tenants in the fleet.
    pub tenants: usize,
    /// Iterations per tenant.
    pub iters: usize,
    /// CPUs the host offered.
    pub ncpu: usize,
    /// One entry per worker count: 1, 4, then ncpu when it differs.
    pub arms: Vec<FleetArm>,
    /// FNV-1a over every tenant's record JSON, shared by every arm.
    pub determinism_digest: String,
    /// What `bench_gate` compares.
    pub gate: Gate,
}

minjson::json_struct!(FleetArm { workers, wall_s, tenants_per_s });
minjson::json_struct!(FleetDoc { bench, tenants, iters, ncpu, arms, determinism_digest, gate });

/// A cheap-but-real per-tenant config: two LHS bootstraps, then GP-driven
/// iterations with small budgets, so a thousand tenants finish in seconds
/// while still exercising fit + acquisition on every tenant.
fn tenant_config(seed: u64) -> RestuneConfig {
    RestuneConfig {
        optimizer: AcquisitionOptimizer { n_candidates: 60, n_local: 15, local_sigma: 0.1 },
        gp: gp::GpConfig { restarts: 1, adam_iters: 4, ..Default::default() },
        dynamic_samples: 4,
        init_iters: 2,
        seed,
        ..Default::default()
    }
}

fn build_tenants(n: usize, iters: usize) -> Vec<Tenant> {
    (0..n as u64)
        .map(|id| {
            let seed = mix_seed(0xF1EE7, id);
            let env = TuningEnvironment::builder()
                .instance(InstanceType::A)
                .workload(WorkloadSpec::fleet_tenant(id))
                .resource(ResourceKind::Cpu)
                .knob_set(KnobSet::case_study())
                .seed(seed)
                .build();
            Tenant::restune(id, format!("tenant-{id}"), env, tenant_config(seed), iters)
        })
        .collect()
}

/// Runs the fleet on `workers`; returns the arm and its digest.
fn run_arm(workers: usize, tenants: usize) -> Result<(FleetArm, u64), String> {
    let service = FleetService::new(FleetConfig { workers, slice: 2, shards: 16 });
    let out = service.run(build_tenants(tenants, ITERS));
    check(out.tenants.len() == tenants, || {
        format!("workers={workers} completed {} of {tenants} tenants", out.tenants.len())
    })?;
    let poisoned = out.poisoned().count();
    check(poisoned == 0, || format!("workers={workers}: {poisoned} tenants poisoned"))?;
    // One digest over every tenant's record JSON digest, in id order.
    let records = out.tenants.iter().map(|t| {
        t.record_json()
            .map(|json| fnv1a(json.bytes().map(u64::from)))
            .map_err(|e| format!("tenant {}: cannot render its record: {e}", t.id))
    });
    let digest = fnv1a(records.collect::<Result<Vec<_>, _>>()?);
    let arm = FleetArm { workers, wall_s: out.wall_s, tenants_per_s: out.tenants_per_s() };
    Ok((arm, digest))
}

/// Runs `tenants` tenants × [`ITERS`] iterations at each worker count and
/// the in-run checks; `Err` names the first check that failed.
pub fn run(tenants: usize) -> Result<FleetDoc, String> {
    let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut worker_counts = vec![1usize, 4];
    if !worker_counts.contains(&ncpu) {
        worker_counts.push(ncpu);
    }
    eprintln!("[fleet_scaling] {tenants} tenants x {ITERS} iterations on {worker_counts:?} ...");
    let mut arms = Vec::new();
    let mut digests = Vec::new();
    for workers in worker_counts {
        let (arm, digest) = run_arm(workers, tenants)?;
        arms.push(arm);
        digests.push(digest);
    }
    // The determinism contract: per-tenant repository JSON is bit-identical
    // at every worker count, so the combined digests must agree.
    for (arm, digest) in arms.iter().zip(&digests).skip(1) {
        check(*digest == digests[0], || {
            format!("per-tenant records diverged between workers=1 and workers={}", arm.workers)
        })?;
    }
    Ok(FleetDoc {
        bench: "fleet_scaling".to_string(),
        tenants,
        iters: ITERS,
        ncpu,
        arms,
        determinism_digest: format!("{:#x}", digests[0]),
        gate: Gate {
            same: vec!["tenants".into(), "iters".into()],
            checks: vec![
                Check {
                    path: "arms[workers].tenants_per_s".into(),
                    rule: Rule::Floor { drop: 0.5 },
                },
                Check { path: "determinism_digest".into(), rule: Rule::Equal },
            ],
        },
    })
}

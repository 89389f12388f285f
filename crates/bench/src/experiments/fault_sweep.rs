//! Improvement-vs-injected-failure-rate sweep (*ours*, beyond the paper):
//! six-learner meta-boosted runs on the Twitter/CPU case-study space under
//! the `dbsim` fault model (DESIGN.md §9), sweeping the per-attempt transient
//! rate and reporting retained improvement, failure tallies, and the charged
//! replay wall-clock.

use dbsim::{FaultPlan, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::meta::BaseLearner;
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use workload::WorkloadCharacterizer;

use crate::report::traced;

/// Iterations per run.
pub const ITERS: usize = 25;
/// The seed matrix each rate is averaged over.
pub const SEEDS: [u64; 5] = [3, 7, 11, 23, 42];
/// The swept per-attempt transient fault rates.
pub const RATES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];

/// One swept fault rate, aggregated over the seed matrix.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Injected per-attempt transient fault rate.
    pub rate: f64,
    /// Mean improvement over the default (fraction).
    pub improvement: f64,
    /// Total non-recovered crashes across the matrix.
    pub crashes: usize,
    /// Total non-recovered timeouts across the matrix.
    pub timeouts: usize,
    /// Total partial replays across the matrix.
    pub partials: usize,
    /// Total retried attempts across the matrix.
    pub retries: usize,
    /// Mean charged replay wall-clock per run, in minutes.
    pub replay_min: f64,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepResult {
    /// Iterations per run.
    pub iters: usize,
    /// Seeds averaged over.
    pub seeds: Vec<u64>,
    /// One row per injected rate (first row is fault-free).
    pub rows: Vec<FaultSweepRow>,
}

minjson::json_struct!(FaultSweepRow {
    rate,
    improvement,
    crashes,
    timeouts,
    partials,
    retries,
    replay_min
});
minjson::json_struct!(FaultSweepResult { iters, seeds, rows });

fn six_learners() -> (Vec<BaseLearner>, Vec<f64>) {
    let characterizer = WorkloadCharacterizer::train_default(5);
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
            15,
            70 + i as u64,
        ));
    }
    let learners = repo.base_learners(&gp::GpConfig::fixed(), |_| true);
    let mf = characterizer.embed_workload(&WorkloadSpec::twitter(), 1).probs;
    (learners, mf)
}

/// Runs the sweep. Failure tallies and the charged replay clock are read
/// from the trace collector (`replay.*` counters and the `replay.sim_s`
/// histogram, DESIGN.md §10) — the same data source as `report` — so
/// the fault table and Table 3 render from one instrumentation layer.
pub fn run() -> FaultSweepResult {
    let (learners, mf) = six_learners();
    let mut rows = Vec::new();
    for rate in RATES {
        eprintln!("[fault_sweep] rate = {rate:.2} ...");
        let plan = FaultPlan::none().with_transient_rate(rate).with_seed(0xFA);
        let mut row = FaultSweepRow {
            rate,
            improvement: 0.0,
            crashes: 0,
            timeouts: 0,
            partials: 0,
            retries: 0,
            replay_min: 0.0,
        };
        for &seed in &SEEDS {
            let (outcome, snap) = traced(|| {
                let env = TuningEnvironment::builder()
                    .instance(InstanceType::A)
                    .workload(WorkloadSpec::twitter())
                    .resource(ResourceKind::Cpu)
                    .knob_set(KnobSet::case_study())
                    .seed(seed)
                    .fault_plan(plan)
                    .build();
                let config = RestuneConfig {
                    optimizer: AcquisitionOptimizer {
                        n_candidates: 300,
                        n_local: 60,
                        local_sigma: 0.08,
                    },
                    gp: gp::GpConfig { restarts: 1, adam_iters: 15, ..Default::default() },
                    dynamic_samples: 12,
                    init_iters: 3,
                    seed,
                    ..Default::default()
                };
                TuningSession::with_base_learners(env, config, learners.clone(), mf.clone())
                    .run(ITERS)
            });
            row.improvement += outcome.improvement();
            debug_assert_eq!(snap.counter("replay.retries") as usize, outcome.failures.retries);
            row.crashes += snap.counter("replay.crash") as usize;
            row.timeouts += snap.counter("replay.timeout") as usize;
            row.partials += snap.counter("replay.partial") as usize;
            row.retries += snap.counter("replay.retries") as usize;
            row.replay_min += snap.hist("replay.sim_s").map(|h| h.sum).unwrap_or(0.0) / 60.0;
        }
        row.improvement /= SEEDS.len() as f64;
        row.replay_min /= SEEDS.len() as f64;
        rows.push(row);
    }
    FaultSweepResult { iters: ITERS, seeds: SEEDS.to_vec(), rows }
}

//! Model-quality health of the six methods (*ours*, DESIGN.md §15), saved as
//! `methods_health.json`: the golden-methods setup (seeded transient faults,
//! a shared two-task repository) run once per method with diagnostics on.
//!
//! Progress and failure columns come from each method's iteration history
//! through the shared driver, so they cover every method. Calibration,
//! weight entropy and fallback counts come from `tuner.health` telemetry,
//! folded with the fleet's per-tenant reducer; only the ResTune variants
//! emit it.

use baselines::method::Setting;
use baselines::{run_method, Method, MethodContext};
use dbsim::{FaultPlan, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
use restune_core::acquisition::AcquisitionOptimizer;
use restune_core::fleet::health::TenantHealth;
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::tuner::{RestuneConfig, TuningEnvironment};
use workload::WorkloadCharacterizer;

use crate::report::traced;
use crate::view;

const SEED: u64 = 17;
const FAULT_RATE: f64 = 0.2;

/// One method's health summary; `None` renders as `-`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodHealth {
    /// The method's legend name.
    pub method: String,
    /// Best feasible CPU% at the end, if any point was feasible.
    pub final_cpu_pct: Option<f64>,
    /// Mean per-iteration gap between the objective and the incumbent.
    pub mean_regret: Option<f64>,
    /// Iterations that ended in a failure.
    pub failed_iters: usize,
    /// Transient-replay retries.
    pub retries: usize,
    /// Mean 1σ LOO coverage over the iterations that fit a model.
    pub mean_cov_1s: Option<f64>,
    /// Mean LOO `|z|` over the same iterations.
    pub mean_abs_z: Option<f64>,
    /// Ensemble weight entropy at the last weighted iteration.
    pub final_weight_entropy: Option<f64>,
    /// GP-failure fallbacks, for methods that emit telemetry.
    pub fallbacks: Option<u64>,
}

/// The six methods under one setup.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodsHealthResult {
    /// Iterations per method.
    pub iters: usize,
    /// The environment and algorithm seed.
    pub seed: u64,
    /// Per-attempt transient replay fault rate.
    pub fault_rate: f64,
    /// One row per method, in the paper's legend order.
    pub rows: Vec<MethodHealth>,
}

minjson::json_struct!(MethodHealth {
    method,
    final_cpu_pct,
    mean_regret,
    failed_iters,
    retries,
    mean_cov_1s,
    mean_abs_z,
    final_weight_entropy,
    fallbacks
});
minjson::json_struct!(MethodsHealthResult { iters, seed, fault_rate, rows });

/// Runs every method for `iters` iterations.
pub fn run(iters: usize) -> MethodsHealthResult {
    let characterizer = WorkloadCharacterizer::train_default(0);
    let mut repo = DataRepository::new();
    for (i, w) in [WorkloadSpec::twitter(), WorkloadSpec::sysbench()].into_iter().enumerate() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, w, 100 + i as u64);
        repo.add(TaskRecord::collect(
            &mut dbms,
            &KnobSet::case_study(),
            ResourceKind::Cpu,
            &characterizer,
            12,
            200 + i as u64,
        ));
    }
    let env = || {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(SEED)
            .fault_plan(FaultPlan::none().with_transient_rate(FAULT_RATE).with_seed(0xFA))
            .build()
    };
    let ctx = MethodContext {
        config: RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 250, n_local: 50, local_sigma: 0.1 },
            gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
            dynamic_samples: 8,
            init_iters: 4,
            seed: SEED,
            diag: true,
            ..Default::default()
        },
        repository: Some(&repo),
        prepared_learners: None,
        setting: Setting::Original,
        target_meta_feature: vec![0.2; 5],
    };
    let methods = [
        ("ResTune", Method::Restune),
        ("ResTune-w/o-ML", Method::RestuneWithoutML),
        ("ResTune-w/o-WC", Method::RestuneWithoutWorkload),
        ("iTuned", Method::ITuned),
        ("OtterTune-w-Con", Method::OtterTuneWithConstraints),
        ("CDBTune-w-Con", Method::CdbTuneWithConstraints),
    ];
    let rows = methods
        .into_iter()
        .map(|(label, method)| {
            eprintln!("[methods_health] {label} ...");
            let (outcome, snap) = traced(|| run_method(method, env(), iters, &ctx));
            let mean_regret = outcome
                .history
                .iter()
                .map(|r| r.objective - r.best_feasible_objective)
                .sum::<f64>()
                / outcome.history.len().max(1) as f64;
            let telemetry = TenantHealth::from_records(0, &view::session_records(&snap));
            let telemetry = telemetry.as_ref();
            MethodHealth {
                method: label.to_string(),
                final_cpu_pct: outcome.best_objective,
                mean_regret: Some(mean_regret).filter(|r| r.is_finite()),
                failed_iters: outcome.failures.failed_iterations(),
                retries: outcome.failures.retries,
                mean_cov_1s: telemetry.and_then(|t| t.mean_cov_1s),
                mean_abs_z: telemetry.and_then(|t| t.mean_abs_z),
                final_weight_entropy: telemetry.and_then(|t| t.final_weight_entropy),
                fallbacks: telemetry.map(|t| t.fallbacks),
            }
        })
        .collect();
    MethodsHealthResult { iters, seed: SEED, fault_rate: FAULT_RATE, rows }
}

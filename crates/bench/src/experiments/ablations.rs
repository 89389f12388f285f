//! Ablation studies of the design choices DESIGN.md calls out (these are
//! *ours*, complementing the paper's own ablation in Figure 6(b)):
//!
//! 1. **Acquisition**: CEI (the paper's choice) vs penalty-based constrained
//!    BO (the simple alternative its related work describes, §2) vs plain EI.
//! 2. **Weight-dilution guard**: RGPE's guard on vs off.
//! 3. **Static-phase constraint sourcing**: target-only constraints during
//!    the bootstrap (DESIGN.md §5b) vs the literal ensemble constraints.

use crate::context::{build_repository_from, fit_learners, ExperimentContext};
use baselines::method::Setting;
use baselines::{run_method, Method, MethodContext};
use dbsim::{InstanceType, WorkloadSpec};
use restune_core::acquisition::AcquisitionKind;
use restune_core::problem::ResourceKind;
use restune_core::tuner::{TuningEnvironment, TuningSession};

/// One ablation arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Arm label.
    pub label: String,
    /// Best-feasible CPU per iteration.
    pub curve: Vec<f64>,
    /// Final best feasible CPU.
    pub final_best: f64,
    /// SLA violations among evaluated configs.
    pub violations: usize,
}

/// All three ablations.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Default CPU baseline.
    pub default_cpu: f64,
    /// Acquisition-function arms.
    pub acquisition: Vec<Arm>,
    /// Dilution-guard arms.
    pub dilution: Vec<Arm>,
    /// Static-constraint-sourcing arms.
    pub static_constraints: Vec<Arm>,
}

fn arm_from(label: &str, outcome: &restune_core::tuner::TuningOutcome) -> Arm {
    Arm {
        label: label.to_string(),
        curve: outcome.best_curve(),
        final_best: *outcome.best_curve().last().unwrap(),
        violations: outcome.history.iter().filter(|r| !r.feasible).count(),
    }
}

/// Runs all three ablations over the 14-knob CPU space: the acquisition
/// ablation on SYSBENCH@A (whose tight feasible region actually separates
/// the acquisitions — Twitter's wide optimum is found by any of them), the
/// meta-learning ablations on Twitter@A with a *cross-hardware, partially
/// misleading* repository (where the dilution guard and constraint sourcing
/// have work to do).
pub fn run(ctx: &ExperimentContext, iterations: usize) -> AblationResult {
    let target = WorkloadSpec::twitter();
    let env = |seed: u64| {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(target.clone())
            .resource(ResourceKind::Cpu)
            .seed(seed)
            .build()
    };

    // --- 1. acquisition functions (no meta; isolates the acquisition) ------
    let mut acquisition = Vec::new();
    let mut default_cpu = 0.0;
    for (label, kind) in [
        ("CEI (paper)", AcquisitionKind::ConstrainedExpectedImprovement),
        ("Penalized EI", AcquisitionKind::PenalizedExpectedImprovement),
        ("Plain EI", AcquisitionKind::ExpectedImprovement),
    ] {
        eprintln!("[ablations] acquisition = {label} ...");
        let mut config = ctx.config(17);
        config.acquisition = kind;
        let sysbench_env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::sysbench())
            .resource(ResourceKind::Cpu)
            .seed(17)
            .build();
        let outcome = TuningSession::new(sysbench_env, config).run(iterations);
        default_cpu = outcome.default_obj_value;
        acquisition.push(arm_from(label, &outcome));
    }

    // --- 2 & 3: meta-learning knobs -----------------------------------------
    // Cross-hardware repository with two genuinely similar tasks (Twitter
    // variations on instance B) and two misleading ones (Sales and Hotel on
    // B): the static phase must survive the foreigners and the dynamic phase
    // must down-weight them.
    eprintln!("[ablations] building cross-hardware repository ...");
    let scale_b = |w: WorkloadSpec| crate::context::scale_rate_to_instance(&w, InstanceType::B);
    let tasks: Vec<(WorkloadSpec, InstanceType)> = vec![
        (scale_b(WorkloadSpec::twitter_variations()[0].clone()), InstanceType::B),
        (scale_b(WorkloadSpec::twitter_variations()[1].clone()), InstanceType::B),
        (scale_b(WorkloadSpec::sales()), InstanceType::B),
        (scale_b(WorkloadSpec::hotel()), InstanceType::B),
    ];
    let repo = build_repository_from(
        &ctx.characterizer,
        &tasks,
        &dbsim::KnobSet::cpu(),
        ResourceKind::Cpu,
        ctx.scale.task_observations(),
        ctx.seed + 900,
    );
    let learners = fit_learners(&repo);
    let mf = ctx.characterizer.embed_workload(&target, ctx.seed).probs;

    let meta_run = |label: &str, guard: bool, static_target: bool| -> Arm {
        eprintln!("[ablations] {label} ...");
        let mut config = ctx.config(19);
        config.dilution_guard = guard;
        config.static_constraints_from_target = static_target;
        let mctx = MethodContext {
            config,
            repository: Some(&repo),
            prepared_learners: Some(&learners),
            setting: Setting::Original,
            target_meta_feature: mf.clone(),
        };
        let outcome = run_method(Method::Restune, env(19), iterations, &mctx);
        arm_from(label, &outcome)
    };

    let dilution = vec![
        meta_run("guard on (RGPE)", true, true),
        meta_run("guard off", false, true),
    ];
    let static_constraints = vec![
        meta_run("target constraints (ours)", true, true),
        meta_run("ensemble constraints (literal)", true, false),
    ];

    AblationResult { default_cpu, acquisition, dilution, static_constraints }
}

minjson::json_struct!(Arm { label, curve, final_best, violations });
minjson::json_struct!(AblationResult { default_cpu, acquisition, dilution, static_constraints });

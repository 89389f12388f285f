//! Figure 9 (§7.5): tuning I/O (BPS and IOPS, 20 knobs) and memory (6 knobs)
//! on instance E, transferring between SYSBENCH and TPC-C.
//!
//! Setup per the paper: I/O experiments fix the buffer pool (the I/O knob
//! set does not contain it) with 30 GB SYSBENCH / 100 GB TPC-C data; memory
//! experiments add `innodb_buffer_pool_frac` as a knob. The repository for
//! each target is built from the *other* workload's observations
//! (SYSBENCH→TPC-C and TPC-C→SYSBENCH — the varying-workloads flavor).

use crate::context::{build_repository_from, fit_learners, ExperimentContext};
use baselines::method::Setting;
use baselines::{run_method, Method, MethodContext};
use dbsim::{InstanceType, WorkloadSpec};
use restune_core::problem::ResourceKind;
use restune_core::tuner::TuningEnvironment;

/// One panel of Figure 9: one (workload, resource) pair.
#[derive(Debug, Clone)]
pub struct ResourcePanel {
    /// Target workload.
    pub workload: String,
    /// Resource being optimized ("IO-BPS", "IOPS", "Memory").
    pub resource: String,
    /// Resource unit.
    pub unit: String,
    /// Default (untuned) value.
    pub default_value: f64,
    /// Per-method curves of the best feasible value.
    pub curves: Vec<(String, Vec<f64>)>,
}

/// All six panels of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Panels in paper order: BPS (SYSBENCH, TPC-C), IOPS (SYSBENCH, TPC-C),
    /// Memory (SYSBENCH, TPC-C).
    pub panels: Vec<ResourcePanel>,
}

/// Runs all panels.
pub fn run(ctx: &ExperimentContext, iterations: usize) -> Fig9Result {
    let sysbench = WorkloadSpec::sysbench().with_data_gb(30.0);
    let tpcc = WorkloadSpec::tpcc().with_data_gb(100.0);
    let methods = [
        Method::Restune,
        Method::RestuneWithoutML,
        Method::OtterTuneWithConstraints,
        Method::CdbTuneWithConstraints,
        Method::ITuned,
    ];
    // The six (resource, direction) panels are independent; run each on a
    // scoped thread (per-run seeds keep results identical to a serial run).
    let combos: Vec<(ResourceKind, &WorkloadSpec, &WorkloadSpec)> =
        [ResourceKind::IoBps, ResourceKind::Iops, ResourceKind::Memory]
            .into_iter()
            .flat_map(|r| [(r, &sysbench, &tpcc), (r, &tpcc, &sysbench)])
            .collect();
    let panels: Vec<ResourcePanel> = std::thread::scope(|scope| {
        let handles: Vec<_> = combos
            .iter()
            .map(|&(resource, target, source)| {
                scope.spawn(move || {
                    eprintln!("[fig9] {} / {} ...", resource.name(), target.name);
                    // Repository from the *other* workload on the same instance.
                    let repo = build_repository_from(
                        &ctx.characterizer,
                        &[(source.clone(), InstanceType::E)],
                        &resource.default_knob_set(),
                        resource,
                        ctx.scale.task_observations(),
                        ctx.seed + 600,
                    );
                    let learners = fit_learners(&repo);
                    let target_mf = ctx.characterizer.embed_workload(target, ctx.seed).probs;
                    let mut curves = Vec::new();
                    let mut default_value = 0.0;
                    for method in methods {
                        let env = TuningEnvironment::builder()
                            .instance(InstanceType::E)
                            .workload(target.clone())
                            .resource(resource)
                            .seed(ctx.seed + 41)
                            .build();
                        let mctx = MethodContext {
                            config: ctx.config(ctx.seed + 41),
                            repository: Some(&repo),
                            prepared_learners: Some(&learners),
                            setting: Setting::Original, // repo already excludes target
                            target_meta_feature: target_mf.clone(),
                        };
                        let outcome = run_method(method, env, iterations, &mctx);
                        default_value = outcome.default_obj_value;
                        curves.push((method.name().to_string(), outcome.best_curve()));
                    }
                    ResourcePanel {
                        workload: target.name.clone(),
                        resource: resource.name().to_string(),
                        unit: resource.unit().to_string(),
                        default_value,
                        curves,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("fig9 panel panicked")).collect()
    });
    Fig9Result { panels }
}

minjson::json_struct!(ResourcePanel { workload, resource, unit, default_value, curves });
minjson::json_struct!(Fig9Result { panels });

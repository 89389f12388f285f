//! Tables 8 and 9 (§7.6): 1-year TCO reduction from the resource savings.

use crate::context::ExperimentContext;
use baselines::method::Setting;
use baselines::{run_method, Method, MethodContext};
use dbsim::{InstanceType, WorkloadSpec};
use restune_core::problem::ResourceKind;
use restune_core::tco::{cpu_tco_reduction, memory_tco_reduction, used_cores};
use restune_core::tuner::TuningEnvironment;

/// One Table 8 cell (workload × instance).
#[derive(Debug, Clone)]
pub struct Table8Cell {
    /// Workload name.
    pub workload: String,
    /// Instance name.
    pub instance: String,
    /// Cores in use before tuning.
    pub original_cores: f64,
    /// Cores in use after tuning.
    pub optimized_cores: f64,
    /// Average 1-year TCO reduction across providers (USD).
    pub avg_tco_reduction: f64,
}

/// Table 8 result.
#[derive(Debug, Clone)]
pub struct Table8Result {
    /// Cells per (workload, instance).
    pub cells: Vec<Table8Cell>,
}

/// One Table 9 row.
#[derive(Debug, Clone)]
pub struct Table9Row {
    /// Workload name.
    pub workload: String,
    /// Memory before tuning (GB).
    pub original_gb: f64,
    /// Memory after tuning (GB).
    pub optimized_gb: f64,
    /// Savings per provider (AWS, Azure, Aliyun), USD/year.
    pub per_provider: Vec<f64>,
}

/// Table 9 result.
#[derive(Debug, Clone)]
pub struct Table9Result {
    /// Rows per workload.
    pub rows: Vec<Table9Row>,
}

/// Runs CPU tuning on SYSBENCH and TPC-C across all six instances (Table 8).
pub fn run_table8(ctx: &ExperimentContext, iterations: usize) -> Table8Result {
    let workloads = [WorkloadSpec::sysbench(), WorkloadSpec::tpcc()];
    let mut cells = Vec::new();
    for workload in &workloads {
        for instance in InstanceType::ALL {
            eprintln!("[table8] {} on {:?} ...", workload.name, instance);
            let outcome = ctx.run(
                Method::Restune,
                instance,
                workload,
                Setting::Original,
                iterations,
                ctx.seed + 51,
            );
            let original = used_cores(outcome.default_obj_value, instance.cores());
            let optimized = used_cores(
                outcome.best_objective.unwrap_or(outcome.default_obj_value),
                instance.cores(),
            );
            let tco = cpu_tco_reduction(original, optimized);
            cells.push(Table8Cell {
                workload: workload.name.clone(),
                instance: instance.name().to_string(),
                original_cores: original,
                optimized_cores: optimized,
                avg_tco_reduction: tco.average,
            });
        }
    }
    Table8Result { cells }
}

/// Runs memory tuning on instance E (Table 9).
pub fn run_table9(ctx: &ExperimentContext, iterations: usize) -> Table9Result {
    let workloads = [
        WorkloadSpec::sysbench().with_data_gb(30.0),
        WorkloadSpec::tpcc().with_data_gb(100.0),
    ];
    let mut rows = Vec::new();
    for workload in &workloads {
        eprintln!("[table9] memory tuning {} on E ...", workload.name);
        let env = TuningEnvironment::builder()
            .instance(InstanceType::E)
            .workload(workload.clone())
            .resource(ResourceKind::Memory)
            .seed(ctx.seed + 61)
            .build();
        let mctx = MethodContext {
            config: ctx.config(ctx.seed + 61),
            repository: None,
            prepared_learners: None,
            setting: Setting::Original,
            target_meta_feature: ctx.characterizer.embed_workload(workload, ctx.seed).probs,
        };
        let outcome = run_method(Method::RestuneWithoutML, env, iterations, &mctx);
        let original = outcome.default_obj_value;
        let optimized = outcome.best_objective.unwrap_or(original);
        let tco = memory_tco_reduction(original, optimized);
        rows.push(Table9Row {
            workload: workload.name.clone(),
            original_gb: original,
            optimized_gb: optimized,
            per_provider: tco.per_provider,
        });
    }
    Table9Result { rows }
}

minjson::json_struct!(Table8Cell { workload, instance, original_cores, optimized_cores, avg_tco_reduction });
minjson::json_struct!(Table8Result { cells });
minjson::json_struct!(Table9Row { workload, original_gb, optimized_gb, per_provider });
minjson::json_struct!(Table9Result { rows });

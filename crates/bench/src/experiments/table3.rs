//! Table 3: execution-time breakdown per iteration when tuning the SYSBENCH
//! workload — meta-data processing, model update, knob recommendation, and
//! target-workload replay, for each method.
//!
//! The paper's takeaway is structural: replay dominates every method
//! (92–99.7 % of the iteration), so comparisons can focus on iteration
//! counts. Replay time here is the simulator's replay clock (~182 s for
//! benchmark workloads); algorithm phases are real measured wall-clock.

use crate::context::ExperimentContext;
use crate::report;
use crate::view::PhaseMeans;
use baselines::method::Setting;
use baselines::Method;
use dbsim::{InstanceType, WorkloadSpec};

/// Per-method mean phase durations (seconds).
#[derive(Debug, Clone)]
pub struct MethodBreakdown {
    /// Method legend name.
    pub method: String,
    /// Meta-data processing (ResTune only; 0 for others).
    pub meta_data_processing_s: f64,
    /// Model update.
    pub model_update_s: f64,
    /// GP fitting share of the model update (ResTune sessions; 0 for
    /// baselines that patch timings in externally).
    pub gp_fit_s: f64,
    /// Weight-learning share of the model update.
    pub weight_update_s: f64,
    /// Knob recommendation.
    pub recommendation_s: f64,
    /// Simulated replay.
    pub replay_s: f64,
    /// Share of the iteration spent replaying.
    pub replay_share: f64,
}

/// The full table.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// One row per method.
    pub rows: Vec<MethodBreakdown>,
}

/// Runs each method briefly on SYSBENCH@A with the trace collector on, and
/// derives each row from that run's [`trace::TraceSnapshot`] — the same data
/// source the `report` bin renders (DESIGN.md §10). Means are taken over every
/// iteration of the run (bootstrap included), with the simulated replay
/// clock from the `replay.sim_s` histogram.
pub fn run(ctx: &ExperimentContext, iterations: usize) -> Table3Result {
    let workload = WorkloadSpec::sysbench();
    let methods = [
        Method::Restune,
        Method::RestuneWithoutML,
        Method::ITuned,
        Method::CdbTuneWithConstraints,
        Method::OtterTuneWithConstraints,
    ];
    let rows = methods
        .into_iter()
        .map(|method| {
            let (_, snap) = report::traced(|| {
                ctx.run(method, InstanceType::A, &workload, Setting::Original, iterations, ctx.seed)
            });
            let p = PhaseMeans::from_snapshot(&snap);
            MethodBreakdown {
                method: method.name().to_string(),
                meta_data_processing_s: p.meta_data_processing_s,
                model_update_s: p.model_update_s,
                gp_fit_s: p.gp_fit_s,
                weight_update_s: p.weight_update_s,
                recommendation_s: p.recommendation_s,
                replay_s: p.replay_s,
                replay_share: p.replay_share(),
            }
        })
        .collect();
    Table3Result { rows }
}

minjson::json_struct!(MethodBreakdown {
    method,
    meta_data_processing_s,
    model_update_s,
    gp_fit_s,
    weight_update_s,
    recommendation_s,
    replay_s,
    replay_share,
});
minjson::json_struct!(Table3Result { rows });

//! Figures 3, 4, and 5: best-feasible-CPU tuning curves per workload and
//! method under the paper's three repository settings.
//!
//! * Figure 3 — *original* setting, all 34 historical tasks available.
//! * Figure 4 — *varying hardware*: the target instance's history is held
//!   out (transfer B→A / A→B).
//! * Figure 5 — *varying workloads*: the target workload's history is held
//!   out.

use crate::context::ExperimentContext;
use baselines::method::Setting;
use baselines::Method;
use dbsim::{InstanceType, WorkloadSpec};

/// One method's averaged curve on one workload.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Method legend name.
    pub method: String,
    /// Best-feasible CPU (%) per iteration, averaged over repeats.
    pub best_cpu: Vec<f64>,
    /// Iterations to reach within 1 % of the final best (averaged).
    pub iterations_to_best: f64,
    /// Final best CPU.
    pub final_best: f64,
}

/// One workload's panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Workload name.
    pub workload: String,
    /// Default CPU (the flat baseline line).
    pub default_cpu: f64,
    /// Method curves.
    pub curves: Vec<Curve>,
}

/// A full figure: one panel per workload.
#[derive(Debug, Clone)]
pub struct EfficiencyResult {
    /// Figure id ("fig3", "fig4", "fig5").
    pub figure: String,
    /// Evaluation setting used.
    pub setting: String,
    /// Instance tuned.
    pub instance: String,
    /// Panels in Figure 3 workload order.
    pub panels: Vec<Panel>,
}

/// Iterations until the curve first reaches within 1 % of its final value.
pub fn iterations_to_best(curve: &[f64]) -> usize {
    let last = *curve.last().unwrap_or(&0.0);
    curve
        .iter()
        .position(|v| *v <= last * 1.01)
        .map(|i| i + 1)
        .unwrap_or(curve.len())
}

/// Runs one figure: every workload × method, averaged over repeats.
pub fn run(
    ctx: &ExperimentContext,
    figure: &str,
    setting: Setting,
    instance: InstanceType,
    methods: &[Method],
    workloads: &[WorkloadSpec],
    iterations: usize,
) -> EfficiencyResult {
    let repeats = ctx.scale.repeats();
    let mut panels = Vec::new();
    for workload in workloads {
        eprintln!("[{figure}] {} on {instance:?} ...", workload.name);
        // Methods are independent: run them on scoped threads (seeds are
        // fixed per run, so parallelism never changes the results).
        let results: Vec<(Curve, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = methods
                .iter()
                .map(|&method| {
                    scope.spawn(move || {
                        let mut acc: Vec<f64> = vec![0.0; iterations];
                        let mut itb = 0.0;
                        let mut final_best = 0.0;
                        let mut default_cpu = 0.0;
                        for rep in 0..repeats {
                            let seed = ctx.seed + 1000 * rep as u64 + 17;
                            let outcome =
                                ctx.run(method, instance, workload, setting, iterations, seed);
                            default_cpu = outcome.default_obj_value;
                            let curve = outcome.best_curve();
                            for (a, v) in acc.iter_mut().zip(&curve) {
                                *a += v;
                            }
                            itb += iterations_to_best(&curve) as f64;
                            final_best += *curve.last().unwrap();
                        }
                        let n = repeats as f64;
                        for a in &mut acc {
                            *a /= n;
                        }
                        (
                            Curve {
                                method: method.name().to_string(),
                                best_cpu: acc,
                                iterations_to_best: itb / n,
                                final_best: final_best / n,
                            },
                            default_cpu,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("method run panicked")).collect()
        });
        let default_cpu = results.last().map(|(_, d)| *d).unwrap_or(0.0);
        let curves = results.into_iter().map(|(c, _)| c).collect();
        panels.push(Panel { workload: workload.name.clone(), default_cpu, curves });
    }
    EfficiencyResult {
        figure: figure.to_string(),
        setting: format!("{setting:?}"),
        instance: format!("{instance:?}"),
        panels,
    }
}

minjson::json_struct!(Curve { method, best_cpu, iterations_to_best, final_best });
minjson::json_struct!(Panel { workload, default_cpu, curves });
minjson::json_struct!(EfficiencyResult { figure, setting, instance, panels });

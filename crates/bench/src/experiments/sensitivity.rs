//! Sensitivity analyses (§7.4): Figure 8 (varying request rate) and Table 7
//! (varying data size).

use crate::context::ExperimentContext;
use baselines::method::Setting;
use baselines::Method;
use dbsim::{Configuration, InstanceType, SimulatedDbms, WorkloadSpec};

/// One request-rate point of Figure 8.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// Client request rate (txn/s).
    pub rate: f64,
    /// CPU under the default configuration.
    pub default_cpu: f64,
    /// Best feasible CPU ResTune found at this rate.
    pub tuned_cpu: f64,
    /// CPU when applying the knobs tuned at the *reference* rate (the paper's
    /// red transfer line).
    pub transferred_cpu: f64,
    /// Whether the transferred knobs met this rate's SLA.
    pub transferred_feasible: bool,
}

/// Figure 8 for one workload.
#[derive(Debug, Clone)]
pub struct Fig8Panel {
    /// Workload name.
    pub workload: String,
    /// The reference rate whose knobs are transferred.
    pub reference_rate: f64,
    /// Sweep points.
    pub points: Vec<RatePoint>,
}

/// Figure 8: both panels.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// TPC-C panel (1.5 K – 2.2 K txn/s).
    pub tpcc: Fig8Panel,
    /// SYSBENCH panel (16 K – 23 K txn/s).
    pub sysbench: Fig8Panel,
}

fn sweep(
    ctx: &ExperimentContext,
    base: &WorkloadSpec,
    rates: &[f64],
    iterations: usize,
) -> Fig8Panel {
    let reference_rate = rates[rates.len() / 2];
    // Tune once at the reference rate; transfer those knobs everywhere.
    let ref_workload = base.clone().with_request_rate(reference_rate);
    eprintln!("[fig8] tuning {} at {} txn/s ...", base.name, reference_rate);
    let ref_outcome = ctx.run(
        Method::Restune,
        InstanceType::A,
        &ref_workload,
        Setting::Original,
        iterations,
        ctx.seed + 21,
    );
    let transferred = ref_outcome.best_config.clone();

    let mut points = Vec::new();
    for &rate in rates {
        let workload = base.clone().with_request_rate(rate);
        eprintln!("[fig8] {} @ {} txn/s ...", base.name, rate);
        let outcome = ctx.run(
            Method::Restune,
            InstanceType::A,
            &workload,
            Setting::Original,
            iterations,
            ctx.seed + 22,
        );
        // Evaluate the transferred knobs at this rate (noiseless).
        let dbms = SimulatedDbms::new(InstanceType::A, workload.clone(), 0).with_noise(0.0);
        let default_obs = dbms.evaluate_noiseless(&Configuration::dba_default());
        let sla = restune_core::problem::SlaConstraints::from_default_observation(&default_obs);
        let tobs = dbms.evaluate_noiseless(&transferred);
        points.push(RatePoint {
            rate,
            default_cpu: outcome.default_obj_value,
            tuned_cpu: outcome.best_objective.unwrap_or(outcome.default_obj_value),
            transferred_cpu: tobs.resources.cpu_pct,
            transferred_feasible: sla.is_feasible(&tobs),
        });
    }
    Fig8Panel { workload: base.name.clone(), reference_rate, points }
}

/// Runs both Figure 8 panels.
pub fn run_fig8(ctx: &ExperimentContext, iterations: usize) -> Fig8Result {
    let tpcc_rates: Vec<f64> = (0..8).map(|i| 1500.0 + 100.0 * i as f64).collect();
    let sysbench_rates: Vec<f64> = (0..8).map(|i| 16_000.0 + 1_000.0 * i as f64).collect();
    Fig8Result {
        tpcc: sweep(ctx, &WorkloadSpec::tpcc(), &tpcc_rates, iterations),
        sysbench: sweep(ctx, &WorkloadSpec::sysbench(), &sysbench_rates, iterations),
    }
}

/// One Table 7 row.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// TPC-C warehouses.
    pub warehouses: u32,
    /// Dataset size (GB).
    pub size_gb: f64,
    /// Buffer-pool hit ratio under the default configuration.
    pub hit_ratio: f64,
    /// Default CPU (%).
    pub default_cpu: f64,
    /// Best feasible CPU after tuning.
    pub best_cpu: f64,
    /// Relative improvement.
    pub improvement: f64,
}

/// Table 7 result.
#[derive(Debug, Clone)]
pub struct Table7Result {
    /// Instance the sweep ran on.
    pub instance: String,
    /// Rows per warehouse count.
    pub rows: Vec<Table7Row>,
}

/// Runs the data-size sweep (TPC-C, warehouses per the paper's Table 7) on
/// instance D, whose 16 GB buffer pool reproduces the paper's hit-ratio
/// range (0.996 at 100 warehouses down to ~0.95 at 1000). The request rate
/// is lowered to what D sustains so CPU is not saturation-pinned.
pub fn run_table7(ctx: &ExperimentContext, iterations: usize) -> Table7Result {
    let instance = InstanceType::D;
    let mut rows = Vec::new();
    for warehouses in [100u32, 200, 500, 800, 1000] {
        let workload = WorkloadSpec::tpcc_warehouses(warehouses).with_request_rate(800.0);
        eprintln!("[table7] TPC-C {warehouses} warehouses ...");
        let dbms = SimulatedDbms::new(instance, workload.clone(), 0).with_noise(0.0);
        let breakdown = dbms.breakdown(&Configuration::dba_default());
        let outcome = ctx.run(
            Method::Restune,
            instance,
            &workload,
            Setting::Original,
            iterations,
            ctx.seed + 31,
        );
        let best = outcome.best_objective.unwrap_or(outcome.default_obj_value);
        rows.push(Table7Row {
            warehouses,
            size_gb: workload.data_gb,
            hit_ratio: 1.0 - breakdown.miss_ratio,
            default_cpu: outcome.default_obj_value,
            best_cpu: best,
            improvement: outcome.improvement(),
        });
    }
    Table7Result { instance: instance.name().to_string(), rows }
}

minjson::json_struct!(RatePoint { rate, default_cpu, tuned_cpu, transferred_cpu, transferred_feasible });
minjson::json_struct!(Fig8Panel { workload, reference_rate, points });
minjson::json_struct!(Fig8Result { tpcc, sysbench });
minjson::json_struct!(Table7Row { warehouses, size_gb, hit_ratio, default_cpu, best_cpu, improvement });
minjson::json_struct!(Table7Result { instance, rows });

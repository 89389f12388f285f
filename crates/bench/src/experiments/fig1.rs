//! Figure 1: throughput and CPU usage of a rate-bounded workload over a
//! 2-knob grid (`innodb_sync_spin_loops` × `table_open_cache`).
//!
//! The paper's motivating observation: a wide range of configurations share
//! the same (request-rate-bounded) throughput while their CPU usage varies
//! drastically — the headroom resource-oriented tuning exploits.

use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};

/// Grid sweep result.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Grid resolution per axis.
    pub levels: usize,
    /// `innodb_sync_spin_loops` values along axis 0.
    pub spin_values: Vec<f64>,
    /// `table_open_cache` values along axis 1.
    pub toc_values: Vec<f64>,
    /// Throughput at `[spin][toc]`.
    pub tps: Vec<Vec<f64>>,
    /// CPU percentage at `[spin][toc]`.
    pub cpu: Vec<Vec<f64>>,
}

/// Sweeps the Figure 1 grid on a rate-bounded real-workload stand-in.
pub fn run(levels: usize) -> Fig1Result {
    // The paper uses a production workload; Twitter (rate-bounded, 30 K
    // txn/s) is our closest stand-in.
    let dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 1).with_noise(0.0);
    let set = KnobSet::figure1();
    let base = Configuration::dba_default();
    let mut spin_values = Vec::with_capacity(levels);
    let mut toc_values = Vec::with_capacity(levels);
    let mut tps = vec![vec![0.0; levels]; levels];
    let mut cpu = vec![vec![0.0; levels]; levels];
    for i in 0..levels {
        let ui = i as f64 / (levels - 1) as f64;
        for j in 0..levels {
            let uj = j as f64 / (levels - 1) as f64;
            let config = set.to_configuration(&[ui, uj], &base);
            if j == 0 {
                spin_values.push(config.get("innodb_sync_spin_loops"));
            }
            if i == 0 {
                toc_values.push(config.get("table_open_cache"));
            }
            let obs = dbms.evaluate_noiseless(&config);
            tps[i][j] = obs.tps;
            cpu[i][j] = obs.resources.cpu_pct;
        }
    }
    Fig1Result { levels, spin_values, toc_values, tps, cpu }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shows_the_constant_tps_varying_cpu_plateau() {
        let r = run(6);
        let max_tps = r.tps.iter().flatten().cloned().fold(0.0, f64::max);
        let mut plateau_cpu: Vec<f64> = Vec::new();
        for i in 0..r.levels {
            for j in 0..r.levels {
                if r.tps[i][j] >= 0.98 * max_tps {
                    plateau_cpu.push(r.cpu[i][j]);
                }
            }
        }
        assert!(plateau_cpu.len() >= 8, "plateau too small: {}", plateau_cpu.len());
        let lo = plateau_cpu.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = plateau_cpu.iter().cloned().fold(0.0_f64, f64::max);
        assert!(
            hi - lo > 10.0,
            "CPU should vary widely on the plateau: {lo:.1}..{hi:.1}"
        );
    }
}

minjson::json_struct!(Fig1Result { levels, spin_values, toc_values, tps, cpu });

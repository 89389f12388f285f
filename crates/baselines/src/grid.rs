//! Exhaustive grid search — the §7.3 case study's "known ground-truth"
//! (an 8×8×8 sweep over the three CPU knobs): [`grid_search`] is the raw
//! noiseless sweep the case study tables use, with no tuning loop and no
//! retries, so its best cell is exact ground truth.

use dbsim::{Configuration, KnobSet, SimulatedDbms};
use restune_core::problem::{ResourceKind, SlaConstraints};

/// Result of a grid sweep.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Best feasible configuration.
    pub best_config: Configuration,
    /// Best feasible normalized point.
    pub best_point: Vec<f64>,
    /// Best feasible objective.
    pub best_objective: f64,
    /// Number of grid cells evaluated.
    pub evaluated: usize,
    /// Number of feasible cells.
    pub feasible: usize,
}

/// Sweeps a full `levels^dim` grid (noiseless), returning the best feasible
/// cell under an SLA fixed from the default configuration.
pub fn grid_search(
    dbms: &SimulatedDbms,
    knob_set: &KnobSet,
    resource: ResourceKind,
    levels: usize,
) -> GridResult {
    assert!(levels >= 2);
    let default_obs = dbms.evaluate_noiseless(&Configuration::dba_default());
    let sla = SlaConstraints::from_default_observation(&default_obs);
    let dim = knob_set.dim();
    let cells = levels.pow(dim as u32);
    let base = Configuration::dba_default();

    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut feasible = 0usize;
    for cell in 0..cells {
        let mut idx = cell;
        let point: Vec<f64> = (0..dim)
            .map(|_| {
                let level = idx % levels;
                idx /= levels;
                level as f64 / (levels - 1) as f64
            })
            .collect();
        let config = knob_set.to_configuration(&point, &base);
        let obs = dbms.evaluate_noiseless(&config);
        if sla.is_feasible(&obs) {
            feasible += 1;
            let objective = resource.value(&obs);
            if best.as_ref().map(|(_, v)| objective < *v).unwrap_or(true) {
                best = Some((point, objective));
            }
        }
    }
    let (best_point, best_objective) = best.unwrap_or_else(|| {
        (knob_set.default_point(), resource.value(&default_obs))
    });
    GridResult {
        best_config: knob_set.to_configuration(&best_point, &base),
        best_point,
        best_objective,
        evaluated: cells,
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsim::{InstanceType, WorkloadSpec};

    #[test]
    fn case_study_grid_finds_a_much_better_feasible_config() {
        let dbms =
            SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 0).with_noise(0.0);
        let result = grid_search(&dbms, &KnobSet::case_study(), ResourceKind::Cpu, 8);
        assert_eq!(result.evaluated, 512);
        assert!(result.feasible > 0);
        let default =
            dbms.evaluate_noiseless(&Configuration::dba_default()).resources.cpu_pct;
        assert!(
            result.best_objective < 0.5 * default,
            "grid best {} vs default {default}",
            result.best_objective
        );
        // The winning config throttles concurrency well below 512 threads.
        assert!(result.best_config.get("innodb_thread_concurrency") < 100.0);
    }

    #[test]
    fn grid_counts_cells_correctly() {
        let dbms =
            SimulatedDbms::new(InstanceType::B, WorkloadSpec::sysbench(), 0).with_noise(0.0);
        let set = KnobSet::figure1();
        let result = grid_search(&dbms, &set, ResourceKind::Cpu, 4);
        assert_eq!(result.evaluated, 16);
        assert!(result.feasible <= 16);
    }
}

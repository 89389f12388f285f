//! Fleet-level health aggregation (DESIGN.md §15).
//!
//! One traced fleet run leaves a single collector holding every tenant's
//! `tuner.health` event stream, tagged with the tenant's task id by the
//! scheduler's [`trace::task_scope`]. This module folds those streams two
//! levels up:
//!
//! 1. per tenant — [`TenantHealth`] condenses a tenant's event stream into
//!    summary statistics (mean regret, calibration means, fallback and
//!    failure tallies, final weight entropy),
//! 2. per fleet — [`FleetHealth`] digests the tenant summaries into
//!    p50/p95/p99 [`Digest`]s and flags straggler/outlier tenants against
//!    fixed thresholds (high regret relative to the fleet median,
//!    [`REGRET_FACTOR`]; a grossly mis-calibrated GP, [`MAX_MEAN_ABS_Z`] and
//!    [`MIN_COV_2S`]; repeated GP-failure fallbacks, [`MAX_FALLBACKS`]; or a
//!    replay failure storm, [`MAX_FAILED_SHARE`]).
//!
//! Everything operates on data already recorded — aggregation never touches
//! the collector — so it can run on a live [`trace::snapshot`] or on a
//! JSONL file parsed back with [`trace::TraceSnapshot::from_jsonl`]. The
//! `report` bench bin renders the result.

use crate::diag::{TunerHealth, HEALTH_EVENT};
use trace::TraceSnapshot;

/// Nearest-rank percentile over a sorted sample vector.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A `{n, mean, min, max, p50, p95, p99}` digest of per-tenant values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Tenants contributing a value.
    pub n: usize,
    /// Mean value.
    pub mean: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl Digest {
    /// Digests a sample vector; `None` when no finite samples exist.
    pub fn from_samples(samples: &[f64]) -> Option<Digest> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        Some(Digest {
            n,
            mean,
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
        })
    }
}

/// One tenant's health event stream condensed to summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantHealth {
    /// Task id the tenant's events were tagged with.
    pub task: u64,
    /// Health events observed (== iterations when diagnostics ran end to
    /// end).
    pub iterations: usize,
    /// Best feasible objective after the last iteration.
    pub final_incumbent: f64,
    /// Mean per-iteration regret against the running incumbent.
    pub mean_regret: f64,
    /// The stagnation clock at the last iteration.
    pub final_since_improvement: usize,
    /// Mean 1σ empirical coverage over calibrated iterations, if any.
    pub mean_cov_1s: Option<f64>,
    /// Mean 2σ empirical coverage over calibrated iterations, if any.
    pub mean_cov_2s: Option<f64>,
    /// Mean standardized-residual `|z|` over calibrated iterations, if any.
    pub mean_abs_z: Option<f64>,
    /// Mean LOO negative log predictive density over calibrated iterations.
    pub mean_loo_nll: Option<f64>,
    /// Weight entropy at the last iteration carrying weights.
    pub final_weight_entropy: Option<f64>,
    /// GP-failure fallbacks over the whole session (final tally).
    pub fallbacks: u64,
    /// Iterations that ended crashed/timed-out/partial (final tally).
    pub failed_iterations: usize,
    /// Transient-replay retries (final tally).
    pub retries: usize,
    /// Iterations carrying a synthetic failure penalty.
    pub penalized_iterations: usize,
}

impl TenantHealth {
    /// Condenses one tenant's event stream (in iteration order). `None` when
    /// the stream is empty.
    pub fn from_records(task: u64, records: &[TunerHealth]) -> Option<TenantHealth> {
        let last = records.last()?;
        let n = records.len() as f64;
        let mean_of = |f: &dyn Fn(&TunerHealth) -> Option<f64>| -> Option<f64> {
            let vals: Vec<f64> = records.iter().filter_map(f).collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        };
        Some(TenantHealth {
            task,
            iterations: records.len(),
            final_incumbent: last.incumbent,
            mean_regret: records.iter().map(|r| r.regret).sum::<f64>() / n,
            final_since_improvement: last.since_improvement,
            mean_cov_1s: mean_of(&|r| r.calibration.map(|c| c.coverage_1s)),
            mean_cov_2s: mean_of(&|r| r.calibration.map(|c| c.coverage_2s)),
            mean_abs_z: mean_of(&|r| r.calibration.map(|c| c.mean_abs_z)),
            mean_loo_nll: mean_of(&|r| r.calibration.map(|c| c.loo_nll)),
            final_weight_entropy: records.iter().rev().find_map(|r| r.weight_entropy),
            fallbacks: last.fallbacks,
            failed_iterations: last.failures.failed_iterations(),
            retries: last.failures.retries,
            penalized_iterations: records.iter().filter(|r| r.penalized).count(),
        })
    }
}

/// Flag a tenant whose mean regret exceeds this multiple of the fleet's
/// median mean regret (only when the median is meaningfully positive).
pub const REGRET_FACTOR: f64 = 2.0;
/// Flag a mis-calibrated GP when the tenant's mean `|z|` exceeds this
/// (grossly overconfident predictive variance).
pub const MAX_MEAN_ABS_Z: f64 = 3.0;
/// Flag a mis-calibrated GP when mean 2σ coverage falls below this.
pub const MIN_COV_2S: f64 = 0.5;
/// Flag a tenant that took at least this many GP-failure fallbacks.
pub const MAX_FALLBACKS: u64 = 2;
/// Flag a tenant when more than this share of its iterations ended in
/// failure.
pub const MAX_FAILED_SHARE: f64 = 0.5;

/// A flagged tenant with the reasons it tripped the straggler thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Task id of the flagged tenant.
    pub task: u64,
    /// Human-readable reasons, in check order.
    pub reasons: Vec<String>,
}

/// The fleet-level aggregate: per-tenant summaries, cross-tenant digests,
/// and flagged stragglers.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// Per-tenant summaries, ascending by task id.
    pub tenants: Vec<TenantHealth>,
    /// Digest of per-tenant mean regret.
    pub regret: Option<Digest>,
    /// Digest of per-tenant final incumbents.
    pub final_incumbent: Option<Digest>,
    /// Digest of per-tenant mean 1σ coverage (calibrated tenants only).
    pub coverage_1s: Option<Digest>,
    /// Digest of per-tenant mean LOO-NLL (calibrated tenants only).
    pub loo_nll: Option<Digest>,
    /// Digest of per-tenant final weight entropy (meta tenants only).
    pub weight_entropy: Option<Digest>,
    /// GP-failure fallbacks summed over the fleet.
    pub total_fallbacks: u64,
    /// Failed iterations summed over the fleet.
    pub total_failed_iterations: usize,
    /// Tenants flagged as stragglers, ascending by task id.
    pub stragglers: Vec<Straggler>,
}

impl FleetHealth {
    /// Aggregates per-tenant health streams. Input order is irrelevant;
    /// output is sorted by task id so the aggregate is schedule-independent.
    pub fn aggregate(mut per_tenant: Vec<(u64, Vec<TunerHealth>)>) -> FleetHealth {
        per_tenant.sort_by_key(|(task, _)| *task);
        let tenants: Vec<TenantHealth> = per_tenant
            .iter()
            .filter_map(|(task, records)| TenantHealth::from_records(*task, records))
            .collect();

        let collect = |f: &dyn Fn(&TenantHealth) -> Option<f64>| -> Vec<f64> {
            tenants.iter().filter_map(f).collect()
        };
        let regret_samples = collect(&|t| Some(t.mean_regret));
        let regret = Digest::from_samples(&regret_samples);
        let median_regret = regret.map(|d| d.p50).unwrap_or(0.0);

        let mut stragglers = Vec::new();
        for t in &tenants {
            let mut reasons = Vec::new();
            // An essentially-zero fleet median means regret differences are
            // noise; the relative check needs a meaningful baseline.
            if median_regret > 1e-12 && t.mean_regret > REGRET_FACTOR * median_regret {
                reasons.push(format!(
                    "high regret: mean {:.4} > {:.1}x fleet median {:.4}",
                    t.mean_regret, REGRET_FACTOR, median_regret
                ));
            }
            let overconfident = t.mean_abs_z.is_some_and(|z| z > MAX_MEAN_ABS_Z);
            let undercovered = t.mean_cov_2s.is_some_and(|c| c < MIN_COV_2S);
            if overconfident || undercovered {
                reasons.push(format!(
                    "mis-calibrated GP: mean |z| {:.2}, 2-sigma coverage {:.2}",
                    t.mean_abs_z.unwrap_or(0.0),
                    t.mean_cov_2s.unwrap_or(0.0)
                ));
            }
            if t.fallbacks >= MAX_FALLBACKS {
                reasons.push(format!("repeated GP fallbacks: {}", t.fallbacks));
            }
            let failed_share = if t.iterations == 0 {
                0.0
            } else {
                t.failed_iterations as f64 / t.iterations as f64
            };
            if failed_share > MAX_FAILED_SHARE {
                reasons.push(format!(
                    "failure storm: {}/{} iterations failed",
                    t.failed_iterations, t.iterations
                ));
            }
            if !reasons.is_empty() {
                stragglers.push(Straggler { task: t.task, reasons });
            }
        }

        FleetHealth {
            regret,
            final_incumbent: Digest::from_samples(&collect(&|t| Some(t.final_incumbent))),
            coverage_1s: Digest::from_samples(&collect(&|t| t.mean_cov_1s)),
            loo_nll: Digest::from_samples(&collect(&|t| t.mean_loo_nll)),
            weight_entropy: Digest::from_samples(&collect(&|t| t.final_weight_entropy)),
            total_fallbacks: tenants.iter().map(|t| t.fallbacks).sum(),
            total_failed_iterations: tenants.iter().map(|t| t.failed_iterations).sum(),
            stragglers,
            tenants,
        }
    }

    /// Slices a snapshot's task-tagged `tuner.health` events into per-tenant
    /// streams and aggregates them (events without a task tag — a solo
    /// session — are ignored; render those with the per-session report).
    pub fn from_snapshot(snap: &TraceSnapshot) -> FleetHealth {
        let per_tenant: Vec<(u64, Vec<TunerHealth>)> = snap
            .event_tasks()
            .into_iter()
            .map(|task| {
                let records: Vec<TunerHealth> = snap
                    .events_for_task(task)
                    .into_iter()
                    .filter(|e| e.name == HEALTH_EVENT)
                    .filter_map(TunerHealth::from_event)
                    .collect();
                (task, records)
            })
            .collect();
        FleetHealth::aggregate(per_tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{FitPath, Stage};
    use crate::resilience::FailureCounts;

    fn record(iter: usize, regret: f64) -> TunerHealth {
        TunerHealth {
            iteration: iter,
            objective: 1.0 + regret,
            feasible: true,
            penalized: false,
            incumbent: 1.0,
            regret,
            improvement: 0.0,
            since_improvement: iter,
            stage: Stage::Acquire,
            fit_path: FitPath::Full,
            fallbacks: 0,
            failures: FailureCounts::default(),
            weights: None,
            weight_entropy: None,
            calibration: None,
            drift: None,
        }
    }

    #[test]
    fn digest_percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let d = Digest::from_samples(&samples).unwrap();
        assert_eq!((d.n, d.min, d.max), (100, 1.0, 100.0));
        assert_eq!(d.p50, 50.0);
        assert_eq!(d.p95, 95.0);
        assert_eq!(d.p99, 99.0);
        assert_eq!(Digest::from_samples(&[]), None);
        assert_eq!(Digest::from_samples(&[f64::NAN]), None);
        let one = Digest::from_samples(&[3.0]).unwrap();
        assert_eq!((one.p50, one.p95, one.p99), (3.0, 3.0, 3.0));
    }

    #[test]
    fn high_regret_tenants_are_flagged_against_the_fleet_median() {
        let mut per_tenant: Vec<(u64, Vec<TunerHealth>)> = (0..9u64)
            .map(|t| (t, vec![record(0, 0.1), record(1, 0.1)]))
            .collect();
        per_tenant.push((9, vec![record(0, 2.0), record(1, 2.0)]));
        let fleet = FleetHealth::aggregate(per_tenant);
        assert_eq!(fleet.tenants.len(), 10);
        assert_eq!(fleet.stragglers.len(), 1);
        assert_eq!(fleet.stragglers[0].task, 9);
        assert!(fleet.stragglers[0].reasons[0].contains("high regret"));
        let regret = fleet.regret.unwrap();
        assert!((regret.p50 - 0.1).abs() < 1e-12);
        assert!((regret.max - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fallback_storms_and_miscalibration_are_flagged() {
        let mut bad = vec![record(0, 0.0)];
        bad[0].fallbacks = 5;
        bad[0].calibration = Some(gp::Calibration {
            n: 10,
            mean_abs_z: 8.0,
            max_abs_z: 20.0,
            loo_nll: 30.0,
            coverage_1s: 0.1,
            coverage_2s: 0.2,
        });
        let fleet = FleetHealth::aggregate(vec![(0, vec![record(0, 0.0)]), (1, bad)]);
        assert_eq!(fleet.stragglers.len(), 1);
        let reasons = fleet.stragglers[0].reasons.join("; ");
        assert!(reasons.contains("mis-calibrated"));
        assert!(reasons.contains("fallbacks"));
        assert_eq!(fleet.total_fallbacks, 5);
    }

    #[test]
    fn aggregation_is_schedule_independent() {
        let streams = |order: &[u64]| -> Vec<(u64, Vec<TunerHealth>)> {
            order.iter().map(|&t| (t, vec![record(0, t as f64 * 0.1)])).collect()
        };
        let a = FleetHealth::aggregate(streams(&[0, 1, 2, 3]));
        let b = FleetHealth::aggregate(streams(&[3, 1, 0, 2]));
        assert_eq!(a, b);
    }
}

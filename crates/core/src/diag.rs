//! Per-iteration model-quality telemetry (DESIGN.md §15).
//!
//! The trace layer (§10) answers *where the time went*; this module answers
//! *is the tuner healthy*. Every iteration of a diagnostics-enabled session
//! ([`crate::tuner::RestuneConfig::diag`]) condenses the model's state into
//! one [`TunerHealth`] record and emits it as a typed, timestamp-free
//! `tuner.health` trace event:
//!
//! - **GP calibration** — standardized LOO residual z-scores, mean LOO
//!   negative log predictive density, and empirical 1σ/2σ coverage of the
//!   objective surrogate ([`gp::Calibration`]), computed on the standardized
//!   targets the model actually trains on,
//! - **RGPE weight dynamics** — the ensemble weight vector and its Shannon
//!   entropy (high entropy = transfer still diffuse, near-zero entropy =
//!   weights collapsed, usually onto the target learner),
//! - **optimization progress** — the incumbent, this iteration's regret
//!   against it, the incumbent improvement, and the stagnation clock,
//! - **decision** — the stage that produced the point (LHS bootstrap,
//!   ε-greedy exploration, acquisition, or GP-failure fallback),
//! - **surrogate path** — whether the step holds a fitted model and whether
//!   it came from a full, incremental, skipped or fallback fit, mirroring
//!   the `gp.fit.*` counters per iteration,
//! - **failure tallies** — the engine's running crash/timeout/partial/retry
//!   counts plus the proposer's GP-failure fallback count.
//!
//! The data flows from both sides of the loop: the [`crate::engine`] view
//! carries incumbent/failure state, the [`crate::proposer`] carries the
//! fitted surrogate. Everything read is closed-form and deterministic — no
//! RNG streams — so same-seed runs are bit-identical with diagnostics on or
//! off (`tests/determinism.rs` pins it), and the events themselves are
//! timestamp-free so two same-seed diagnostic streams are byte-identical.
//!
//! `core::fleet::health` folds these events into fleet-level digests;
//! [`crate::view`] renders them (`restune report FILE`).

use crate::engine::{HistoryView, IterationRecord};
use crate::resilience::{FailureCounts, FailureKind};
use trace::FieldValue;

/// Event name under which [`TunerHealth`] records are emitted.
pub const HEALTH_EVENT: &str = "tuner.health";

/// How the target surrogate was produced this iteration (the per-iteration
/// view of the `gp.fit.full` / `gp.fit.incremental` / `gp.fit.skipped`
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitPath {
    /// From-scratch fit (with or without a hyperparameter refit).
    Full,
    /// Rank-1 Cholesky append onto the previous iteration's cached model.
    Incremental,
    /// The fit failed; the proposer degraded to seeded uniform exploration.
    Fallback,
    /// No fit: neither the step's stage, its weights nor the next step
    /// read the target model (DESIGN.md §13).
    Skipped,
}

impl FitPath {
    /// Stable string form used in the event field.
    pub fn as_str(self) -> &'static str {
        match self {
            FitPath::Full => "full",
            FitPath::Incremental => "incremental",
            FitPath::Fallback => "fallback",
            FitPath::Skipped => "skipped",
        }
    }

    /// Parses the string form back (see [`FitPath::as_str`]).
    pub fn parse(s: &str) -> Option<FitPath> {
        match s {
            "full" => Some(FitPath::Full),
            "incremental" => Some(FitPath::Incremental),
            "fallback" => Some(FitPath::Fallback),
            "skipped" => Some(FitPath::Skipped),
            _ => None,
        }
    }
}

/// The stage of [`crate::proposer::RestuneProposer`] that produced an
/// iteration's point (DESIGN.md §11). The proposer decides it before the
/// model update; a failed fit overrides it with [`Stage::Fallback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The Latin-hypercube bootstrap (non-meta runs and the w/o-Workload
    /// ablation, for the first `init_iters` iterations of an epoch).
    Lhs,
    /// The stagnation safeguard's ε-greedy uniform point.
    Explore,
    /// The acquisition optimization over the surrogate.
    Acquire,
    /// The GP-failure fallback's seeded uniform point.
    Fallback,
}

impl Stage {
    /// Stable string form used in the event field.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Lhs => "lhs",
            Stage::Explore => "explore",
            Stage::Acquire => "acquire",
            Stage::Fallback => "fallback",
        }
    }

    /// Parses the string form back (see [`Stage::as_str`]).
    pub fn parse(s: &str) -> Option<Stage> {
        match s {
            "lhs" => Some(Stage::Lhs),
            "explore" => Some(Stage::Explore),
            "acquire" => Some(Stage::Acquire),
            "fallback" => Some(Stage::Fallback),
            _ => None,
        }
    }
}

/// Drift/warm-restart facts carried by the health event once a session's
/// [`DriftController`](crate::drift::DriftController) has executed at least
/// one restart (DESIGN.md §16). Absent (`None`) until then, so static
/// sessions' event streams stay byte-identical to pre-drift builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDiag {
    /// Current tuning epoch (1 after the first restart).
    pub epoch: usize,
    /// Warm restarts executed so far.
    pub restarts: u64,
    /// Pre-drift epochs sealed into the repository so far.
    pub sealed_tasks: usize,
    /// Total-variation score of the detection that started this epoch.
    pub last_score: f64,
}

/// Shannon entropy (nats) of a weight vector, normalized defensively so it
/// tolerates vectors that do not sum exactly to one. `None` when no positive
/// mass exists.
pub fn weight_entropy(weights: &[f64]) -> Option<f64> {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut h = 0.0;
    for w in weights {
        if w.is_finite() && *w > 0.0 {
            let p = w / total;
            h -= p * p.ln();
        }
    }
    Some(h)
}

/// One iteration's model-quality summary (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TunerHealth {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Raw objective this iteration observed.
    pub objective: f64,
    /// Whether the observation met the SLA.
    pub feasible: bool,
    /// Whether the observation is a synthetic failure penalty
    /// (crash/timeout — DESIGN.md §9).
    pub penalized: bool,
    /// Best feasible objective after this iteration.
    pub incumbent: f64,
    /// `objective − incumbent`: how far this iteration landed from the best
    /// seen (0 on improving iterations, for a minimized objective).
    pub regret: f64,
    /// Incumbent improvement this iteration (previous incumbent − new
    /// incumbent; positive on improvement).
    pub improvement: f64,
    /// Iterations since the incumbent last moved (0 right after a move).
    pub since_improvement: usize,
    /// The stage that produced the iteration's point.
    pub stage: Stage,
    /// How the target surrogate was fitted.
    pub fit_path: FitPath,
    /// GP-failure exploration fallbacks taken so far in this session.
    pub fallbacks: u64,
    /// The engine's running failure/retry tallies, including this iteration.
    pub failures: FailureCounts,
    /// Ensemble weights at recommendation time (base learners..., target).
    pub weights: Option<Vec<f64>>,
    /// Shannon entropy of the weights, when present.
    pub weight_entropy: Option<f64>,
    /// LOO calibration of the objective surrogate, in standardized-target
    /// units (absent on fallback iterations and when no model is held).
    pub calibration: Option<gp::Calibration>,
    /// Drift/warm-restart facts (absent until the first restart).
    pub drift: Option<DriftDiag>,
}

impl TunerHealth {
    /// Builds the summary for the iteration `record` just evaluated (not yet
    /// committed: `view.history` excludes it). The proposer supplies the
    /// surrogate-side facts; the engine's `view` and `record` supply the
    /// optimization- and failure-side facts.
    #[allow(clippy::too_many_arguments)]
    pub fn collect(
        view: &HistoryView<'_>,
        record: &IterationRecord,
        stage: Stage,
        fit_path: FitPath,
        fallbacks: u64,
        calibration: Option<gp::Calibration>,
        drift: Option<DriftDiag>,
    ) -> TunerHealth {
        // Improvement is measured within the current epoch: right after a
        // warm restart the previous incumbent is the fresh default, not the
        // sealed epoch's best.
        let prev_incumbent = view.history[view.epoch_start..]
            .last()
            .map(|r| r.best_feasible_objective)
            .unwrap_or(view.default_objective);
        let incumbent = record.best_feasible_objective;
        let improvement = prev_incumbent - incumbent;
        let improved = improvement > 0.0;
        let since_improvement = if improved {
            0
        } else {
            record.iteration.saturating_sub(view.last_improvement)
        };
        let failures = view.failures.including(record.failure, record.retries);
        let weight_entropy = record.weights.as_deref().and_then(weight_entropy);
        TunerHealth {
            iteration: record.iteration,
            objective: record.objective,
            feasible: record.feasible,
            penalized: matches!(
                record.failure,
                Some(FailureKind::Crash) | Some(FailureKind::Timeout)
            ),
            incumbent,
            regret: record.objective - incumbent,
            improvement,
            since_improvement,
            stage,
            fit_path,
            fallbacks,
            failures,
            weights: record.weights.clone(),
            weight_entropy,
            calibration,
            drift,
        }
    }

    /// `"dense"` when the iteration holds a fitted objective surrogate (its
    /// fit path is `Full` or `Incremental`), `"none"` when it holds none:
    /// before the first fit, and after a skipped or failed one.
    pub fn surrogate(&self) -> &'static str {
        match self.fit_path {
            FitPath::Full | FitPath::Incremental => "dense",
            FitPath::Skipped | FitPath::Fallback => "none",
        }
    }

    /// Emits the summary as a [`HEALTH_EVENT`] trace event (no-op while
    /// tracing is disabled).
    pub fn emit(&self) {
        let mut fields: Vec<(&str, FieldValue)> = vec![
            ("iter", self.iteration.into()),
            ("objective", self.objective.into()),
            ("feasible", self.feasible.into()),
            ("penalized", self.penalized.into()),
            ("incumbent", self.incumbent.into()),
            ("regret", self.regret.into()),
            ("improvement", self.improvement.into()),
            ("since_improvement", self.since_improvement.into()),
            ("stage", self.stage.as_str().into()),
            ("fit_path", self.fit_path.as_str().into()),
            ("surrogate", self.surrogate().into()),
            ("fallbacks", self.fallbacks.into()),
            ("crashes", self.failures.crashes.into()),
            ("timeouts", self.failures.timeouts.into()),
            ("partials", self.failures.partials.into()),
            ("retries", self.failures.retries.into()),
        ];
        if let Some(w) = &self.weights {
            // Comma-joined shortest-round-trip floats: the vector's length
            // varies per session, so it travels as one string field.
            let joined =
                w.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(",");
            fields.push(("weights", joined.into()));
        }
        if let Some(h) = self.weight_entropy {
            fields.push(("weight_entropy", h.into()));
        }
        if let Some(c) = &self.calibration {
            fields.push(("calib_n", c.n.into()));
            fields.push(("z_mean", c.mean_abs_z.into()));
            fields.push(("z_max", c.max_abs_z.into()));
            fields.push(("loo_nll", c.loo_nll.into()));
            fields.push(("cov_1s", c.coverage_1s.into()));
            fields.push(("cov_2s", c.coverage_2s.into()));
        }
        if let Some(d) = &self.drift {
            fields.push(("drift_epoch", d.epoch.into()));
            fields.push(("drift_restarts", d.restarts.into()));
            fields.push(("drift_sealed", d.sealed_tasks.into()));
            fields.push(("drift_score", d.last_score.into()));
        }
        trace::event(HEALTH_EVENT, fields);
    }

    /// Reconstructs a summary from a [`HEALTH_EVENT`] event (e.g. out of a
    /// JSONL snapshot). Returns `None` for events of a different name or
    /// missing the iteration index; absent optional blocks stay `None`.
    pub fn from_event(ev: &trace::Event) -> Option<TunerHealth> {
        if ev.name != HEALTH_EVENT {
            return None;
        }
        let iteration = ev.int("iter")? as usize;
        let weights: Option<Vec<f64>> = ev.str("weights").map(|s| {
            s.split(',').filter_map(|t| t.parse::<f64>().ok()).collect()
        });
        let calibration = ev.int("calib_n").map(|n| gp::Calibration {
            n: n as usize,
            mean_abs_z: ev.f64("z_mean").unwrap_or(0.0),
            max_abs_z: ev.f64("z_max").unwrap_or(0.0),
            loo_nll: ev.f64("loo_nll").unwrap_or(0.0),
            coverage_1s: ev.f64("cov_1s").unwrap_or(0.0),
            coverage_2s: ev.f64("cov_2s").unwrap_or(0.0),
        });
        let drift = ev.int("drift_epoch").map(|e| DriftDiag {
            epoch: e as usize,
            restarts: ev.int("drift_restarts").unwrap_or(0) as u64,
            sealed_tasks: ev.int("drift_sealed").unwrap_or(0) as usize,
            last_score: ev.f64("drift_score").unwrap_or(0.0),
        });
        Some(TunerHealth {
            iteration,
            objective: ev.f64("objective").unwrap_or(0.0),
            feasible: ev.int("feasible").unwrap_or(0) != 0,
            penalized: ev.int("penalized").unwrap_or(0) != 0,
            incumbent: ev.f64("incumbent").unwrap_or(0.0),
            regret: ev.f64("regret").unwrap_or(0.0),
            improvement: ev.f64("improvement").unwrap_or(0.0),
            since_improvement: ev.int("since_improvement").unwrap_or(0) as usize,
            stage: ev.str("stage").and_then(Stage::parse).unwrap_or(Stage::Acquire),
            fit_path: ev
                .str("fit_path")
                .and_then(FitPath::parse)
                .unwrap_or(FitPath::Full),
            fallbacks: ev.int("fallbacks").unwrap_or(0) as u64,
            failures: FailureCounts {
                crashes: ev.int("crashes").unwrap_or(0) as usize,
                timeouts: ev.int("timeouts").unwrap_or(0) as usize,
                partials: ev.int("partials").unwrap_or(0) as usize,
                retries: ev.int("retries").unwrap_or(0) as usize,
            },
            weights,
            weight_entropy: ev.f64("weight_entropy"),
            calibration,
            drift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_path_round_trips_through_strings() {
        for p in [FitPath::Full, FitPath::Incremental, FitPath::Fallback, FitPath::Skipped] {
            assert_eq!(FitPath::parse(p.as_str()), Some(p));
        }
        assert_eq!(FitPath::parse("warp"), None);
    }

    #[test]
    fn stage_round_trips_through_strings() {
        for s in [Stage::Lhs, Stage::Explore, Stage::Acquire, Stage::Fallback] {
            assert_eq!(Stage::parse(s.as_str()), Some(s));
        }
        assert_eq!(Stage::parse("warp"), None);
    }

    #[test]
    fn entropy_of_collapsed_and_uniform_weights() {
        // All mass on one learner: zero entropy.
        assert_eq!(weight_entropy(&[0.0, 1.0, 0.0]), Some(0.0));
        // Uniform over 4: ln 4.
        let h = weight_entropy(&[0.25; 4]).unwrap();
        assert!((h - 4.0f64.ln()).abs() < 1e-12);
        // Degenerate vectors have no defined entropy.
        assert_eq!(weight_entropy(&[0.0, 0.0]), None);
        assert_eq!(weight_entropy(&[]), None);
        // Non-finite entries are ignored, not propagated.
        assert_eq!(weight_entropy(&[f64::NAN, 1.0]), Some(0.0));
    }
}

//! The shared evaluation engine (paper Fig. 5's apply-and-replay evaluator):
//! one apply → replay-with-retry → observe → record path that ResTune and
//! every baseline run through, so failure penalties, incumbent tracking,
//! convergence detection, and outcome rendering can never drift between
//! methods (§7 compares them on the *same* harness).
//!
//! The engine owns everything downstream of a proposed point: configuration
//! apply, the retry policy, the crash/timeout penalty observation, the
//! observed data columns the surrogates train on, history/incumbent/failure
//! bookkeeping, the §4 convergence criterion, and [`TuningOutcome`]
//! rendering. What point to evaluate next is the [`crate::driver::Proposer`]'s
//! job; the run loop tying the two together is [`crate::driver::TuningDriver`].

use crate::problem::{SlaConstraints, SpaceInfo, TuningProblem};
use crate::repository::{TaskObservation, TaskRecord};
use crate::resilience::{
    evaluate_with_retry, failure_penalty, penalty_observation, FailureCounts, FailureKind,
};
use crate::tuner::TuningEnvironment;
use dbsim::{Configuration, EvalOutcome, Observation};

/// Wall-clock breakdown of a single iteration (Table 3's rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// Meta-data processing (scale unification, meta-feature handling).
    pub meta_data_processing_s: f64,
    /// Model update (GP fits + weight learning).
    pub model_update_s: f64,
    /// Subcomponent of `model_update_s`: fitting the target's three metric
    /// GPs.
    pub gp_fit_s: f64,
    /// Subcomponent of `model_update_s`: ensemble weight learning (static
    /// kernel weights or ranking-loss posterior sampling).
    pub weight_update_s: f64,
    /// Knob recommendation (acquisition optimization).
    pub recommendation_s: f64,
    /// Target workload replay (simulated seconds).
    pub replay_s: f64,
}

impl IterationTiming {
    /// Total iteration time. `gp_fit_s` and `weight_update_s` are already
    /// inside `model_update_s` and do not count again.
    pub fn total_s(&self) -> f64 {
        self.meta_data_processing_s + self.model_update_s + self.recommendation_s + self.replay_s
    }
}

/// One tuning iteration's record.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Normalized point that was evaluated.
    pub point: Vec<f64>,
    /// Raw observation.
    pub observation: Observation,
    /// Raw objective value.
    pub objective: f64,
    /// Whether the observation met the SLA.
    pub feasible: bool,
    /// Running best feasible objective (includes the default as incumbent).
    pub best_feasible_objective: f64,
    /// Ensemble weights at recommendation time (base learners..., target),
    /// when meta-learning was active.
    pub weights: Option<Vec<f64>>,
    /// How the replay failed, if it did. `Crash`/`Timeout` iterations carry a
    /// synthetic penalized observation; `Partial` carries the truncated one.
    pub failure: Option<FailureKind>,
    /// Transient-failure retries this iteration consumed.
    pub retries: usize,
    /// Timing breakdown.
    pub timing: IterationTiming,
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Per-iteration records.
    pub history: Vec<IterationRecord>,
    /// The default-configuration observation that fixed the SLA.
    pub default_observation: Observation,
    /// The SLA constraints.
    pub sla: SlaConstraints,
    /// Best feasible configuration found (the default if nothing better).
    pub best_config: Configuration,
    /// Best feasible objective value.
    pub best_objective: Option<f64>,
    /// Iteration (0-based) at which the best was found; `None` if the default
    /// was never improved.
    pub best_iteration: Option<usize>,
    /// Iteration at which the §4 convergence criterion first held.
    pub converged_at: Option<usize>,
    /// The default configuration's objective value (the tuning baseline).
    pub default_obj_value: f64,
    /// Replay-failure tally across the run.
    pub failures: FailureCounts,
}

impl TuningOutcome {
    /// The best-feasible-objective curve per iteration (what Figures 3–5
    /// plot).
    pub fn best_curve(&self) -> Vec<f64> {
        self.history.iter().map(|r| r.best_feasible_objective).collect()
    }

    /// Relative improvement of the best feasible objective over the default.
    pub fn improvement(&self) -> f64 {
        let default = self.default_obj_value.max(1e-12);
        match self.best_objective {
            Some(best) => (default - best) / default,
            None => 0.0,
        }
    }

    /// The default configuration's objective value.
    pub fn default_objective(&self) -> f64 {
        self.default_obj_value
    }
}

/// The §4 convergence window: a run has converged once no metric moved
/// more than [`CONVERGENCE_EPSILON`] over this many consecutive iterations.
pub const CONVERGENCE_WINDOW: usize = 10;

/// The §4 convergence threshold: 0.5 % relative movement.
pub const CONVERGENCE_EPSILON: f64 = 0.005;

/// Why [`EvalEngine::seed_history`] rejected a point. A rejected tuple
/// leaves the history unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeedError {
    /// The point's length is not the search-space dimensionality.
    DimensionMismatch { expected: usize, found: usize },
    /// Coordinate `index` lies outside `[0, 1]` (NaN included).
    OutOfCube { index: usize, value: f64 },
}

impl std::fmt::Display for SeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeedError::DimensionMismatch { expected, found } => {
                write!(f, "seeded point has {found} coordinates, the search space {expected}")
            }
            SeedError::OutOfCube { index, value } => {
                write!(f, "seeded coordinate {index} is {value}, outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for SeedError {}

/// A read-only view over the engine's observed state — everything a
/// [`crate::driver::Proposer`] may condition its next point on.
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    /// Problem definition (knob space, objective, SLA fixed from the
    /// default observation).
    pub problem: &'a TuningProblem,
    /// The default observation that fixed the SLA.
    pub default_observation: &'a Observation,
    /// Normalized default point.
    pub default_point: &'a [f64],
    /// The default configuration's objective value.
    pub default_objective: f64,
    /// Observed points (default first iff the engine seeds it).
    pub points: &'a [Vec<f64>],
    /// Raw objective values per point.
    pub res: &'a [f64],
    /// Raw throughput per point.
    pub tps: &'a [f64],
    /// Raw p99 latency per point.
    pub lat: &'a [f64],
    /// Internal metric vectors per *evaluated* point (externally seeded
    /// tuples carry an empty placeholder).
    pub metrics: &'a [Vec<f64>],
    /// Committed iteration records.
    pub history: &'a [IterationRecord],
    /// Best feasible incumbent: (iteration, objective, point). Seeded with
    /// the default when the engine seeds the default observation.
    pub best: Option<&'a (usize, f64, Vec<f64>)>,
    /// Iteration of the most recent incumbent improvement.
    pub last_improvement: usize,
    /// Running failure/retry tallies across committed iterations
    /// (DESIGN.md §9) — the engine's contribution to the per-iteration
    /// health event (`core::diag`).
    pub failures: FailureCounts,
    /// First iteration of the current tuning epoch (0 until a warm restart;
    /// see [`EvalEngine::warm_restart`]). Proposers gate their
    /// iteration-dependent schedules on `iter - epoch_start`, so a restarted
    /// session re-enters its bootstrap instead of inheriting a stale clock.
    pub epoch_start: usize,
}

/// The shared evaluate-and-record engine.
///
/// Failure semantics (DESIGN.md §9): transient faults retry with backoff,
/// crash/timeout records an infeasible penalized observation, and only full
/// replays update the penalty basis or certify a new incumbent.
pub struct EvalEngine {
    env: TuningEnvironment,
    problem: TuningProblem,
    default_observation: Observation,
    default_point: Vec<f64>,
    default_objective: f64,
    /// Observed data columns (the surrogates' training set).
    points: Vec<Vec<f64>>,
    res: Vec<f64>,
    tps: Vec<f64>,
    lat: Vec<f64>,
    metrics: Vec<Vec<f64>>,
    history: Vec<IterationRecord>,
    best: Option<(usize, f64, Vec<f64>)>,
    last_improvement: usize,
    converged_at: Option<usize>,
    failures: FailureCounts,
    /// Worst/best objective over *full* (non-synthetic) observations — the
    /// basis for the failure penalty, kept separate from `res` so penalty
    /// values never compound on each other.
    obs_worst: f64,
    obs_best: f64,
    seed_default: bool,
    /// First iteration of the current epoch (0 until a warm restart).
    epoch_start: usize,
}

impl EvalEngine {
    /// Evaluates the default configuration, fixes the SLA, and prepares the
    /// bookkeeping. `seed_default_observation` makes the default observation
    /// the first training point and the starting incumbent: ResTune trains on
    /// it, while the GP/DDPG baselines keep it out of their columns and
    /// merge it explicitly where their published algorithms do.
    pub fn new(mut env: TuningEnvironment, seed_default_observation: bool) -> Self {
        let default_observation = env.dbms.evaluate(&Configuration::dba_default());
        let sla = SlaConstraints::from_default_observation(&default_observation);
        // With a transform installed, everything proposer-facing — the
        // problem dimension, the default point, history, surrogates — lives
        // in the low-dimensional search space; only the two lift seams below
        // (evaluate, render) ever see native coordinates.
        let space = match &env.space {
            Some(t) => SpaceInfo { dim: t.dim(), id: t.id() },
            None => SpaceInfo::native(env.knob_set.dim()),
        };
        let problem = TuningProblem {
            knob_set: env.knob_set.clone(),
            space,
            resource: env.resource,
            constraints: sla,
        };
        let default_point = match &env.space {
            Some(t) => t.restrict(&env.knob_set.default_point()),
            None => env.knob_set.default_point(),
        };
        let default_objective = env.resource.value(&default_observation);
        let mut engine = EvalEngine {
            env,
            problem,
            default_observation,
            default_point,
            default_objective,
            points: Vec::new(),
            res: Vec::new(),
            tps: Vec::new(),
            lat: Vec::new(),
            metrics: Vec::new(),
            history: Vec::new(),
            best: None,
            last_improvement: 0,
            converged_at: None,
            failures: FailureCounts::default(),
            obs_worst: default_objective,
            obs_best: default_objective,
            seed_default: seed_default_observation,
            epoch_start: 0,
        };
        if seed_default_observation {
            // The default observation seeds the model and the incumbent.
            let point = engine.default_point.clone();
            let obs = engine.default_observation.clone();
            engine.push_columns(point.clone(), &obs);
            engine.best = Some((0, default_objective, point));
        }
        engine
    }

    fn push_columns(&mut self, point: Vec<f64>, obs: &Observation) {
        self.points.push(point);
        self.res.push(self.env.resource.value(obs));
        self.tps.push(obs.tps);
        self.lat.push(obs.p99_ms);
        self.metrics.push(obs.internal.to_vec());
    }

    /// Appends an externally collected observation tuple to the surrogate's
    /// training data without consuming a replay — warm-starting from
    /// measurements gathered outside this engine.
    ///
    /// The point must lie in the search space `[0, 1]^dim`, the only region
    /// where the surrogate's kernel stays finite (a coordinate of 1e160
    /// overflows the Matérn distance into a NaN Gram matrix); otherwise the
    /// tuple is rejected and the history is unchanged. The values enter the
    /// model verbatim: a degenerate `res`/`tps`/`lat` (NaN/inf) does not
    /// abort the run but degrades the next recommendations to uniform
    /// exploration until enough clean data accumulates (see DESIGN.md §9).
    pub fn seed_history(
        &mut self,
        point: Vec<f64>,
        res: f64,
        tps: f64,
        lat: f64,
    ) -> Result<(), SeedError> {
        let expected = self.problem.dim();
        if point.len() != expected {
            return Err(SeedError::DimensionMismatch { expected, found: point.len() });
        }
        if let Some((index, &value)) =
            point.iter().enumerate().find(|(_, v)| !(0.0..=1.0).contains(*v))
        {
            return Err(SeedError::OutOfCube { index, value });
        }
        self.points.push(point);
        self.res.push(res);
        self.tps.push(tps);
        self.lat.push(lat);
        self.metrics.push(Vec::new());
        Ok(())
    }

    /// The read-only view proposers condition on.
    pub fn view(&self) -> HistoryView<'_> {
        HistoryView {
            problem: &self.problem,
            default_observation: &self.default_observation,
            default_point: &self.default_point,
            default_objective: self.default_objective,
            points: &self.points,
            res: &self.res,
            tps: &self.tps,
            lat: &self.lat,
            metrics: &self.metrics,
            history: &self.history,
            best: self.best.as_ref(),
            last_improvement: self.last_improvement,
            failures: self.failures,
            epoch_start: self.epoch_start,
        }
    }

    /// Applies and replays `point`, resolving retries and failure penalties,
    /// and returns the iteration's record with the supplied proposal-side
    /// timings plus the simulated replay clock filled in. The record is not
    /// yet part of the history — [`EvalEngine::commit`] it once any
    /// post-evaluation timing (e.g. an RL agent's training step) has been
    /// attributed, so nothing ever patches committed records in place.
    pub fn evaluate(&mut self, proposal: crate::driver::Proposal) -> IterationRecord {
        let iter = self.history.len();
        let crate::driver::Proposal { point, weights, timing } = proposal;
        let config = self
            .problem
            .knob_set
            .to_configuration(&self.lift(&point), &Configuration::dba_default());
        let replay = evaluate_with_retry(&mut self.env.dbms, &config);
        let replay_s = replay.replay_s;
        let retries = replay.retries;
        let failure = FailureKind::from_outcome(&replay.outcome);
        let observation = match replay.outcome {
            EvalOutcome::Ok(obs) => obs,
            EvalOutcome::Partial { observation, .. } => observation,
            // Crash/timeout: no sample came back. Record a finite synthetic
            // observation that is infeasible by construction and penalized
            // above the worst genuine value, so CEI steers away from the
            // region (the penalty encoding of §2, applied to failures).
            EvalOutcome::Crashed { .. } | EvalOutcome::TimedOut { .. } => penalty_observation(
                config.clone(),
                self.env.resource,
                failure_penalty(self.obs_worst, self.obs_best),
                self.problem.constraints.lat_ceiling(),
                replay_s,
            ),
        };
        let objective = self.env.resource.value(&observation);
        let feasible = self.problem.constraints.is_feasible(&observation);
        self.push_columns(point.clone(), &observation);
        if failure.is_none() {
            // Only full replays update the penalty basis and may certify a
            // new incumbent; a truncated sample's SLA reading is not trusted.
            self.obs_worst = self.obs_worst.max(objective);
            self.obs_best = self.obs_best.min(objective);
            if feasible
                && objective
                    < self.best.as_ref().map(|b| b.1).unwrap_or(self.default_objective)
            {
                self.best = Some((iter, objective, point.clone()));
                self.last_improvement = iter;
            }
        }
        self.failures.record(failure, retries);
        IterationRecord {
            iteration: iter,
            point,
            observation,
            objective,
            feasible,
            best_feasible_objective: self
                .best
                .as_ref()
                .map(|b| b.1)
                .unwrap_or(self.default_objective),
            weights,
            failure,
            retries,
            timing: IterationTiming {
                meta_data_processing_s: timing.meta_data_processing_s,
                model_update_s: timing.model_update_s,
                gp_fit_s: timing.gp_fit_s,
                weight_update_s: timing.weight_update_s,
                recommendation_s: timing.recommendation_s,
                replay_s,
            },
        }
    }

    /// Appends a record produced by [`EvalEngine::evaluate`] to the history
    /// and runs the §4 convergence check over the updated tail.
    pub fn commit(&mut self, record: IterationRecord) {
        self.history.push(record);
        self.check_convergence();
    }

    fn check_convergence(&mut self) {
        if self.converged_at.is_some() {
            return;
        }
        let w = CONVERGENCE_WINDOW;
        // Convergence is a property of the current epoch: a warm restart
        // resets the criterion, and pre-restart records never stabilize a
        // post-restart tail.
        let epoch = &self.history[self.epoch_start..];
        if epoch.len() < w + 1 {
            return;
        }
        let eps = CONVERGENCE_EPSILON;
        let tail = &epoch[epoch.len() - w - 1..];
        let within = |get: fn(&IterationRecord) -> f64| {
            let base = get(&tail[0]).abs().max(1e-12);
            tail.iter().all(|r| (get(r) - get(&tail[0])).abs() / base <= eps)
        };
        // §4: resource utilization, throughput and latency all stable.
        if within(|r| r.best_feasible_objective)
            && within(|r| r.observation.tps)
            && within(|r| r.observation.p99_ms)
        {
            self.converged_at = Some(self.history.len() - 1);
        }
    }

    /// Committed iterations.
    pub fn iterations(&self) -> usize {
        self.history.len()
    }

    /// Committed records (a cheap borrow for mid-run inspection).
    pub fn history(&self) -> &[IterationRecord] {
        &self.history
    }

    /// Replay-failure tally so far.
    pub fn failures(&self) -> FailureCounts {
        self.failures
    }

    /// The SLA in force.
    pub fn sla(&self) -> SlaConstraints {
        self.problem.constraints
    }

    /// The problem definition.
    pub fn problem(&self) -> &TuningProblem {
        &self.problem
    }

    /// The tuning environment (DBMS copy, knob set, resource) — what a fleet
    /// needs to label a tenant's task record (`workload@instance`) without
    /// threading that identity separately.
    pub fn environment(&self) -> &TuningEnvironment {
        &self.env
    }

    /// The default observation.
    pub fn default_observation(&self) -> &Observation {
        &self.default_observation
    }

    /// The default configuration's point in *search* coordinates (equal to
    /// the knob set's default point when no transform is installed).
    pub fn default_point(&self) -> &[f64] {
        &self.default_point
    }

    /// Lifts a search-space point into native knob coordinates through the
    /// installed transform (identity when none is installed). Every path
    /// from a proposed point to a `Configuration` goes through here.
    fn lift(&self, point: &[f64]) -> Vec<f64> {
        match &self.env.space {
            Some(t) => {
                trace::count("space.project", 1);
                t.lift(point)
            }
            None => point.to_vec(),
        }
    }

    /// The default configuration's objective value (cheap — no history
    /// clone, unlike rendering a full outcome).
    pub fn default_objective(&self) -> f64 {
        self.default_objective
    }

    /// The current best feasible objective (default if nothing better yet).
    pub fn best_objective(&self) -> f64 {
        self.best.as_ref().map(|b| b.1).unwrap_or(self.default_objective)
    }

    /// Iteration at which the §4 convergence criterion first held.
    pub fn converged_at(&self) -> Option<usize> {
        self.converged_at
    }

    /// First iteration of the current tuning epoch (0 until a warm restart).
    pub fn epoch_start(&self) -> usize {
        self.epoch_start
    }

    /// Renders the **current epoch's** observed history as a [`TaskRecord`]
    /// in the repository's convention: the SLA-anchoring default observation
    /// first, then one observation per committed iteration since
    /// [`EvalEngine::epoch_start`]. Before any warm restart the epoch is the
    /// whole session, which is exactly what a fleet tenant commits on
    /// completion. Every field derives from the deterministic tuning trace,
    /// so the record (and its JSON) is bit-identical across worker counts.
    pub fn to_task_record(&self, task_id: &str, meta_feature: Vec<f64>) -> TaskRecord {
        let resource = self.problem.resource;
        let default = &self.default_observation;
        let epoch = &self.history[self.epoch_start..];
        let mut observations = Vec::with_capacity(epoch.len() + 1);
        observations.push(TaskObservation {
            point: self.default_point.clone(),
            res: resource.value(default),
            tps: default.tps,
            lat: default.p99_ms,
            metrics: default.internal.to_vec(),
        });
        for r in epoch {
            observations.push(TaskObservation {
                point: r.point.clone(),
                res: r.objective,
                tps: r.observation.tps,
                lat: r.observation.p99_ms,
                metrics: r.observation.internal.to_vec(),
            });
        }
        TaskRecord {
            task_id: task_id.to_string(),
            workload: self.env.dbms.workload().name.clone(),
            instance: self.env.dbms.instance(),
            resource,
            knob_names: self.problem.knob_set.names().to_vec(),
            space_id: self.problem.space.id.clone(),
            meta_feature,
            observations,
        }
    }

    /// Executes the engine side of a warm restart after a detected workload
    /// drift (DESIGN.md §16): seals the current epoch's history as a
    /// [`TaskRecord`] (returned so the caller can commit it to a repository),
    /// then starts a fresh epoch against the *drifted* workload — the default
    /// configuration is re-evaluated to re-fix the SLA and the penalty basis,
    /// and the incumbent/convergence bookkeeping resets. The committed
    /// [`IterationRecord`] history and failure tallies are retained, so trace
    /// and diagnostics continuity survives the restart.
    pub fn warm_restart(&mut self, sealed_task_id: &str, meta_feature: Vec<f64>) -> TaskRecord {
        let sealed = self.to_task_record(sealed_task_id, meta_feature);
        self.epoch_start = self.history.len();
        self.points.clear();
        self.res.clear();
        self.tps.clear();
        self.lat.clear();
        self.metrics.clear();
        // Re-anchor against the drifted workload: the default observation is
        // the epoch's SLA and scale reference, exactly as at construction.
        let default_observation = self.env.dbms.evaluate(&Configuration::dba_default());
        self.problem.constraints = SlaConstraints::from_default_observation(&default_observation);
        self.default_objective = self.env.resource.value(&default_observation);
        self.default_observation = default_observation;
        self.best = None;
        self.last_improvement = self.epoch_start;
        self.converged_at = None;
        self.obs_worst = self.default_objective;
        self.obs_best = self.default_objective;
        if self.seed_default {
            let point = self.default_point.clone();
            let obs = self.default_observation.clone();
            self.push_columns(point.clone(), &obs);
            self.best = Some((self.epoch_start, self.default_objective, point));
        }
        trace::count("drift.epochs.sealed", 1);
        sealed
    }

    fn render_outcome(&self, history: Vec<IterationRecord>) -> TuningOutcome {
        let (best_iteration, best_objective, best_config) = match &self.best {
            Some((it, obj, point)) => {
                let config = self
                    .problem
                    .knob_set
                    .to_configuration(&self.lift(point), &Configuration::dba_default());
                // A seeded incumbent that never improved means "the default";
                // report no improving iteration then.
                if (obj - self.default_objective).abs() < 1e-12 && point == &self.default_point {
                    (None, Some(*obj), config)
                } else {
                    (Some(*it), Some(*obj), config)
                }
            }
            None => (None, Some(self.default_objective), Configuration::dba_default()),
        };
        TuningOutcome {
            history,
            default_observation: self.default_observation.clone(),
            sla: self.problem.constraints,
            best_config,
            best_objective,
            best_iteration,
            converged_at: self.converged_at,
            default_obj_value: self.default_objective,
            failures: self.failures,
        }
    }

    /// Summarizes what has been observed so far (clones the history — use
    /// [`EvalEngine::into_outcome`] at end of run, or the cheap accessors
    /// above for mid-run reads).
    pub fn outcome(&self) -> TuningOutcome {
        self.render_outcome(self.history.clone())
    }

    /// Consumes the engine into its final outcome without cloning the
    /// history.
    pub fn into_outcome(mut self) -> TuningOutcome {
        let history = std::mem::take(&mut self.history);
        self.render_outcome(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Proposal;
    use crate::problem::ResourceKind;
    use dbsim::{FaultPlan, InstanceType, KnobSet, WorkloadSpec};

    fn env() -> TuningEnvironment {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(1)
            .build()
    }

    fn eval(engine: &mut EvalEngine, point: Vec<f64>) {
        let record = engine.evaluate(Proposal::point(point));
        engine.commit(record);
    }

    #[test]
    fn tracks_best_feasible_only() {
        let mut engine = EvalEngine::new(env(), false);
        // A throttled point: low CPU but infeasible.
        let throttled = vec![1.0 / 128.0, 0.0, 0.0];
        eval(&mut engine, throttled);
        let record = &engine.history()[0];
        assert!(!record.feasible, "throttled config should violate the SLA");
        assert_eq!(engine.best_objective(), engine.default_objective());
    }

    #[test]
    fn good_point_becomes_incumbent() {
        let mut engine = EvalEngine::new(env(), false);
        let good = vec![13.0 / 128.0, 0.0, 0.3];
        eval(&mut engine, good);
        let o = engine.into_outcome();
        assert_eq!(o.best_iteration, Some(0));
        assert!(o.best_objective.unwrap() < o.default_obj_value);
    }

    #[test]
    fn outcome_history_matches_iterations() {
        let mut engine = EvalEngine::new(env(), false);
        eval(&mut engine, vec![0.5, 0.5, 0.5]);
        eval(&mut engine, vec![0.2, 0.2, 0.2]);
        assert_eq!(engine.iterations(), 2);
        assert_eq!(engine.outcome().history.len(), 2);
        // The consuming render agrees with the borrowing one.
        let snapshot = engine.outcome();
        let consumed = engine.into_outcome();
        assert_eq!(snapshot.history.len(), consumed.history.len());
        assert_eq!(snapshot.best_objective, consumed.best_objective);
        assert_eq!(snapshot.best_iteration, consumed.best_iteration);
        assert_eq!(snapshot.converged_at, consumed.converged_at);
    }

    #[test]
    fn failed_replays_are_penalized_and_never_become_incumbents() {
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(2)
            // A rate high enough that some replays exhaust their retries.
            .fault_plan(FaultPlan::none().with_transient_rate(0.8).with_seed(9))
            .build();
        let mut engine = EvalEngine::new(env, false);
        let good = vec![13.0 / 128.0, 0.0, 0.3];
        for _ in 0..12 {
            eval(&mut engine, good.clone());
        }
        let o = engine.into_outcome();
        assert!(o.failures.failed_iterations() > 0, "80% fault rate must fail some");
        for r in &o.history {
            if matches!(r.failure, Some(FailureKind::Crash) | Some(FailureKind::Timeout)) {
                assert!(!r.feasible);
                assert!(r.objective.is_finite() && r.objective > o.default_obj_value);
                assert!(Some(r.iteration) != o.best_iteration);
            }
        }
        // The good point still becomes the incumbent on a successful replay.
        assert!(o.best_objective.unwrap() < o.default_obj_value);
    }

    #[test]
    fn convergence_is_detected_without_a_session() {
        // The §4 criterion now lives in the shared engine, so any strategy —
        // here a fixed point — reports `converged_at` instead of `None`.
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(3)
            .noise(0.0)
            .build();
        let mut engine = EvalEngine::new(env, false);
        for _ in 0..CONVERGENCE_WINDOW + 2 {
            eval(&mut engine, vec![0.4, 0.4, 0.4]);
        }
        let o = engine.into_outcome();
        // Eleven identical noiseless observations satisfy the 10-iteration
        // window.
        assert_eq!(o.converged_at, Some(10));
    }

    #[test]
    fn seeded_default_engine_starts_from_the_default_incumbent() {
        let engine = EvalEngine::new(env(), true);
        // The default observation is the first training point and the
        // starting incumbent.
        let view = engine.view();
        assert_eq!(view.points.len(), 1);
        assert_eq!(view.points[0], view.default_point);
        assert_eq!(view.best.map(|b| b.1), Some(view.default_objective));
        // Rendered as "no improving iteration yet".
        let o = engine.into_outcome();
        assert_eq!(o.best_iteration, None);
        assert_eq!(o.best_objective, Some(o.default_obj_value));
    }
}

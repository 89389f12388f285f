//! Failure-aware evaluation: the retry policy, the failure taxonomy tuning
//! records carry, and the penalized synthetic observation a failed replay
//! contributes to the surrogate.
//!
//! The loop's contract (DESIGN.md §9): transient faults are retried with
//! exponential backoff (the simulated clock charges every failed attempt
//! plus the backoff); structural faults — deterministic in the configuration
//! — fail immediately; a crash or timeout that survives its retry budget is
//! recorded as an *infeasible penalized observation* so CEI steers away from
//! the offending region, exactly like the penalty encoding the paper's §2
//! discusses for constraint handling.

use crate::problem::ResourceKind;
use dbsim::{Configuration, EvalOutcome, InternalMetrics, Observation, ResourceUsage, SimulatedDbms};

/// Why an iteration's replay did not produce a full observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The server died during replay (OOM or a transient crash that
    /// exhausted its retries). No observation was collected.
    Crash,
    /// The replay window missed its deadline. No observation was collected.
    Timeout,
    /// The replay returned a truncated sample; the observation was accepted
    /// into the model but is not incumbent-eligible.
    Partial,
}

impl FailureKind {
    /// Classifies a resolved evaluation outcome.
    pub fn from_outcome(outcome: &EvalOutcome) -> Option<FailureKind> {
        match outcome {
            EvalOutcome::Ok(_) => None,
            EvalOutcome::Crashed { .. } => Some(FailureKind::Crash),
            EvalOutcome::TimedOut { .. } => Some(FailureKind::Timeout),
            EvalOutcome::Partial { .. } => Some(FailureKind::Partial),
        }
    }
}

/// Failure tally over a tuning run (carried by `TuningOutcome`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureCounts {
    /// Iterations whose replay ended in a crash.
    pub crashes: usize,
    /// Iterations whose replay timed out.
    pub timeouts: usize,
    /// Iterations that accepted a truncated (partial) sample.
    pub partials: usize,
    /// Total retry attempts across all iterations.
    pub retries: usize,
}

impl FailureCounts {
    /// Records one resolved iteration. Mirrors the tally into the trace
    /// counters (`replay.crash` / `replay.timeout` / `replay.partial` /
    /// `replay.retries`) so fault tables render from the trace alone.
    pub fn record(&mut self, failure: Option<FailureKind>, retries: usize) {
        self.retries += retries;
        trace::count("replay.retries", retries as u64);
        match failure {
            Some(FailureKind::Crash) => {
                self.crashes += 1;
                trace::count("replay.crash", 1);
            }
            Some(FailureKind::Timeout) => {
                self.timeouts += 1;
                trace::count("replay.timeout", 1);
            }
            Some(FailureKind::Partial) => {
                self.partials += 1;
                trace::count("replay.partial", 1);
            }
            None => {}
        }
    }

    /// Iterations that did not complete a full replay.
    pub fn failed_iterations(&self) -> usize {
        self.crashes + self.timeouts + self.partials
    }

    /// The tally with one more resolved iteration folded in — *without* the
    /// trace-counter mirroring of [`FailureCounts::record`]. Diagnostics
    /// (`core::diag`) use this to preview the post-commit tally for a record
    /// the engine has not committed yet; mirroring here would double-count
    /// the `replay.*` counters when the engine records the same iteration.
    pub fn including(mut self, failure: Option<FailureKind>, retries: usize) -> FailureCounts {
        self.retries += retries;
        match failure {
            Some(FailureKind::Crash) => self.crashes += 1,
            Some(FailureKind::Timeout) => self.timeouts += 1,
            Some(FailureKind::Partial) => self.partials += 1,
            None => {}
        }
        self
    }
}

/// Retry attempts a transient replay failure gets after the first one
/// (paper-scale replays run minutes, so the budget stays small).
pub const MAX_RETRIES: usize = 2;

/// Backoff before the first retry, in simulated seconds; it doubles per
/// retry and is charged to the replay clock.
pub const RETRY_BACKOFF_S: f64 = 5.0;

/// A resolved (post-retry) evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// The final outcome after retries.
    pub outcome: EvalOutcome,
    /// Retry attempts consumed.
    pub retries: usize,
    /// Total simulated wall-clock charged: every attempt plus backoff.
    pub replay_s: f64,
}

/// Evaluates `config`, retrying transient failures up to [`MAX_RETRIES`]
/// times with a backoff that starts at [`RETRY_BACKOFF_S`].
///
/// Structural faults (OOM, throughput-collapse timeout) are deterministic in
/// the configuration, so they return immediately without burning the retry
/// budget. Each attempt consumes one evaluation index on the DBMS, which
/// keeps the fault schedule (and thus the whole run) a pure function of the
/// seeds regardless of how many retries occur.
pub fn evaluate_with_retry(dbms: &mut SimulatedDbms, config: &Configuration) -> ReplayResult {
    // The span measures harness wall-clock; the *simulated* replay seconds
    // (the paper's cost metric, and part of the determinism fingerprint)
    // are recorded separately as the `replay.sim_s` histogram.
    let span = trace::span!("replay");
    let mut retries = 0;
    let mut replay_s = 0.0;
    let mut backoff = RETRY_BACKOFF_S;
    let result = loop {
        let outcome = dbms.evaluate_outcome(config);
        replay_s += outcome.replay_seconds();
        if outcome.is_ok() || !outcome.is_transient() || retries >= MAX_RETRIES {
            break ReplayResult { outcome, retries, replay_s };
        }
        retries += 1;
        replay_s += backoff;
        backoff *= 2.0;
    };
    trace::observe("replay.sim_s", result.replay_s);
    let _ = span.finish_s();
    result
}

/// The objective value a crashed/timed-out replay records: safely above the
/// worst *genuinely observed* value, scaled by the observed spread. Callers
/// must compute `obs_worst`/`obs_best` over full observations only, so
/// penalties never compound on each other. One shared formula — the loop in
/// `engine.rs` and the penalty-EI surrogate encoding both call this, so the
/// encodings can never drift apart.
pub fn failure_penalty(obs_worst: f64, obs_best: f64) -> f64 {
    obs_worst + 0.3 * (obs_worst - obs_best).max(1.0)
}

/// The synthetic observation a crashed/timed-out replay contributes.
///
/// Every field is finite so downstream code (serialization, convergence
/// checks, GP fits) never sees NaN/inf, and the encoding guarantees the
/// observation is *maximally discouraging*: the objective resource reads
/// `penalty` (above the worst genuinely observed value), throughput is zero
/// and latency sits far beyond the ceiling, so `SlaConstraints::is_feasible`
/// always rejects it and CEI's constraint model learns the region violates.
pub fn penalty_observation(
    config: Configuration,
    resource: ResourceKind,
    penalty: f64,
    lat_ceiling: f64,
    replay_seconds: f64,
) -> Observation {
    let mut resources = ResourceUsage { cpu_pct: 0.0, mem_gb: 0.0, io_mbps: 0.0, iops: 0.0 };
    match resource {
        ResourceKind::Cpu => resources.cpu_pct = penalty,
        ResourceKind::Memory => resources.mem_gb = penalty,
        ResourceKind::IoBps => resources.io_mbps = penalty,
        ResourceKind::Iops => resources.iops = penalty,
    }
    Observation {
        config,
        resources,
        tps: 0.0,
        p99_ms: (10.0 * lat_ceiling).max(1.0),
        internal: InternalMetrics::zeroed(),
        replay_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SlaConstraints;
    use dbsim::{FaultPlan, InstanceType, WorkloadSpec};

    #[test]
    fn structural_faults_are_not_retried() {
        let mut dbms = SimulatedDbms::new(InstanceType::B, WorkloadSpec::twitter(), 1)
            .with_fault_plan(FaultPlan::structural());
        let hog = Configuration::dba_default()
            .with("innodb_buffer_pool_frac", 0.85)
            .with("sort_buffer_size_kb", 65536.0)
            .with("join_buffer_size_kb", 65536.0);
        let r = evaluate_with_retry(&mut dbms, &hog);
        assert_eq!(r.retries, 0, "an OOM is deterministic; retrying is pointless");
        assert_eq!(FailureKind::from_outcome(&r.outcome), Some(FailureKind::Crash));
        assert_eq!(dbms.evaluations(), 1);
    }

    #[test]
    fn transient_failures_retry_and_usually_recover() {
        let mut dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 1)
            .with_fault_plan(FaultPlan::none().with_transient_rate(0.2).with_seed(7));
        let mut resolved_ok = 0;
        let mut total_retries = 0;
        for _ in 0..60 {
            let r = evaluate_with_retry(&mut dbms, &Configuration::dba_default());
            total_retries += r.retries;
            if r.outcome.is_ok() {
                resolved_ok += 1;
            }
            assert!(r.replay_s > 0.0);
        }
        assert!(total_retries > 0, "a 20% rate over 60 evals should trigger retries");
        // P(three consecutive faults) = 0.8% — nearly everything resolves.
        assert!(resolved_ok >= 55, "only {resolved_ok}/60 resolved");
    }

    #[test]
    fn retry_charges_failed_attempts_and_backoff() {
        // Force every attempt to fail so the retry budget is exhausted.
        let mut dbms = SimulatedDbms::new(InstanceType::A, WorkloadSpec::twitter(), 1)
            .with_fault_plan(FaultPlan::none().with_transient_rate(1.0).with_seed(1));
        let r = evaluate_with_retry(&mut dbms, &Configuration::dba_default());
        assert!(!r.outcome.is_ok());
        // Partials resolve on acceptance; crashes/timeouts exhaust retries.
        if !matches!(r.outcome, EvalOutcome::Partial { .. }) {
            assert_eq!(r.retries, MAX_RETRIES);
            assert!(r.replay_s > 5.0 + 10.0, "backoff must be charged: {}", r.replay_s);
            assert_eq!(dbms.evaluations(), 3, "each attempt consumes an eval index");
        }
    }

    #[test]
    fn failure_penalty_sits_above_the_worst_observation() {
        assert_eq!(failure_penalty(80.0, 20.0), 80.0 + 0.3 * 60.0);
        // A degenerate spread still clears the worst value by a margin.
        assert_eq!(failure_penalty(50.0, 50.0), 50.3);
        assert!(failure_penalty(120.0, 40.0) > 120.0);
    }

    #[test]
    fn penalty_observation_is_finite_and_always_infeasible() {
        let obs = penalty_observation(
            Configuration::dba_default(),
            ResourceKind::Cpu,
            120.0,
            10.0,
            240.0,
        );
        assert_eq!(ResourceKind::Cpu.value(&obs), 120.0);
        assert!(obs.tps == 0.0 && obs.p99_ms.is_finite());
        assert!(obs.internal.to_vec().iter().all(|v| v.is_finite()));
        let sla = SlaConstraints { min_tps: 100.0, max_p99_ms: 10.0, tolerance: 0.05 };
        assert!(!sla.is_feasible(&obs));
        // Every resource kind routes the penalty to its own field.
        for kind in [ResourceKind::Memory, ResourceKind::IoBps, ResourceKind::Iops] {
            let o = penalty_observation(Configuration::dba_default(), kind, 9.5, 10.0, 1.0);
            assert_eq!(kind.value(&o), 9.5);
        }
    }
}

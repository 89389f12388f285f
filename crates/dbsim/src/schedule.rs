//! Deterministic workload schedules: the workload as a *dynamic* entity.
//!
//! A [`WorkloadSchedule`] evolves a session's base [`WorkloadSpec`] as a pure
//! function of the evaluation index: piecewise phases (a new mix takes over
//! at a known point) joined by smooth drifts (request rate, read/write ratio,
//! and per-query shape interpolate over a ramp window). Attached to a
//! [`crate::SimulatedDbms`] via [`crate::SimulatedDbms::with_schedule`], the
//! effective workload is recomputed before every evaluation — so the same
//! seeded session replays the same drifting traffic bit-for-bit, on any
//! machine, at any worker count.
//!
//! Determinism contract: `effective(base, idx)` reads no ambient state and
//! draws no RNG at query time. The only randomness is *construction-time*
//! jitter in the canned builders, seeded through the shared
//! [`crate::seed::domain_rng`] helper under [`crate::seed::SCHEDULE_DOMAIN`]
//! so schedule seeds can never alias fleet-tenant jitter seeds.

use crate::seed::{domain_rng, SCHEDULE_DOMAIN};
use crate::workload::WorkloadSpec;
use xrand::RngExt;

/// One scheduled transition: from whatever workload precedes it toward
/// `spec`, starting at eval index `start` and interpolating over `ramp`
/// evaluations (`ramp == 0` switches instantaneously).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPhase {
    /// Eval index at which the transition begins.
    pub start: u64,
    /// Evaluations over which the continuous fields interpolate.
    pub ramp: u64,
    /// The workload in effect once the transition completes.
    pub spec: WorkloadSpec,
}

/// A deterministic, seeded schedule of workload phases and drifts.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSchedule {
    seed: u64,
    phases: Vec<DriftPhase>,
}

/// Cubic smoothstep: C¹-continuous ramp from 0 to 1.
fn smoothstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Interpolates the continuous workload fields `t` of the way from `a` to
/// `b`; discrete fields (family, name, table count) switch at the midpoint.
fn blend(a: &WorkloadSpec, b: &WorkloadSpec, t: f64) -> WorkloadSpec {
    let late = t >= 0.5;
    let disc = if late { b } else { a };
    WorkloadSpec {
        name: disc.name.clone(),
        kind: disc.kind,
        tables: disc.tables,
        threads: lerp(a.threads as f64, b.threads as f64, t).round().max(1.0) as u32,
        data_gb: lerp(a.data_gb, b.data_gb, t),
        read_parts: lerp(a.read_parts, b.read_parts, t),
        write_parts: lerp(a.write_parts, b.write_parts, t),
        // A rate-bounded and a closed-loop workload have no common axis to
        // interpolate on; the open/closed decision switches with the family.
        request_rate: match (a.request_rate, b.request_rate) {
            (Some(ra), Some(rb)) => Some(lerp(ra, rb, t)),
            _ => disc.request_rate,
        },
        think_time_ms: lerp(a.think_time_ms, b.think_time_ms, t),
        queries_per_txn: lerp(a.queries_per_txn, b.queries_per_txn, t),
        base_cpu_us_per_query: lerp(a.base_cpu_us_per_query, b.base_cpu_us_per_query, t),
        pages_per_query: lerp(a.pages_per_query, b.pages_per_query, t),
        lock_contention_base: lerp(a.lock_contention_base, b.lock_contention_base, t),
        skew: lerp(a.skew, b.skew, t),
        tmp_table_frac: lerp(a.tmp_table_frac, b.tmp_table_frac, t),
        log_bytes_per_txn: lerp(a.log_bytes_per_txn, b.log_bytes_per_txn, t),
    }
}

impl WorkloadSchedule {
    /// An empty (static) schedule; add transitions with
    /// [`WorkloadSchedule::phase_at`] / [`WorkloadSchedule::drift_to`].
    pub fn new(seed: u64) -> Self {
        WorkloadSchedule { seed, phases: Vec::new() }
    }

    /// The schedule's seed (construction-time jitter domain).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the schedule has no transitions at all.
    pub fn is_static(&self) -> bool {
        self.phases.is_empty()
    }

    /// The scheduled transitions, in order.
    pub fn phases(&self) -> &[DriftPhase] {
        &self.phases
    }

    /// Adds an instantaneous phase switch to `spec` at eval index `start`.
    pub fn phase_at(self, start: u64, spec: WorkloadSpec) -> Self {
        self.drift_to(start, 0, spec)
    }

    /// Adds a smooth drift toward `spec` starting at `start` over `ramp`
    /// evaluations. Transitions must be appended in order and must not
    /// overlap.
    pub fn drift_to(mut self, start: u64, ramp: u64, spec: WorkloadSpec) -> Self {
        if let Some(last) = self.phases.last() {
            assert!(
                last.start + last.ramp <= start,
                "drift phases must be appended in order and must not overlap \
                 (previous ends at {}, new starts at {start})",
                last.start + last.ramp
            );
        }
        self.phases.push(DriftPhase { start, ramp, spec });
        self
    }

    /// The canned OLTP→OLAP drift used by benches and CI smoke: the base
    /// workload runs unchanged until `at`, then drifts into the OLAP
    /// reporting mix over `ramp` evaluations. The schedule seed jitters the
    /// OLAP target's intensity a few percent (construction-time only), so
    /// distinct seeds produce genuinely distinct — but each individually
    /// deterministic — drift trajectories.
    pub fn oltp_to_olap(seed: u64, at: u64, ramp: u64) -> Self {
        let mut rng = domain_rng(SCHEDULE_DOMAIN, seed);
        let mut target = WorkloadSpec::olap();
        target.base_cpu_us_per_query *= 0.95 + 0.10 * rng.random::<f64>();
        target.pages_per_query *= 0.95 + 0.10 * rng.random::<f64>();
        target.tmp_table_frac = (target.tmp_table_frac * (0.95 + 0.10 * rng.random::<f64>())).min(1.0);
        WorkloadSchedule::new(seed).drift_to(at, ramp, target)
    }

    /// The workload in effect at evaluation `idx`, derived from `base` (the
    /// spec the session started with). Pure and RNG-free: the same `(base,
    /// idx)` always yields the same spec.
    pub fn effective(&self, base: &WorkloadSpec, idx: u64) -> WorkloadSpec {
        let mut current = base.clone();
        for phase in &self.phases {
            if idx < phase.start {
                break;
            }
            // The last ramp step lands *exactly* on the target (a clone, not
            // a t=1 lerp, which would leave float dust on some fields).
            if phase.ramp == 0 || idx + 1 >= phase.start + phase.ramp {
                current = phase.spec.clone();
            } else {
                // First drifted eval takes one ramp step.
                let t = (idx - phase.start + 1) as f64 / phase.ramp as f64;
                current = blend(&current, &phase.spec, smoothstep(t));
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_schedule_is_the_identity() {
        let schedule = WorkloadSchedule::new(3);
        let base = WorkloadSpec::twitter();
        assert!(schedule.is_static());
        for idx in [0, 1, 10, 1000] {
            assert_eq!(schedule.effective(&base, idx), base);
        }
    }

    #[test]
    fn effective_is_a_pure_function_of_base_and_index() {
        let schedule = WorkloadSchedule::oltp_to_olap(7, 10, 6);
        let base = WorkloadSpec::twitter();
        for idx in 0..30 {
            assert_eq!(schedule.effective(&base, idx), schedule.effective(&base, idx));
        }
        assert_ne!(
            WorkloadSchedule::oltp_to_olap(7, 10, 6),
            WorkloadSchedule::oltp_to_olap(8, 10, 6),
            "schedule seeds must produce distinct drift targets"
        );
    }

    #[test]
    fn drift_interpolates_smoothly_and_lands_on_the_target() {
        let target = WorkloadSpec::olap();
        let schedule = WorkloadSchedule::new(0).drift_to(5, 4, target.clone());
        let base = WorkloadSpec::twitter();
        // Before the drift: untouched.
        assert_eq!(schedule.effective(&base, 4), base);
        // Mid-ramp: strictly between base and target on the continuous axes.
        let mid = schedule.effective(&base, 6);
        assert!(mid.base_cpu_us_per_query > base.base_cpu_us_per_query);
        assert!(mid.base_cpu_us_per_query < target.base_cpu_us_per_query);
        // Ramp monotone on a drifting axis.
        let costs: Vec<f64> =
            (5..9).map(|i| schedule.effective(&base, i).base_cpu_us_per_query).collect();
        assert!(costs.windows(2).all(|w| w[1] > w[0]), "ramp not monotone: {costs:?}");
        // Last ramp step and beyond: exactly the target.
        assert_eq!(schedule.effective(&base, 8), target);
        assert_eq!(schedule.effective(&base, 100), target);
    }

    #[test]
    fn discrete_fields_switch_at_the_ramp_midpoint() {
        let schedule = WorkloadSchedule::new(0).drift_to(0, 10, WorkloadSpec::olap());
        let base = WorkloadSpec::twitter();
        assert_eq!(schedule.effective(&base, 0).kind, base.kind);
        assert_eq!(schedule.effective(&base, 9).kind, WorkloadSpec::olap().kind);
    }

    #[test]
    fn instantaneous_phase_switch_has_no_ramp() {
        let schedule = WorkloadSchedule::new(0).phase_at(3, WorkloadSpec::sales());
        let base = WorkloadSpec::twitter();
        assert_eq!(schedule.effective(&base, 2), base);
        assert_eq!(schedule.effective(&base, 3), WorkloadSpec::sales());
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_phases_are_rejected() {
        let _ = WorkloadSchedule::new(0)
            .drift_to(5, 10, WorkloadSpec::sales())
            .drift_to(8, 2, WorkloadSpec::olap());
    }

    #[test]
    fn closed_loop_target_switches_rate_mode_with_the_family() {
        // Twitter is rate-bounded, OLAP is closed-loop: the Option flips at
        // the midpoint instead of interpolating across modes.
        let schedule = WorkloadSchedule::new(0).drift_to(0, 10, WorkloadSpec::olap());
        let base = WorkloadSpec::twitter();
        assert!(schedule.effective(&base, 1).request_rate.is_some());
        assert!(schedule.effective(&base, 9).request_rate.is_none());
    }
}

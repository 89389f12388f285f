//! The ResTune tuning session (§4): evaluate the default to fix the SLA,
//! then iterate *recommend → apply → replay → observe*, with the adaptive
//! weight schema of §6.4.3 (meta-feature static weights for the first
//! iterations, ranking-loss dynamic weights afterwards).
//!
//! [`TuningSession`] is [`crate::driver::TuningDriver`] with
//! [`crate::proposer::RestuneProposer`] as its strategy; the
//! apply/replay/record side is [`crate::engine::EvalEngine`] (see DESIGN.md
//! §11). This module keeps the environment builder, the configuration, and
//! the session's two constructors.

use crate::acquisition::{AcquisitionKind, AcquisitionOptimizer};
use crate::driver::TuningDriver;
use crate::engine::EvalEngine;
use crate::meta::BaseLearner;
use crate::problem::{ResourceKind, SpaceInfo};
use crate::proposer::RestuneProposer;
use crate::space::SpaceTransform;
use dbsim::{FaultPlan, InstanceType, KnobSet, SimulatedDbms, WorkloadSchedule, WorkloadSpec};
use gp::GpConfig;
use std::sync::Arc;

pub use crate::engine::{IterationRecord, IterationTiming, SeedError, TuningOutcome};

/// The target DBMS copy plus the search space and objective.
#[derive(Debug, Clone)]
pub struct TuningEnvironment {
    /// The simulated DBMS copy under test.
    pub dbms: SimulatedDbms,
    /// The knob subspace being tuned.
    pub knob_set: KnobSet,
    /// The resource objective.
    pub resource: ResourceKind,
    /// Optional search-space transform (DESIGN.md §14). `None` tunes the
    /// native knob space; `Some` makes every proposer search the transform's
    /// low-dimensional space, with the engine lifting candidates at its
    /// evaluate/render seams.
    pub space: Option<Arc<dyn SpaceTransform>>,
}

impl TuningEnvironment {
    /// Starts a builder.
    pub fn builder() -> TuningEnvironmentBuilder {
        TuningEnvironmentBuilder::default()
    }

    /// The proposer-facing search dimensionality: the transform's `dim()`
    /// when one is installed, the knob set's otherwise.
    pub fn search_dim(&self) -> usize {
        self.space.as_ref().map(|t| t.dim()).unwrap_or_else(|| self.knob_set.dim())
    }

    /// The space proposers search: the transform's dimension and id when
    /// one is installed, the native knob space otherwise. Stored tasks
    /// transfer to this environment only from the same space
    /// ([`crate::repository::TaskRecord::transfers_to`]).
    pub fn space_info(&self) -> SpaceInfo {
        match &self.space {
            Some(t) => SpaceInfo { dim: t.dim(), id: t.id() },
            None => SpaceInfo::native(self.knob_set.dim()),
        }
    }
}

/// Builder for [`TuningEnvironment`].
#[derive(Debug, Clone)]
pub struct TuningEnvironmentBuilder {
    instance: InstanceType,
    workload: WorkloadSpec,
    resource: ResourceKind,
    knob_set: Option<KnobSet>,
    seed: u64,
    noise: Option<f64>,
    fault_plan: Option<FaultPlan>,
    space: Option<Arc<dyn SpaceTransform>>,
    schedule: Option<WorkloadSchedule>,
}

impl Default for TuningEnvironmentBuilder {
    fn default() -> Self {
        TuningEnvironmentBuilder {
            instance: InstanceType::A,
            workload: WorkloadSpec::sysbench(),
            resource: ResourceKind::Cpu,
            knob_set: None,
            seed: 0,
            noise: None,
            fault_plan: None,
            space: None,
            schedule: None,
        }
    }
}

impl TuningEnvironmentBuilder {
    /// Hardware environment (Table 1).
    pub fn instance(mut self, instance: InstanceType) -> Self {
        self.instance = instance;
        self
    }

    /// Target workload (Table 2).
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Resource objective; also selects the default knob set.
    pub fn resource(mut self, resource: ResourceKind) -> Self {
        self.resource = resource;
        self
    }

    /// Overrides the knob set (e.g. the 3-knob case study).
    pub fn knob_set(mut self, set: KnobSet) -> Self {
        self.knob_set = Some(set);
        self
    }

    /// Simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Observation noise override (`0.0` = deterministic).
    pub fn noise(mut self, noise: f64) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Fault schedule for the replays (default: no faults).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs a search-space transform (DESIGN.md §14): proposers search
    /// the transform's low-dimensional space and the engine lifts candidates
    /// into the knob set's native space at evaluation time.
    pub fn space(mut self, transform: Arc<dyn SpaceTransform>) -> Self {
        self.space = Some(transform);
        self
    }

    /// Installs a workload schedule (DESIGN.md §16): the builder's workload
    /// becomes the schedule's base spec and the simulated DBMS evolves it
    /// deterministically by evaluation index. No schedule — or a static one
    /// — leaves the environment bit-identical to pre-schedule builds.
    pub fn schedule(mut self, schedule: WorkloadSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Builds the environment.
    pub fn build(self) -> TuningEnvironment {
        let mut dbms = SimulatedDbms::new(self.instance, self.workload, self.seed);
        if let Some(n) = self.noise {
            dbms = dbms.with_noise(n);
        }
        if let Some(plan) = self.fault_plan {
            dbms = dbms.with_fault_plan(plan);
        }
        if let Some(schedule) = self.schedule {
            dbms = dbms.with_schedule(schedule);
        }
        let knob_set = self.knob_set.unwrap_or_else(|| self.resource.default_knob_set());
        if let Some(t) = &self.space {
            assert_eq!(
                t.native_dim(),
                knob_set.dim(),
                "space transform native dimension must match the knob set"
            );
        }
        TuningEnvironment { dbms, knob_set, resource: self.resource, space: self.space }
    }
}

/// How the first `init_iters` iterations pick points when meta-learning is
/// active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Suggestions from the static-weight (meta-feature) ensemble — full
    /// ResTune.
    StaticWeights,
    /// Latin hypercube samples — the ResTune-w/o-Workload ablation of
    /// Figure 6(b).
    Lhs,
}

/// ResTune configuration (defaults follow §7 "Setting").
#[derive(Debug, Clone)]
pub struct RestuneConfig {
    /// Initialization iterations before switching to dynamic weights / after
    /// which LHS bootstrapping ends (paper: 10).
    pub init_iters: usize,
    /// Initialization point source when meta-learning is active.
    pub init_strategy: InitStrategy,
    /// GP fitting configuration. With `optimize_hypers` on, the target GPs
    /// refit their hyperparameters on the schedule of
    /// [`crate::surrogate::refits_hypers`] and grow by rank-1 appends in
    /// between (DESIGN.md §13).
    pub gp: GpConfig,
    /// Acquisition function (CEI for ResTune; EI reproduces iTuned).
    pub acquisition: AcquisitionKind,
    /// Acquisition optimizer budget.
    pub optimizer: AcquisitionOptimizer,
    /// Epanechnikov bandwidth ρ for static weights.
    pub static_bandwidth: f64,
    /// Posterior samples for dynamic weights (§6.4.2).
    pub dynamic_samples: usize,
    /// Cap on target observations entering the O(n²) ranking loss.
    pub max_rank_points: usize,
    /// RGPE weight-dilution guard (drop base-learners whose median ranking
    /// loss exceeds the target's 95th percentile). On by default; the
    /// ablation harness turns it off.
    pub dilution_guard: bool,
    /// During the static-weight bootstrap, source constraint predictions
    /// from the target learner only (see DESIGN.md §5b). On by default.
    pub static_constraints_from_target: bool,
    /// Emit a per-iteration `tuner.health` diagnostics event (DESIGN.md §15):
    /// GP calibration, ensemble weights + entropy, incumbent regret, the
    /// surrogate fit path, and failure tallies. Off by default; events only
    /// reach the collector while tracing is enabled (`trace::enable()`,
    /// DESIGN.md §10). Like tracing itself the diagnostics are read-only
    /// over closed-form quantities — no RNG streams — so flipping this
    /// cannot change tuning output (`tests/determinism.rs` pins it).
    pub diag: bool,
    /// Algorithm seed (acquisition optimizer, weight sampling).
    pub seed: u64,
}

impl Default for RestuneConfig {
    fn default() -> Self {
        RestuneConfig {
            init_iters: 10,
            init_strategy: InitStrategy::StaticWeights,
            gp: GpConfig::default(),
            acquisition: AcquisitionKind::ConstrainedExpectedImprovement,
            optimizer: AcquisitionOptimizer::default(),
            static_bandwidth: 0.2,
            dynamic_samples: 30,
            max_rank_points: 50,
            dilution_guard: true,
            static_constraints_from_target: true,
            diag: false,
            seed: 0,
        }
    }
}

/// A ResTune tuning run: the shared [`TuningDriver`] loop whose strategy is
/// [`RestuneProposer`] and whose evaluation side is the [`EvalEngine`] every
/// method shares (DESIGN.md §11). The run is meta-boosted exactly when it
/// holds at least one base learner.
///
/// # Examples
///
/// ```
/// use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
/// use restune_core::problem::ResourceKind;
/// use restune_core::acquisition::AcquisitionOptimizer;
/// use dbsim::{InstanceType, KnobSet, WorkloadSpec};
///
/// let env = TuningEnvironment::builder()
///     .instance(InstanceType::A)
///     .workload(WorkloadSpec::twitter())
///     .resource(ResourceKind::Cpu)
///     .knob_set(KnobSet::case_study())
///     .seed(1)
///     .build();
/// let config = RestuneConfig {
///     optimizer: AcquisitionOptimizer { n_candidates: 200, n_local: 40, local_sigma: 0.1 },
///     ..Default::default()
/// };
/// let mut session = TuningSession::new(env, config);
/// let outcome = session.run(8);
/// assert_eq!(outcome.history.len(), 8);
/// // The incumbent is always SLA-feasible (the default until improved).
/// assert!(outcome.best_objective.unwrap() <= outcome.default_obj_value);
/// ```
pub type TuningSession = TuningDriver<RestuneProposer>;

impl TuningDriver<RestuneProposer> {
    /// A run without meta-learning (ResTune-w/o-ML): LHS bootstrap, then
    /// CEI over the target-only surrogate.
    pub fn new(env: TuningEnvironment, config: RestuneConfig) -> Self {
        Self::with_base_learners(env, config, Vec::new(), Vec::new())
    }

    /// A run boosted by historical base-learners (full ResTune). With no
    /// learners it is the run [`TuningSession::new`] builds.
    ///
    /// # Panics
    ///
    /// If any base learner was fitted on a knob space whose dimensionality
    /// differs from the environment's: mismatched learners are rejected at
    /// construction (with the offending task named) rather than producing
    /// dimensional nonsense at prediction time.
    pub fn with_base_learners(
        env: TuningEnvironment,
        config: RestuneConfig,
        base_learners: Vec<BaseLearner>,
        target_meta_feature: Vec<f64>,
    ) -> Self {
        let dim = env.search_dim();
        for b in &base_learners {
            assert_eq!(
                b.model.res.dim(),
                dim,
                "base learner {:?} was fitted on a {}-dim search space; the target space is {}-dim",
                b.task_id,
                b.model.res.dim(),
                dim
            );
        }
        // The default observation seeds the model and the incumbent.
        let engine = EvalEngine::new(env, true);
        let seed = config.seed;
        let proposer = RestuneProposer::new(config, base_learners, target_meta_feature, dim);
        TuningDriver::from_parts(engine, proposer, seed)
    }

    /// The identity: a [`TuningSession`] already is its driver. `perfbench`
    /// still calls it; the method goes when that call does.
    pub fn into_driver(self) -> Self {
        self
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::FailureKind;
    use dbsim::Observation;

    fn quick_config(seed: u64) -> RestuneConfig {
        RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 300, n_local: 60, local_sigma: 0.08 },
            gp: GpConfig { restarts: 1, adam_iters: 20, ..GpConfig::default() },
            dynamic_samples: 10,
            seed,
            ..Default::default()
        }
    }

    fn twitter_env(seed: u64) -> TuningEnvironment {
        TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(seed)
            .build()
    }

    #[test]
    fn tuning_reduces_cpu_within_sla() {
        let mut session = TuningSession::new(twitter_env(1), quick_config(1));
        let outcome = session.run(25);
        let default = outcome.default_objective();
        let best = outcome.best_objective.unwrap();
        assert!(
            best < 0.6 * default,
            "expected a large CPU reduction: default {default:.1}%, best {best:.1}%"
        );
        // The incumbent is always feasible.
        for r in &outcome.history {
            if Some(r.iteration) == outcome.best_iteration {
                assert!(r.feasible);
            }
        }
    }

    #[test]
    fn incumbent_curve_is_monotone_nonincreasing() {
        let mut session = TuningSession::new(twitter_env(2), quick_config(2));
        let outcome = session.run(15);
        let curve = outcome.best_curve();
        for pair in curve.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9);
        }
    }

    #[test]
    fn default_observation_fixes_the_sla() {
        let session = TuningSession::new(twitter_env(3), quick_config(3));
        let engine = session.engine();
        let sla = engine.sla();
        assert_eq!(sla.min_tps, engine.default_observation().tps);
        assert_eq!(sla.max_p99_ms, engine.default_observation().p99_ms);
    }

    #[test]
    fn a_session_given_no_learners_is_the_non_meta_session() {
        // A run is meta-boosted exactly when it holds a learner: given an
        // empty list, it bootstraps with LHS like `new`, whatever the
        // meta-feature.
        let steps = |mut s: TuningSession| -> Vec<(Vec<f64>, Observation)> {
            (0..4).map(|_| s.step()).map(|r| (r.point, r.observation)).collect()
        };
        let plain = steps(TuningSession::new(twitter_env(3), quick_config(3)));
        let empty = TuningSession::with_base_learners(
            twitter_env(3),
            quick_config(3),
            Vec::new(),
            vec![0.2; 5],
        );
        assert_eq!(steps(empty), plain);
    }

    #[test]
    fn non_meta_sessions_bootstrap_with_lhs() {
        let mut session = TuningSession::new(twitter_env(4), quick_config(4));
        let r0 = session.step();
        let r1 = session.step();
        // LHS points differ and are not the default point.
        assert_ne!(r0.point, r1.point);
        assert!(r0.weights.is_none());
    }

    #[test]
    fn penalized_ei_respects_the_sla_indirectly() {
        let mut config = quick_config(8);
        config.acquisition = AcquisitionKind::PenalizedExpectedImprovement;
        let mut session = TuningSession::new(twitter_env(8), config);
        let outcome = session.run(20);
        // The penalty steers the search back to feasible space: the best is
        // feasible and beats the default.
        assert!(outcome.best_objective.unwrap() < outcome.default_obj_value);
        // After the bootstrap, most evaluations should be feasible (the
        // penalty discourages revisiting violating regions).
        let post = &outcome.history[10..];
        let feasible = post.iter().filter(|r| r.feasible).count();
        assert!(feasible * 2 >= post.len(), "only {feasible}/{} feasible", post.len());
    }

    #[test]
    fn dilution_guard_flag_is_respected() {
        // Smoke check: both settings run and produce identical history
        // lengths (behavioral differences are exercised by the ablation
        // harness; here we pin the plumbing).
        for guard in [true, false] {
            let mut config = quick_config(9);
            config.dilution_guard = guard;
            let outcome = TuningSession::new(twitter_env(9), config).run(6);
            assert_eq!(outcome.history.len(), 6);
        }
    }

    #[test]
    fn timing_breakdown_is_populated() {
        let mut session = TuningSession::new(twitter_env(5), quick_config(5));
        let r = session.step();
        assert!(r.timing.replay_s > 100.0, "replay dominates (simulated)");
        assert!(r.timing.model_update_s >= 0.0);
        assert!(r.timing.total_s() > r.timing.replay_s);
        // The new subcomponents are populated and nest inside model update.
        assert!(r.timing.gp_fit_s >= 0.0 && r.timing.weight_update_s >= 0.0);
        assert!(r.timing.gp_fit_s <= r.timing.model_update_s + 1e-9);
    }

    #[test]
    fn degenerate_observations_degrade_to_exploration_not_panic() {
        // Regression: `fit_target(..).expect("target surrogate fit")` used to
        // abort the whole session when the observation set was degenerate.
        // A seeded NaN tuple must instead degrade to uniform exploration.
        let mut session = TuningSession::new(twitter_env(6), quick_config(6));
        let engine = session.engine_mut();
        engine.seed_history(vec![0.5, 0.5, 0.5], f64::NAN, f64::NAN, f64::NAN).unwrap();
        let r0 = session.step();
        assert!(r0.weights.is_none());
        assert!(r0.point.iter().all(|v| (0.0..=1.0).contains(v)));
        // Still degenerate on the next step; still no panic, and the session
        // keeps collecting real observations.
        let r1 = session.step();
        assert_ne!(r0.point, r1.point, "exploration points are re-seeded per iteration");
        assert!(session.engine().iterations() == 2);
        // The outcome renders without panicking and the incumbent stays the
        // (feasible) default.
        let outcome = session.engine().outcome();
        assert!(outcome.best_objective.unwrap().is_finite());
    }

    #[test]
    fn seeded_points_outside_the_knob_cube_are_rejected() {
        // A point off the unit cube would reach the kernel: a coordinate of
        // 1e160 overflows the Matérn distance into a NaN Gram matrix, which
        // the fit's finiteness check cannot see. Each such tuple is refused
        // and leaves the session exactly as an unseeded one. One LHS step,
        // then two acquisition steps whose fits read every stored point.
        let session = || {
            let config = RestuneConfig { init_iters: 1, ..quick_config(8) };
            TuningSession::new(twitter_env(8), config)
        };
        let steps = |s: &mut TuningSession| -> Vec<(Vec<f64>, Observation)> {
            (0..3).map(|_| s.step()).map(|r| (r.point, r.observation)).collect()
        };
        let unseeded = steps(&mut session());
        let rejected = [
            (vec![1e160, 0.5, 0.5], SeedError::OutOfCube { index: 0, value: 1e160 }),
            (vec![0.5, 0.5], SeedError::DimensionMismatch { expected: 3, found: 2 }),
        ];
        for (point, want) in rejected {
            let mut s = session();
            assert_eq!(s.engine_mut().seed_history(point, 10.0, 1.0, 1.0), Err(want));
            assert_eq!(steps(&mut s), unseeded);
        }
        let mut s = session();
        let nan = s.engine_mut().seed_history(vec![f64::NAN, 0.5, 0.5], 10.0, 1.0, 1.0);
        assert!(matches!(nan, Err(SeedError::OutOfCube { index: 0, value }) if value.is_nan()));
        assert_eq!(steps(&mut s), unseeded);
        // The cube's faces are inside it, and an accepted point is read.
        let mut s = session();
        assert_eq!(s.engine_mut().seed_history(vec![0.0, 1.0, 0.5], 10.0, 1.0, 1.0), Ok(()));
        assert_ne!(steps(&mut s), unseeded);
    }

    #[test]
    fn degenerate_fallback_is_deterministic() {
        let run = || {
            let mut s = TuningSession::new(twitter_env(11), quick_config(11));
            s.engine_mut().seed_history(vec![0.1, 0.2, 0.3], f64::INFINITY, 1.0, 1.0).unwrap();
            (s.step().point, s.step().point)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_iterations_record_penalized_infeasible_observations() {
        use dbsim::FaultPlan;
        // Transients at a rate heavy enough to exhaust the retry budget:
        // failures must surface as records, never as panics, and never move
        // the incumbent.
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(13)
            .fault_plan(FaultPlan::none().with_transient_rate(0.8).with_seed(3))
            .build();
        let mut session = TuningSession::new(env, quick_config(13));
        let outcome = session.run(12);
        let failures = outcome.failures;
        assert!(failures.failed_iterations() > 0, "an 80% rate over 12 iters must fail some");
        for r in &outcome.history {
            match r.failure {
                Some(FailureKind::Crash) | Some(FailureKind::Timeout) => {
                    assert!(!r.feasible, "synthetic failure observations are infeasible");
                    assert!(r.objective.is_finite());
                    assert!(r.objective > outcome.default_obj_value, "penalty sits above default");
                    assert!(Some(r.iteration) != outcome.best_iteration);
                }
                _ => {}
            }
            assert!(r.observation.tps.is_finite() && r.observation.p99_ms.is_finite());
        }
    }

    #[test]
    fn retries_resolve_most_transients_and_are_counted() {
        use dbsim::FaultPlan;
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(14)
            .fault_plan(FaultPlan::none().with_transient_rate(0.3).with_seed(5))
            .build();
        let outcome = TuningSession::new(env, quick_config(14)).run(15);
        assert!(outcome.failures.retries > 0, "a 30% rate must consume retries");
        // With 2 retries, only ~2.7% of iterations hard-fail on average.
        assert!(
            outcome.failures.crashes + outcome.failures.timeouts <= 4,
            "retries should absorb most transients: {:?}",
            outcome.failures
        );
    }
}

//! Workload-drift detection and warm-restart re-tuning (DESIGN.md §16).
//!
//! A deployed tuner's workload is not static: traffic mixes shift, reporting
//! jobs arrive, read/write ratios drift. ResTune's machinery already contains
//! the right response — the paper's meta-learning treats every *finished*
//! tuning task as a base learner — so a drifted session should not start
//! over: it should **seal** its pre-drift history as one more base task and
//! warm-restart with that task (and the rest of the repository) as transfer
//! sources.
//!
//! The pieces:
//!
//! - [`DriftController`] periodically re-runs the §6.2 TF-IDF/random-forest
//!   workload characterization against the *live* workload (which a
//!   [`dbsim::WorkloadSchedule`] may be evolving) and compares the class
//!   distribution with the session's reference profile by total-variation
//!   distance. It keeps the last spec it embedded with its profile and
//!   re-embeds only when the live spec has changed (`drift.embeds` counts
//!   the embeddings, `drift.checks` every check).
//! - On a threshold crossing it drives [`EvalEngine::warm_restart`]: the
//!   pre-drift epoch becomes a [`TaskRecord`] (with its `space_id`), handed
//!   to a [`SealSink`] which commits it and returns the refitted
//!   base-learners for the new epoch.
//! - The resulting [`DriftEvent`] reaches the
//!   [`Proposer`](crate::driver::Proposer) through its `on_drift` hook, which
//!   re-initializes ensemble weights, the LHS bootstrap, and the target-model
//!   cache.
//!
//! Sessions without a controller take none of these paths: the driver's
//! drift hook is `None`, no counter or span fires, and static-session traces
//! stay bit-identical to pre-drift builds (`tests/golden_methods.rs`).

use std::sync::Arc;

use crate::engine::EvalEngine;
use crate::fleet::store::ShardedStore;
use crate::meta::BaseLearner;
use crate::repository::{DataRepository, TaskRecord};
use gp::GpConfig;
use workload::WorkloadCharacterizer;

/// What a restart re-initializes the learner ensemble from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Seal the pre-drift epoch and transfer from the updated repository
    /// (full ResTune behavior).
    Warm,
    /// Seal the epoch but restart without transfer — the from-scratch
    /// control arm of the `drift_sweep` paper artifact.
    Cold,
}

/// Drift-detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Re-characterize the live workload every `check_every` committed
    /// iterations of the current epoch.
    pub check_every: usize,
    /// Total-variation distance between the live class distribution and the
    /// reference profile at which drift is declared (both are probability
    /// vectors, so the score lives in `[0, 1]`).
    pub threshold: f64,
    /// Iterations an epoch must accumulate before checks begin — a restart
    /// storm on a slow ramp would shred every epoch's history into
    /// unusably small base tasks.
    pub min_epoch_iters: usize,
    /// Settle tolerance: after a threshold crossing, the restart is deferred
    /// until two consecutive checks see the *same* drifted profile (their
    /// total-variation distance is at most `settle_tol`). Restarting
    /// mid-ramp would re-anchor the SLA on transient blended traffic that
    /// the settled workload can never meet, leaving the whole new epoch
    /// infeasible.
    pub settle_tol: f64,
    /// Seed for the characterizer's query sampling (the profile, like the
    /// embedding it compares against, must be a pure function of the spec).
    pub embed_seed: u64,
    /// Warm (transfer) or cold (no transfer) restarts.
    pub policy: RestartPolicy,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            check_every: 4,
            threshold: 0.25,
            min_epoch_iters: 6,
            settle_tol: 0.05,
            embed_seed: 0,
            policy: RestartPolicy::Warm,
        }
    }
}

/// Everything a [`Proposer`](crate::driver::Proposer) needs to re-initialize
/// after a warm restart.
#[derive(Debug, Clone)]
pub struct DriftEvent {
    /// The new epoch's number (1 after the first restart).
    pub epoch: usize,
    /// Absolute iteration at which the drift was detected.
    pub iteration: usize,
    /// The engine's new `epoch_start` (proposers rebase their iteration
    /// clocks here).
    pub epoch_start: usize,
    /// The total-variation score that crossed the threshold.
    pub score: f64,
    /// The new reference profile (the drifted workload's class
    /// distribution) — the restarted session's target meta-feature.
    pub meta_feature: Vec<f64>,
    /// Base-learners for the new epoch, refitted from the updated
    /// repository. Empty under [`RestartPolicy::Cold`].
    pub learners: Vec<BaseLearner>,
    /// Task id under which the pre-drift epoch was sealed.
    pub sealed_task_id: String,
}

/// Where sealed pre-drift epochs go, and where the restarted session's
/// base-learners come from.
pub trait SealSink: Send {
    /// Commits `record` and returns the base-learners the restarted epoch
    /// should transfer from (typically every stored task whose knob space
    /// matches the sealed record's).
    fn seal(&mut self, record: TaskRecord) -> Vec<BaseLearner>;
}

/// Fits base-learners from every record matching the target's search space:
/// meta-transfer requires the knob names *and* the `space_id` to agree.
fn matching_learners<'a>(
    records: impl Iterator<Item = &'a TaskRecord>,
    target: &TaskRecord,
    gp: &GpConfig,
) -> Vec<BaseLearner> {
    records
        .filter(|t| t.knob_names == target.knob_names && t.space_id == target.space_id)
        .filter_map(|t| t.to_base_learner(gp).ok())
        .collect()
}

/// The single-session sink: an in-process [`DataRepository`]. Each sealed
/// epoch joins the repository and the whole matching set is refit.
pub struct LocalSealSink {
    repo: DataRepository,
    gp: GpConfig,
}

impl LocalSealSink {
    /// A sink over `repo` (possibly pre-loaded with historical tasks).
    pub fn new(repo: DataRepository, gp: GpConfig) -> Self {
        LocalSealSink { repo, gp }
    }

    /// The accumulated repository (historical tasks plus sealed epochs).
    pub fn repository(&self) -> &DataRepository {
        &self.repo
    }
}

impl SealSink for LocalSealSink {
    fn seal(&mut self, record: TaskRecord) -> Vec<BaseLearner> {
        self.repo.add(record.clone());
        matching_learners(self.repo.tasks().iter(), &record, &self.gp)
    }
}

/// The fleet sink: sealed epochs are committed to the shared
/// [`ShardedStore`] (visible to later fleet generations), but the restarted
/// tenant refits only from its **pinned pre-start snapshot plus its own
/// sealed epochs** — never from siblings' live commits, so a tenant's trace
/// stays a pure function of its own state and the fleet is bit-identical at
/// any worker count (DESIGN.md §12).
pub struct FleetSealSink {
    tenant: u64,
    store: Arc<ShardedStore>,
    pinned: DataRepository,
    own: Vec<TaskRecord>,
    gp: GpConfig,
}

impl FleetSealSink {
    /// A sink for `tenant` over `store`, pinning the store's current
    /// contents as the transfer base. Pin **before** the fleet starts: the
    /// snapshot is what keeps restarts schedule-independent.
    pub fn new(tenant: u64, store: Arc<ShardedStore>, gp: GpConfig) -> Self {
        let pinned = store.snapshot().to_repository();
        FleetSealSink { tenant, store, pinned, own: Vec::new(), gp }
    }

    /// Epochs this tenant has sealed so far.
    pub fn sealed(&self) -> usize {
        self.own.len()
    }
}

impl SealSink for FleetSealSink {
    fn seal(&mut self, record: TaskRecord) -> Vec<BaseLearner> {
        self.store.commit_shared(self.tenant, Arc::new(record.clone()));
        self.own.push(record.clone());
        matching_learners(self.pinned.tasks().iter().chain(self.own.iter()), &record, &self.gp)
    }
}

/// The per-session drift detector and warm-restart driver. Owned by a
/// [`TuningDriver`](crate::driver::TuningDriver) (`None` for static
/// sessions) and consulted after every committed iteration.
pub struct DriftController {
    config: DriftConfig,
    characterizer: Arc<WorkloadCharacterizer>,
    /// The class-probability profile drift is measured against — the base
    /// workload's at construction, the drifted workload's after a restart.
    reference: Vec<f64>,
    sink: Box<dyn SealSink>,
    /// Sealed-task label prefix (conventionally `workload@instance`).
    task_prefix: String,
    /// A drifted profile seen by the previous check, awaiting confirmation
    /// that the workload has settled (see [`DriftConfig::settle_tol`]).
    pending: Option<Vec<f64>>,
    /// The last spec embedded and its profile. The embedding reads the spec
    /// only through `generate_queries(spec, n, embed_seed)`, so equal specs
    /// embed to the same bits: a check re-embeds only when the live spec
    /// differs from this one.
    embedded: Option<(dbsim::WorkloadSpec, Vec<f64>)>,
    epoch: usize,
    restarts: u64,
    sealed: usize,
    last_score: f64,
}

/// Total-variation distance between two discrete distributions.
fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

impl DriftController {
    /// A controller whose reference profile is `reference` (the base
    /// workload's class distribution, from the same characterizer and
    /// `embed_seed` the checks will use).
    pub fn new(
        config: DriftConfig,
        characterizer: Arc<WorkloadCharacterizer>,
        reference: Vec<f64>,
        task_prefix: impl Into<String>,
        sink: Box<dyn SealSink>,
    ) -> Self {
        DriftController {
            config,
            characterizer,
            reference,
            sink,
            task_prefix: task_prefix.into(),
            pending: None,
            embedded: None,
            epoch: 0,
            restarts: 0,
            sealed: 0,
            last_score: 0.0,
        }
    }

    /// A controller that derives its reference profile from `spec` — the
    /// common construction (the session's base workload). Checks that find
    /// the live workload still equal to `spec` reuse that profile.
    pub fn for_workload(
        config: DriftConfig,
        characterizer: Arc<WorkloadCharacterizer>,
        spec: &dbsim::WorkloadSpec,
        task_prefix: impl Into<String>,
        sink: Box<dyn SealSink>,
    ) -> Self {
        let reference = characterizer.embed_workload(spec, config.embed_seed).probs;
        let embedded = Some((spec.clone(), reference.clone()));
        Self { embedded, ..Self::new(config, characterizer, reference, task_prefix, sink) }
    }

    /// Warm restarts executed so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Epochs sealed into the repository so far.
    pub fn sealed_tasks(&self) -> usize {
        self.sealed
    }

    /// The current epoch number (0 until the first restart).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The most recent check's total-variation score.
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// Runs the drift check after iteration `iter` was committed; on a
    /// threshold crossing, executes the warm restart against `engine` and
    /// returns the [`DriftEvent`] the proposer must apply. The schedule is a
    /// pure function of the epoch clock, so same-seed sessions check — and
    /// restart — at identical iterations.
    pub fn check(&mut self, engine: &mut EvalEngine, iter: usize) -> Option<DriftEvent> {
        let epoch_iters = engine.iterations() - engine.epoch_start();
        if epoch_iters < self.config.min_epoch_iters
            || !epoch_iters.is_multiple_of(self.config.check_every.max(1))
        {
            return None;
        }
        let check_span = trace::span!("drift_check", iter = iter);
        trace::count("drift.checks", 1);
        let spec = engine.environment().dbms.workload();
        let live = match &self.embedded {
            Some((embedded, probs)) if embedded == spec => probs.clone(),
            _ => {
                trace::count("drift.embeds", 1);
                let probs = self.characterizer.embed_workload(spec, self.config.embed_seed).probs;
                self.embedded = Some((spec.clone(), probs.clone()));
                probs
            }
        };
        let score = total_variation(&live, &self.reference);
        self.last_score = score;
        let _ = check_span.finish_s();
        if score < self.config.threshold {
            // Back under the threshold: a transient blip, not a drift.
            self.pending = None;
            return None;
        }
        trace::count("drift.detected", 1);
        // Debounce: restart only once the drifted profile holds still
        // across two consecutive checks. Mid-ramp traffic keeps moving, so
        // the profile seen now disagrees with the previous check's — sealing
        // there would anchor the new epoch's SLA on a mix that no longer
        // exists by its first iteration.
        let settled = match &self.pending {
            Some(prior) => total_variation(&live, prior) <= self.config.settle_tol,
            None => false,
        };
        if !settled {
            trace::count("drift.pending", 1);
            self.pending = Some(live);
            return None;
        }
        self.pending = None;
        let restart_span = trace::span!("drift_restart", iter = iter, epoch = self.epoch);
        let sealed_task_id = format!("{}#epoch{}", self.task_prefix, self.epoch);
        let sealed = engine.warm_restart(&sealed_task_id, self.reference.clone());
        let observations = sealed.observations.len();
        let learners = match self.config.policy {
            RestartPolicy::Warm => self.sink.seal(sealed),
            RestartPolicy::Cold => {
                // The epoch is still sealed (the repository keeps growing);
                // only the transfer into the new epoch is suppressed.
                let _ = self.sink.seal(sealed);
                Vec::new()
            }
        };
        self.sealed += 1;
        self.epoch += 1;
        self.restarts += 1;
        trace::count("drift.restarts", 1);
        let fields: Vec<(&str, trace::FieldValue)> = vec![
            ("iter", iter.into()),
            ("epoch", self.epoch.into()),
            ("score", score.into()),
            ("sealed", sealed_task_id.as_str().into()),
            ("sealed_obs", observations.into()),
            ("learners", learners.len().into()),
        ];
        trace::event("drift.restart", fields);
        let event = DriftEvent {
            epoch: self.epoch,
            iteration: iter,
            epoch_start: engine.epoch_start(),
            score,
            meta_feature: live.clone(),
            learners,
            sealed_task_id,
        };
        self.reference = live;
        let _ = restart_span.finish_s();
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_variation_is_a_metric_on_distributions() {
        let a = [0.5, 0.5, 0.0];
        let b = [0.0, 0.5, 0.5];
        assert_eq!(total_variation(&a, &a), 0.0);
        assert!((total_variation(&a, &b) - 0.5).abs() < 1e-12);
        // Disjoint supports are maximally distant.
        assert!((total_variation(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_config_checks_sparsely_and_restarts_warm() {
        let c = DriftConfig::default();
        assert!(c.min_epoch_iters >= c.check_every);
        assert!(c.threshold > 0.0 && c.threshold < 1.0);
        // Settling must be strictly tighter than detection, or the debounce
        // could confirm a profile that is still mid-ramp.
        assert!(c.settle_tol > 0.0 && c.settle_tol < c.threshold);
        assert_eq!(c.policy, RestartPolicy::Warm);
    }
}

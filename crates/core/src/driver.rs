//! The tuning run loop: a [`TuningDriver`] repeatedly asks a [`Proposer`]
//! for the next configuration point and hands it to the shared
//! [`EvalEngine`] to apply, replay, and record.
//!
//! This is the paper's Fig. 5 control flow with the strategy factored out:
//! the *recommendation policy* (ResTune's meta-boosted CEI, OtterTune's
//! workload mapping, CDBTune's DDPG agent, a grid, …) is a `Proposer`;
//! everything that must be identical across methods for a fair §7
//! comparison (replay retries, failure penalties, incumbent/convergence
//! bookkeeping) lives in the engine. The driver owns the `iteration` trace
//! span, so every proposer's phase spans nest under the same root.
//!
//! Every method's run is a `TuningDriver`: ResTune's is
//! [`crate::tuner::TuningSession`], the driver over
//! [`crate::proposer::RestuneProposer`], whose constructors build the engine
//! and the proposer from an environment; the baselines build theirs in
//! `baselines`. [`TuningDriver::from_parts`] is the one generic
//! constructor.

use crate::drift::{DriftController, DriftEvent};
use crate::engine::{EvalEngine, HistoryView, IterationRecord, IterationTiming, TuningOutcome};

/// One proposed evaluation: the point plus everything the record should
/// remember about how it was chosen.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Normalized point to apply and replay.
    pub point: Vec<f64>,
    /// Ensemble weights at recommendation time, when meta-learning was
    /// active.
    pub weights: Option<Vec<f64>>,
    /// Proposal-side timings. The proposer leaves `replay_s` at zero; the
    /// engine sets it from the replay.
    pub timing: IterationTiming,
}

impl Proposal {
    /// A bare point with no weights and zero proposal-side timings (LHS
    /// bootstraps, grid cells).
    pub fn point(point: Vec<f64>) -> Self {
        Proposal { point, weights: None, timing: IterationTiming::default() }
    }
}

/// A tuning strategy: proposes the next point from the observed history.
///
/// `propose` runs inside the driver's `iteration` span, so any spans it
/// opens (`model_update`, `recommendation`, …) nest under `iteration/…`
/// exactly as the paper's three-phase pipeline reads. `seed` is the
/// driver's per-iteration seed (`driver_seed + iter`, mixed); strategies
/// with their own published seeding schedule may ignore it.
pub trait Proposer {
    /// Picks the next point to evaluate.
    fn propose(&mut self, view: &HistoryView<'_>, iter: usize, seed: u64) -> Proposal;

    /// Hook run after the replay but before the record is committed —
    /// strategies that learn from the outcome (an RL agent's training step)
    /// do so here. Returns the wall-clock seconds of post-replay model
    /// update to *add* to the record's `model_update_s`, so nothing ever
    /// patches committed records in place.
    fn observe(&mut self, _view: &HistoryView<'_>, _record: &IterationRecord) -> f64 {
        0.0
    }

    /// Hook run when the driver's [`DriftController`] executed a warm
    /// restart: the strategy re-initializes whatever it conditions on the
    /// old epoch (ensemble weights, bootstrap plans, cached models). The
    /// default is a no-op — baselines without transfer state simply keep
    /// proposing against the reset engine view.
    fn on_drift(&mut self, _event: &DriftEvent) {}
}

/// A type-erased, sendable strategy: what the fleet scheduler moves between
/// pool workers when tenants run heterogeneous methods.
pub type BoxProposer = Box<dyn Proposer + Send>;

impl Proposer for BoxProposer {
    fn propose(&mut self, view: &HistoryView<'_>, iter: usize, seed: u64) -> Proposal {
        (**self).propose(view, iter, seed)
    }

    fn observe(&mut self, view: &HistoryView<'_>, record: &IterationRecord) -> f64 {
        (**self).observe(view, record)
    }

    fn on_drift(&mut self, event: &DriftEvent) {
        (**self).on_drift(event)
    }
}

/// The run loop tying a [`Proposer`] to an [`EvalEngine`].
pub struct TuningDriver<P> {
    engine: EvalEngine,
    proposer: P,
    seed: u64,
    /// Drift detector for dynamic-workload sessions; `None` (the default)
    /// leaves the loop byte-identical to pre-drift builds.
    drift: Option<DriftController>,
}

impl<P: Proposer> TuningDriver<P> {
    /// Builds a driver over an already-constructed engine.
    pub fn from_parts(engine: EvalEngine, proposer: P, seed: u64) -> Self {
        TuningDriver { engine, proposer, seed, drift: None }
    }

    /// Installs a drift controller: after every committed iteration the
    /// controller may re-characterize the live workload and execute a warm
    /// restart (DESIGN.md §16).
    pub fn set_drift(&mut self, controller: DriftController) {
        self.drift = Some(controller);
    }

    /// The installed drift controller, if any.
    pub fn drift(&self) -> Option<&DriftController> {
        self.drift.as_ref()
    }

    /// Runs one iteration; returns the committed record.
    pub fn step(&mut self) -> IterationRecord {
        let iter = self.engine.iterations();
        let seed = self.seed.wrapping_add(iter as u64).wrapping_mul(0x9E37);
        // All wall-clock fields of `IterationTiming` are the `finish_s()`
        // values of spans opened here and inside the proposer — there is no
        // second stopwatch (DESIGN.md §10). `replay_s` alone stays
        // *simulated* seconds from the DBMS (part of the determinism
        // fingerprint).
        let iteration_span = trace::span!("iteration", iter = iter);
        let proposal = self.proposer.propose(&self.engine.view(), iter, seed);
        let mut record = self.engine.evaluate(proposal);
        record.timing.model_update_s += self.proposer.observe(&self.engine.view(), &record);
        self.engine.commit(record.clone());
        trace::count("loop.iterations", 1);
        // Post-commit drift check: a restart must see the committed record
        // (the sealed task includes it) and reaches the proposer before the
        // next `propose`. Taken out and put back so the controller can
        // borrow the engine and the proposer simultaneously.
        if let Some(mut controller) = self.drift.take() {
            if let Some(event) = controller.check(&mut self.engine, iter) {
                self.proposer.on_drift(&event);
            }
            self.drift = Some(controller);
        }
        let _ = iteration_span.finish_s();
        record
    }

    /// Runs `iterations` steps and summarizes (cheap mid-run snapshot —
    /// clones the history; prefer [`TuningDriver::into_outcome`] at end of
    /// run).
    pub fn run(&mut self, iterations: usize) -> TuningOutcome {
        for _ in 0..iterations {
            self.step();
        }
        self.engine.outcome()
    }

    /// Runs `iterations` steps and consumes the driver into the final
    /// outcome without cloning the history.
    pub fn run_into_outcome(mut self, iterations: usize) -> TuningOutcome {
        for _ in 0..iterations {
            self.step();
        }
        self.engine.into_outcome()
    }

    /// The evaluation engine.
    pub fn engine(&self) -> &EvalEngine {
        &self.engine
    }

    /// Mutable access to the engine (seeding history into the surrogate's
    /// training data).
    pub fn engine_mut(&mut self) -> &mut EvalEngine {
        &mut self.engine
    }

    /// The strategy.
    pub fn proposer(&self) -> &P {
        &self.proposer
    }

    /// Consumes the driver into the final outcome without cloning the
    /// history.
    pub fn into_outcome(self) -> TuningOutcome {
        self.engine.into_outcome()
    }
}

impl<P: Proposer + Send + 'static> TuningDriver<P> {
    /// Type-erases the strategy: the same driver, bit-for-bit, behind
    /// [`BoxProposer`] so heterogeneous tenants fit one fleet. The drift
    /// controller (when installed) rides along.
    pub fn boxed(self) -> TuningDriver<BoxProposer> {
        let TuningDriver { engine, proposer, seed, drift } = self;
        TuningDriver { engine, proposer: Box::new(proposer), seed, drift }
    }
}

//! The traced run's per-layer metrics, and the timing wrappers it installs
//! at two public seams of the program.
//!
//! The numbers come from three sources: the benchmark's own spans around
//! the public calls it makes (set-up, the wrappers below, fleet slice
//! arrivals), the `IterationTiming` fields every record carries, and the
//! spans and counters the program already emits.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use restune_core::drift::SealSink;
use restune_core::meta::BaseLearner;
use restune_core::repository::TaskRecord;
use restune_core::space::SpaceTransform;
use trace::{SpanEvent, TraceSnapshot};

use crate::measure::{mean, median, quantile, share};
use crate::report::Metric;
use crate::workloads::{proposal_s, SetupTimes, UnitResult};

/// Times every `lift` of the wrapped transform as a `space_lift` span.
#[derive(Debug)]
pub struct TimedTransform {
    inner: Arc<dyn SpaceTransform>,
}

impl TimedTransform {
    pub fn new(inner: Arc<dyn SpaceTransform>) -> Self {
        TimedTransform { inner }
    }
}

impl SpaceTransform for TimedTransform {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn native_dim(&self) -> usize {
        self.inner.native_dim()
    }

    fn lift(&self, low: &[f64]) -> Vec<f64> {
        let span = trace::span!("space_lift");
        let native = self.inner.lift(low);
        let _ = span.finish_s();
        native
    }

    fn restrict(&self, native: &[f64]) -> Vec<f64> {
        self.inner.restrict(native)
    }

    fn id(&self) -> String {
        self.inner.id()
    }
}

/// Times every `seal` (the store commit plus the learner refit) as a
/// `drift_seal` span.
pub struct TimedSink<S> {
    inner: S,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        TimedSink { inner }
    }
}

impl<S: SealSink> SealSink for TimedSink<S> {
    fn seal(&mut self, record: TaskRecord) -> Vec<BaseLearner> {
        let span = trace::span!("drift_seal");
        let learners = self.inner.seal(record);
        let _ = span.finish_s();
        learners
    }
}

/// A step shorter than this drew its point from the LHS plan or the ε-greedy
/// safeguard (well under 5 µs); longer ones ran the acquisition optimizer.
const ACQ_MIN_S: f64 = 50e-6;

fn leaf(ev: &SpanEvent) -> &str {
    ev.path.rsplit('/').next().unwrap_or("")
}

fn field(ev: &SpanEvent, key: &str) -> Option<f64> {
    ev.fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

fn durations<'a>(
    snap: &'a TraceSnapshot,
    name: &'a str,
    scale: f64,
) -> impl Iterator<Item = f64> + 'a {
    snap.spans
        .iter()
        .filter(move |ev| leaf(ev) == name)
        .map(move |ev| ev.dur_s * scale)
}

/// Samples gathered over the traced units.
#[derive(Default)]
pub struct LayerSamples {
    units: u64,
    counters: BTreeMap<String, u64>,
    proposer_ms: Vec<f64>,
    gp_fit_ms: Vec<f64>,
    weights_ms: Vec<f64>,
    rec_ms: Vec<f64>,
    engine_us: Vec<f64>,
    active_learners: Vec<f64>,
    step_s: f64,
    proposal_s: f64,
    gp_fit_s: f64,
    weights_s: f64,
    rec_s: f64,
    engine_s: f64,
    lift_us: Vec<f64>,
    seal_ms: Vec<f64>,
    check_ms: Vec<f64>,
    embed_ms: Vec<f64>,
    slice_ms: Vec<f64>,
    busy_s: f64,
    capacity_s: f64,
}

impl LayerSamples {
    /// Adds one traced unit and the snapshot taken right after it.
    pub fn add(&mut self, unit: &UnitResult, snap: &TraceSnapshot) {
        self.units += 1;
        for (name, n) in &snap.counters {
            *self.counters.entry(name.clone()).or_default() += n;
        }
        let mut proposal: HashMap<(Option<u64>, usize), f64> = HashMap::new();
        for s in &unit.steps {
            let t = &s.timing;
            proposal.insert((s.task, s.iteration), proposal_s(t));
            self.proposer_ms.push(proposal_s(t) * 1e3);
            self.gp_fit_ms.push(t.gp_fit_s * 1e3);
            if s.dynamic {
                self.weights_ms.push(t.weight_update_s * 1e3);
            }
            if t.recommendation_s > ACQ_MIN_S {
                self.rec_ms.push(t.recommendation_s * 1e3);
            }
            if let Some(n) = s.active_learners {
                self.active_learners.push(n as f64);
            }
            self.proposal_s += proposal_s(t);
            self.gp_fit_s += t.gp_fit_s;
            self.weights_s += t.weight_update_s;
            self.rec_s += t.recommendation_s;
        }
        // A step's spans carry its tenant (fleet only) and iteration.
        let step_of =
            |ev: &SpanEvent| Some((TraceSnapshot::task_of(ev), field(ev, "iter")? as usize));
        // Drift work runs inside the step, after the engine commits.
        let mut drift: HashMap<(Option<u64>, usize), f64> = HashMap::new();
        for ev in snap
            .spans
            .iter()
            .filter(|ev| matches!(leaf(ev), "drift_check" | "drift_restart"))
        {
            if let Some(key) = step_of(ev) {
                *drift.entry(key).or_default() += ev.dur_s;
            }
        }
        for ev in snap.spans.iter().filter(|ev| leaf(ev) == "iteration") {
            let Some((key, p)) = step_of(ev).and_then(|k| Some((k, proposal.get(&k)?))) else {
                continue;
            };
            let engine = (ev.dur_s - p - drift.get(&key).copied().unwrap_or(0.0)).max(0.0);
            self.engine_us.push(engine * 1e6);
            self.engine_s += engine;
            self.step_s += ev.dur_s;
        }
        self.lift_us.extend(durations(snap, "space_lift", 1e6));
        self.seal_ms.extend(durations(snap, "drift_seal", 1e3));
        self.check_ms.extend(durations(snap, "drift_check", 1e3));
        self.embed_ms.extend(durations(snap, "workload_embed", 1e3));
        self.slice_ms.extend(&unit.slice_ms);
        self.busy_s += snap.total_for("tenant");
        self.capacity_s += unit.workers as f64 * unit.wall_s;
    }

    fn per_unit(&self, name: &str) -> f64 {
        share(
            self.counters.get(name).copied().unwrap_or(0) as f64,
            self.units as f64,
        )
    }

    /// Every per-layer metric, layer by layer. `setups` are the run's
    /// set-ups and `setup_counters` the program's counters over them.
    pub fn metrics(
        &self,
        setups: &[SetupTimes],
        setup_counters: &TraceSnapshot,
        overhead_pct: f64,
    ) -> Vec<Metric> {
        let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        let count = |name: &str| Metric::new(name, self.per_unit(name), "count");
        let (full, incremental) = (
            self.per_unit("gp.fit.full"),
            self.per_unit("gp.fit.incremental"),
        );
        let embed_ms = if self.embed_ms.is_empty() {
            setup(|s| s.embed_ms)
        } else {
            median(&self.embed_ms)
        };
        let acq_us = self.rec_ms.iter().sum::<f64>() * 1e3;
        let candidates = self
            .counters
            .get("acq.candidates_scored")
            .copied()
            .unwrap_or(0) as f64;
        let fit_dense = share(
            setup_counters.counter("repository.fit.dense") as f64,
            setups.len() as f64,
        );
        vec![
            Metric::new("proposer.ms_p50", median(&self.proposer_ms), "ms"),
            Metric::new(
                "proposer.share",
                share(self.proposal_s, self.step_s),
                "ratio",
            ),
            Metric::new("gp.fit_ms_p50", median(&self.gp_fit_ms), "ms"),
            Metric::new("gp.fit_ms_p90", quantile(&self.gp_fit_ms, 0.9), "ms"),
            Metric::new("gp.fit_share", share(self.gp_fit_s, self.step_s), "ratio"),
            count("gp.fit.full"),
            count("gp.fit.incremental"),
            Metric::new(
                "gp.incremental_ratio",
                share(incremental, incremental + full),
                "ratio",
            ),
            count("gp.hypers.refit"),
            count("linalg.cholesky.factor"),
            count("linalg.cholesky.solve"),
            count("linalg.cholesky.update"),
            Metric::new("meta.weights_ms_p50", median(&self.weights_ms), "ms"),
            Metric::new(
                "meta.weights_share",
                share(self.weights_s, self.step_s),
                "ratio",
            ),
            Metric::new("meta.active_learners", mean(&self.active_learners), "count"),
            count("meta.weight_updates"),
            Metric::new("acquisition.rec_ms_p50", median(&self.rec_ms), "ms"),
            Metric::new("acquisition.rec_ms_p90", quantile(&self.rec_ms, 0.9), "ms"),
            Metric::new("acquisition.share", share(self.rec_s, self.step_s), "ratio"),
            count("acq.candidates_scored"),
            Metric::new(
                "acquisition.us_per_candidate",
                share(acq_us, candidates),
                "us",
            ),
            Metric::new("engine.us_p50", median(&self.engine_us), "us"),
            Metric::new("engine.share", share(self.engine_s, self.step_s), "ratio"),
            count("dbsim.evals"),
            Metric::new("space.lift_us_p50", median(&self.lift_us), "us"),
            count("space.project"),
            Metric::new("drift.check_ms_p50", median(&self.check_ms), "ms"),
            Metric::new("drift.seal_ms_p50", median(&self.seal_ms), "ms"),
            count("drift.checks"),
            count("drift.restarts"),
            count("drift.epochs.sealed"),
            Metric::new("fleet.slice_ms_p50", median(&self.slice_ms), "ms"),
            Metric::new("fleet.slice_ms_p90", quantile(&self.slice_ms, 0.9), "ms"),
            Metric::new(
                "fleet.busy_share",
                share(self.busy_s, self.capacity_s),
                "ratio",
            ),
            count("fleet.store.commits"),
            count("fleet.store.snapshots"),
            count("fleet.tenant.panics"),
            Metric::new("repository.parse_s", setup(|s| s.parse_s), "s"),
            Metric::new("repository.fit_s", setup(|s| s.fit_s), "s"),
            Metric::new("repository.fit.dense", fit_dense, "count"),
            Metric::new("workload.train_s", setup(|s| s.train_s), "s"),
            Metric::new("workload.embed_ms", embed_ms, "ms"),
            Metric::new("trace.overhead_pct", overhead_pct, "%"),
        ]
    }
}

//! Fleet-scale multi-tenant tuning (DESIGN.md §12).
//!
//! ResTune's deployment is a cloud vendor tuning thousands of tenant
//! instances against one shared meta-repository (§4, §7.5). The per-instance
//! loop became a pluggable unit with the driver/engine/proposer split; this
//! module is the service layer above it:
//!
//! - [`FleetService`] runs many [`TuningDriver`]s concurrently on a
//!   persistent [`scheduler::WorkerPool`] — the parallel unit is the tenant,
//!   so each tenant's per-iteration fan-outs run inline on its worker.
//! - Tenants advance in **slices** of a few iterations: a slice batches its
//!   replay evaluations on one worker, then re-enqueues the tenant, so a
//!   thousand tenants round-robin fairly over a handful of threads.
//! - Iteration records stream back over a channel as each slice completes
//!   (async outcome ingestion); completed tenants commit their task record
//!   to the shared [`store::ShardedStore`], whose copy-on-write snapshots
//!   give sibling weight computations a consistent view mid-commit.
//! - Faults stay tenant-local: replay crash/timeout storms are absorbed by
//!   the engine's §9 resilience semantics, and a panicking tenant is caught
//!   at the slice boundary, reported as poisoned, and never stalls siblings.
//!
//! **Determinism contract:** a tenant's trace is a pure function of its own
//! driver state (engine seed schedule + proposer), never of scheduling.
//! Tenants read the repository via snapshots pinned *before* the fleet
//! starts, commit only on completion, and derive seeds from their id
//! ([`store::mix_seed`]) — so per-tenant outcomes, task-record JSON, and
//! golden digests are bit-identical at any worker count, and identical to a
//! single-driver run of the same configuration (pinned by
//! `tests/determinism.rs`, `tests/golden_methods.rs`, `tests/fleet.rs`).

pub mod health;
pub mod scheduler;
pub mod store;

pub use health::{Digest, FleetHealth, Straggler, TenantHealth};
pub use scheduler::{PoolHandle, WorkerPool};
pub use store::{mix_seed, CommitEntry, ShardedStore, StoreSnapshot};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use crate::drift::{DriftConfig, DriftController, FleetSealSink};
use crate::driver::{BoxProposer, Proposer, TuningDriver};
use crate::engine::{IterationRecord, TuningOutcome};
use crate::repository::TaskRecord;
use crate::tuner::{RestuneConfig, TuningEnvironment, TuningSession};
use workload::WorkloadCharacterizer;

/// Fleet service construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Persistent pool workers (defaults to the machine's parallelism).
    pub workers: usize,
    /// Iterations a tenant runs per scheduled slice before re-enqueueing
    /// (the replay-batching unit; fairness knob).
    pub slice: usize,
    /// Shards of the shared store.
    pub shards: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            slice: 4,
            shards: 16,
        }
    }
}

/// One tenant: an id, a label, an iteration budget, and a ready-to-run
/// driver (any strategy behind [`BoxProposer`]).
pub struct Tenant {
    /// Stable unique id — the seed/shard/trace identity. Outcomes depend on
    /// the id, never on the tenant's position in the submission order.
    pub id: u64,
    /// Task-record label (conventionally unique per tenant).
    pub name: String,
    /// Iterations to run.
    pub iters: usize,
    /// Meta-feature stored on the committed task record.
    pub meta_feature: Vec<f64>,
    /// The tuning loop to drive.
    pub driver: TuningDriver<BoxProposer>,
}

impl Tenant {
    /// Wraps an arbitrary-strategy driver as a tenant.
    pub fn new<P: Proposer + Send + 'static>(
        id: u64,
        name: impl Into<String>,
        iters: usize,
        meta_feature: Vec<f64>,
        driver: TuningDriver<P>,
    ) -> Tenant {
        Tenant { id, name: name.into(), iters, meta_feature, driver: driver.boxed() }
    }

    /// A ResTune-w/o-ML tenant. On a pool worker its recommend-side
    /// fan-outs run inline (DESIGN.md §8): the tenant is the parallel unit,
    /// and the inline path is bit-identical to a solo session's.
    pub fn restune(
        id: u64,
        name: impl Into<String>,
        env: TuningEnvironment,
        config: RestuneConfig,
        iters: usize,
    ) -> Tenant {
        Tenant::new(id, name, iters, Vec::new(), TuningSession::new(env, config))
    }

    /// A ResTune tenant with a drift controller (DESIGN.md §16): the live
    /// workload (typically evolving under a [`dbsim::WorkloadSchedule`]) is
    /// re-characterized on the controller's epoch clock, and a detected
    /// drift seals the tenant's pre-drift epoch into the shared `store` and
    /// warm-restarts with the matching records as transfer sources. The
    /// [`FleetSealSink`] pins the store's contents **now** — call before the
    /// fleet runs — so restarts never read siblings' live commits and the
    /// tenant's trace stays bit-identical at any worker count.
    #[allow(clippy::too_many_arguments)]
    pub fn restune_drift(
        id: u64,
        name: impl Into<String>,
        env: TuningEnvironment,
        config: RestuneConfig,
        iters: usize,
        drift: DriftConfig,
        characterizer: Arc<WorkloadCharacterizer>,
        store: Arc<ShardedStore>,
    ) -> Tenant {
        let name = name.into();
        let base_spec = env.dbms.workload().clone();
        let gp = config.gp.clone();
        let sink = Box::new(FleetSealSink::new(id, store, gp));
        let controller =
            DriftController::for_workload(drift, characterizer, &base_spec, name.clone(), sink);
        let mut tenant = Tenant::restune(id, name, env, config, iters);
        tenant.driver.set_drift(controller);
        tenant
    }
}

/// A finished (or poisoned) tenant's result.
#[derive(Debug, Clone)]
pub struct TenantResult {
    /// Tenant id.
    pub id: u64,
    /// Tenant label.
    pub name: String,
    /// The tuning outcome (partial when `panicked`).
    pub outcome: TuningOutcome,
    /// The task record committed to the shared store.
    pub record: TaskRecord,
    /// Whether the tenant's strategy panicked (the fleet caught it at the
    /// slice boundary; siblings were unaffected).
    pub panicked: bool,
    /// Iterations actually completed.
    pub iterations_run: usize,
}

impl TenantResult {
    /// The task record as byte-stable pretty JSON — the per-tenant artifact
    /// the determinism suite compares across worker counts.
    pub fn record_json(&self) -> Result<String, minjson::JsonError> {
        minjson::to_string_pretty(&self.record)
    }
}

/// Result of a fleet run.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-tenant results, ordered by tenant id (schedule-independent).
    pub tenants: Vec<TenantResult>,
    /// Wall-clock seconds for the whole fleet (the `fleet` span's duration).
    pub wall_s: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl FleetOutcome {
    /// Tenants per wall-clock second — the scaling metric of the
    /// `fleet_scaling` paper artifact (`BENCH_fleet.json`).
    pub fn tenants_per_s(&self) -> f64 {
        if self.wall_s <= 0.0 { 0.0 } else { self.tenants.len() as f64 / self.wall_s }
    }

    /// Results of tenants that panicked.
    pub fn poisoned(&self) -> impl Iterator<Item = &TenantResult> {
        self.tenants.iter().filter(|t| t.panicked)
    }
}

enum Event {
    Slice { id: u64, records: Vec<IterationRecord> },
    Done { result: Box<TenantResult> },
}

struct TenantState {
    id: u64,
    name: String,
    iters: usize,
    done: usize,
    meta_feature: Vec<f64>,
    driver: TuningDriver<BoxProposer>,
    panicked: bool,
}

/// The long-lived multi-tenant tuning service: a worker pool plus the shared
/// sharded store. One service can run successive fleets; records committed
/// by earlier generations are visible (via snapshots) to tenants built for
/// later ones.
pub struct FleetService {
    config: FleetConfig,
    store: Arc<ShardedStore>,
}

impl FleetService {
    /// A service with a fresh store.
    pub fn new(config: FleetConfig) -> Self {
        let shards = config.shards;
        FleetService { config, store: Arc::new(ShardedStore::new(shards)) }
    }

    /// A service over an existing store (e.g. a loaded historical
    /// repository).
    pub fn with_store(config: FleetConfig, store: Arc<ShardedStore>) -> Self {
        FleetService { config, store }
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Runs every tenant to completion and returns results ordered by id.
    pub fn run(&self, tenants: Vec<Tenant>) -> FleetOutcome {
        self.run_with(tenants, |_, _| {})
    }

    /// [`FleetService::run`] with a streaming observer: `on_records(id,
    /// slice_records)` fires on the ingestion thread as each tenant slice
    /// completes, in arrival order (per-tenant order is the iteration
    /// order; cross-tenant interleaving is schedule-dependent).
    ///
    /// # Panics
    ///
    /// If two tenants share an id (ids are the seed/shard/trace identity).
    pub fn run_with(
        &self,
        tenants: Vec<Tenant>,
        mut on_records: impl FnMut(u64, &[IterationRecord]),
    ) -> FleetOutcome {
        let n = tenants.len();
        let workers = self.config.workers.max(1);
        {
            let mut ids: Vec<u64> = tenants.iter().map(|t| t.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "fleet tenant ids must be unique");
        }
        let fleet_span = trace::span!("fleet", tenants = n, workers = workers);
        if n == 0 {
            return FleetOutcome { tenants: Vec::new(), wall_s: fleet_span.finish_s(), workers };
        }
        let ctx = trace::current_context();
        let pool = WorkerPool::new(workers);
        let (tx, rx) = channel::<Event>();
        let slice = self.config.slice.max(1);
        for t in tenants {
            let state = TenantState {
                id: t.id,
                name: t.name,
                iters: t.iters,
                done: 0,
                meta_feature: t.meta_feature,
                driver: t.driver,
                panicked: false,
            };
            pool.handle().submit(slice_job(
                state,
                ctx.clone(),
                tx.clone(),
                Arc::clone(&self.store),
                slice,
            ));
        }
        drop(tx);
        let mut results: Vec<TenantResult> = Vec::with_capacity(n);
        for event in rx.iter() {
            match event {
                Event::Slice { id, records } => on_records(id, &records),
                Event::Done { result } => {
                    results.push(*result);
                    if results.len() == n {
                        break;
                    }
                }
            }
        }
        pool.join();
        results.sort_by_key(|r| r.id);
        trace::count("fleet.tenants.completed", results.len() as u64);
        FleetOutcome { tenants: results, wall_s: fleet_span.finish_s(), workers }
    }
}

/// One scheduled slice of one tenant, as a pool job: enter the tenant's
/// trace task scope, run up to `slice` iterations under `catch_unwind`,
/// stream the new records, then re-enqueue the tenant or finalize it.
fn slice_job(
    mut st: TenantState,
    ctx: trace::TraceContext,
    tx: Sender<Event>,
    store: Arc<ShardedStore>,
    slice: usize,
) -> scheduler::Job {
    Box::new(move |handle| {
        // Task boundary: install the fleet's ambient path and tag every span
        // below with the tenant id; the guard resets the worker's span state
        // on exit, so reuse across tenants can never leak parent paths.
        let task_guard = trace::task_scope(&ctx, st.id);
        let slice_span = trace::span!("tenant", tenant = st.id, done = st.done);
        let budget = slice.min(st.iters - st.done);
        let mut records: Vec<IterationRecord> = Vec::with_capacity(budget);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..budget {
                records.push(st.driver.step());
            }
        }));
        st.done += records.len();
        if outcome.is_err() {
            st.panicked = true;
            trace::count("fleet.tenant.panics", 1);
        }
        let _ = slice_span.finish_s();
        let _ = tx.send(Event::Slice { id: st.id, records });
        if !st.panicked && st.done < st.iters {
            let next = slice_job(st, ctx.clone(), tx.clone(), store, slice);
            drop(task_guard);
            handle.submit(next);
        } else {
            finalize(st, &tx, &store);
        }
    })
}

/// Completes a tenant: renders its task record — via
/// [`EvalEngine::to_task_record`](crate::engine::EvalEngine::to_task_record),
/// which covers the tenant's *current epoch* (the whole run unless a drift
/// restart sealed earlier epochs mid-flight) — commits it to the shared
/// store, and reports the result.
fn finalize(st: TenantState, tx: &Sender<Event>, store: &ShardedStore) {
    let TenantState { id, name, done, meta_feature, driver, panicked, .. } = st;
    let record: TaskRecord = driver.engine().to_task_record(&name, meta_feature);
    let outcome = driver.into_outcome();
    store.commit_shared(id, Arc::new(record.clone()));
    let result =
        TenantResult { id, name, outcome, record, panicked, iterations_run: done };
    let _ = tx.send(Event::Done { result: Box::new(result) });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::AcquisitionOptimizer;
    use crate::problem::ResourceKind;
    use dbsim::{InstanceType, KnobSet, WorkloadSpec};

    fn quick_config(seed: u64) -> RestuneConfig {
        RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 120, n_local: 30, local_sigma: 0.1 },
            gp: gp::GpConfig { restarts: 1, adam_iters: 8, ..Default::default() },
            dynamic_samples: 6,
            seed,
            ..Default::default()
        }
    }

    fn tenant(id: u64, iters: usize) -> Tenant {
        let seed = mix_seed(0xF1EE7, id);
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(seed)
            .build();
        Tenant::restune(id, format!("tenant-{id}"), env, quick_config(seed), iters)
    }

    #[test]
    fn fleet_runs_all_tenants_and_commits_their_records() {
        let service =
            FleetService::new(FleetConfig { workers: 3, slice: 2, shards: 4 });
        let mut streamed = 0usize;
        let out = service.run_with((0..5).map(|i| tenant(i, 5)).collect(), |_, rs| {
            streamed += rs.len();
        });
        assert_eq!(out.tenants.len(), 5);
        assert_eq!(streamed, 25, "every record streams through the ingestion channel");
        for (i, t) in out.tenants.iter().enumerate() {
            assert_eq!(t.id, i as u64, "results are ordered by id");
            assert_eq!(t.iterations_run, 5);
            assert!(!t.panicked);
            assert_eq!(t.outcome.history.len(), 5);
            // Record: default anchor + one observation per iteration.
            assert_eq!(t.record.observations.len(), 6);
            assert_eq!(t.record.task_id, format!("tenant-{i}"));
        }
        let snap = service.store().snapshot();
        assert_eq!(snap.n_records(), 5);
        assert_eq!(snap.to_repository().len(), 5);
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let out = FleetService::new(FleetConfig::default()).run(Vec::new());
        assert!(out.tenants.is_empty());
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_tenant_ids_are_rejected() {
        let service = FleetService::new(FleetConfig::default());
        service.run(vec![tenant(1, 2), tenant(1, 2)]);
    }

    struct PanickingProposer {
        after: usize,
        calls: usize,
    }

    impl Proposer for PanickingProposer {
        fn propose(
            &mut self,
            view: &crate::engine::HistoryView<'_>,
            _iter: usize,
            _seed: u64,
        ) -> crate::driver::Proposal {
            self.calls += 1;
            if self.calls > self.after {
                panic!("tenant strategy blew up");
            }
            crate::driver::Proposal::point(vec![0.5; view.problem.dim()])
        }
    }

    #[test]
    fn a_panicking_tenant_is_poisoned_but_completes_the_fleet() {
        use crate::engine::EvalEngine;
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(3)
            .build();
        let engine = EvalEngine::new(env, false);
        let bad = Tenant::new(
            9,
            "poisoned",
            6,
            Vec::new(),
            TuningDriver::from_parts(engine, PanickingProposer { after: 3, calls: 0 }, 0),
        );
        let service = FleetService::new(FleetConfig { workers: 2, slice: 2, shards: 2 });
        let out = service.run(vec![tenant(0, 4), bad, tenant(2, 4)]);
        assert_eq!(out.tenants.len(), 3);
        let poisoned: Vec<u64> = out.poisoned().map(|t| t.id).collect();
        assert_eq!(poisoned, vec![9]);
        let bad_result = out.tenants.iter().find(|t| t.id == 9).unwrap();
        assert_eq!(bad_result.iterations_run, 3, "records up to the panic are kept");
        for id in [0usize, 2] {
            let t = out.tenants.iter().find(|t| t.id == id as u64).unwrap();
            assert!(!t.panicked);
            assert_eq!(t.iterations_run, 4);
        }
        // The poisoned tenant still committed its partial record.
        assert_eq!(service.store().snapshot().n_records(), 3);
    }
}

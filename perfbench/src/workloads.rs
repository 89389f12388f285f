//! The three workloads: the inputs each generates from the seed, its timed
//! set-up, and its unit of timed work (one tuning session, or one fleet
//! round). Every loop is closed: a session's or tenant's next step waits for
//! its previous one, and the only threads are the program's own.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSchedule, WorkloadSpec};
use restune_core::drift::{DriftConfig, DriftController, FleetSealSink};
use restune_core::fleet::{mix_seed, FleetConfig, FleetService, ShardedStore, Tenant};
use restune_core::meta::BaseLearner;
use restune_core::problem::ResourceKind;
use restune_core::repository::{DataRepository, TaskRecord};
use restune_core::space::{projected_space, Projection};
use restune_core::tuner::{
    IterationRecord, IterationTiming, RestuneConfig, TuningEnvironment, TuningSession,
};
use workload::WorkloadCharacterizer;

use crate::layers::{TimedSink, TimedTransform};
use crate::measure;

/// Units every timed run measures however short `--seconds` is: enough to
/// average out how much a unit's cost depends on its seed and the host's
/// speed swings. The deterministic quality metrics average over these units.
pub const MIN_UNITS: usize = 5;
/// `meta_repo` session length: the target history passes the 50-point cap
/// on the ranking loss (`RestuneConfig::max_rank_points`).
const META_STEPS: usize = 52;
/// `solo_long` session length: the history passes n = 100, so hyperparameter
/// refits every 5 iterations and the rank-1 appends between them both run.
const SOLO_STEPS: usize = 110;
/// Observations per repository task (the default plus LHS samples), as in the
/// paper's 34-task repository.
const REPO_TASK_OBS: usize = 60;
const FLEET_TENANTS: u64 = 64;
const FLEET_ITERS: usize = 20;
/// HeSBO search dimension of the 200-knob fleet tenants.
const FLEET_PROJECTED_DIM: usize = 8;
/// Base-learner fits use the settings of `restune tune --repo`.
fn repository_gp() -> gp::GpConfig {
    gp::GpConfig {
        restarts: 1,
        adam_iters: 25,
        ..Default::default()
    }
}

fn fleet_drift() -> DriftConfig {
    DriftConfig {
        check_every: 2,
        min_epoch_iters: 6,
        ..Default::default()
    }
}

/// The `k`-th input seed derived from the workload seed. 32 bits, so the
/// library's `seed + i` offsets stay far from overflow.
pub fn derive(seed: u64, k: u64) -> u64 {
    mix_seed(seed, k) >> 32
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MetaRepo,
    SoloLong,
    FleetMixed,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::MetaRepo, Kind::SoloLong, Kind::FleetMixed];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MetaRepo => "meta_repo",
            Kind::SoloLong => "solo_long",
            Kind::FleetMixed => "fleet_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Set-ups per run; `setup_s` is their median. The multi-second
    /// set-ups that parse the repository run 3 times, the sub-100 ms fleet
    /// set-up more to steady the median.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::MetaRepo | Kind::SoloLong => 3,
            Kind::FleetMixed => 15,
        }
    }

    /// Why a workload is left out of the workloads `BENCHMARK.json` gates.
    pub fn ungated_reason(self) -> Option<&'static str> {
        (self == Kind::MetaRepo).then_some(
            "not gated: a session's cost follows how many of its 35 learners stay active, \
             which varies by seed, so over 10 seeds the IQR/median of steps_per_s and the \
             step percentiles measured 0.19 to 0.28 on a 2-vCPU host, over the largest \
             bound BENCHMARK.json allows (0.25); run it for the repository-fit and \
             35-learner ensemble split",
        )
    }

    fn is_fleet(self) -> bool {
        self == Kind::FleetMixed
    }
}

/// How a unit is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instrument {
    /// The program exactly as a user calls it.
    Plain,
    /// With the benchmark's timing wrappers around the public
    /// `SpaceTransform` and `SealSink` seams, observing fleet slice arrivals.
    Wrapped,
}

/// Scale of a workload; tests shrink it.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub steps: usize,
    pub tenants: u64,
    pub repo_workloads: usize,
}

impl Scale {
    pub fn full(kind: Kind) -> Scale {
        let steps = match kind {
            Kind::MetaRepo => META_STEPS,
            Kind::SoloLong => SOLO_STEPS,
            Kind::FleetMixed => FLEET_ITERS,
        };
        Scale {
            steps,
            tenants: FLEET_TENANTS,
            repo_workloads: usize::MAX,
        }
    }
}

/// What the program receives: generated from the seed, nothing else.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub scale: Scale,
    /// The data repository as JSON: the transfer source of `meta_repo`, the
    /// history file `solo_long` appends its finished tasks to (empty for the
    /// fleet).
    pub repository_json: String,
}

impl Inputs {
    /// Generates the inputs. The sessions' repository is the paper's: 17
    /// workloads × instances A and B, each task `REPO_TASK_OBS` seeded
    /// observations with its workload meta-feature.
    pub fn generate(kind: Kind, seed: u64, scale: Scale) -> Inputs {
        let mut repository_json = String::new();
        if !kind.is_fleet() {
            let characterizer = WorkloadCharacterizer::train_default(derive(seed, 1));
            let mut repo = DataRepository::new();
            let catalog = WorkloadSpec::repository_catalog();
            for (i, spec) in catalog.into_iter().take(scale.repo_workloads).enumerate() {
                for (j, instance) in [InstanceType::A, InstanceType::B].into_iter().enumerate() {
                    let task = (2 * i + j) as u64;
                    let mut dbms =
                        SimulatedDbms::new(instance, spec.clone(), derive(seed, 100 + task));
                    repo.add(TaskRecord::collect(
                        &mut dbms,
                        &KnobSet::cpu(),
                        ResourceKind::Cpu,
                        &characterizer,
                        REPO_TASK_OBS - 1,
                        derive(seed, 200 + task),
                    ));
                }
            }
            repository_json = repo
                .to_json()
                .expect("a generated repository renders as JSON");
        }
        Inputs {
            kind,
            seed,
            scale,
            repository_json,
        }
    }
}

/// Durations of one set-up and its parts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub parse_s: f64,
    pub fit_s: f64,
    pub train_s: f64,
    pub embed_ms: f64,
}

/// The state set-up leaves for the units.
pub struct Prepared {
    characterizer: Arc<WorkloadCharacterizer>,
    repository: DataRepository,
    learners: Vec<BaseLearner>,
    meta_feature: Vec<f64>,
    /// Unit 0, built as the last part of set-up.
    first: Option<Built>,
}

enum Built {
    Session(Box<TuningSession>),
    Fleet(Vec<Tenant>, Arc<ShardedStore>),
}

/// One set-up: everything from workload start to the first timed step.
pub fn setup(inputs: &Inputs) -> (Prepared, SetupTimes) {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut learners = Vec::new();
    let mut repository = DataRepository::new();
    if !inputs.kind.is_fleet() {
        let span = trace::span!("repository_parse");
        repository = DataRepository::from_json(&inputs.repository_json)
            .expect("the generated repository parses");
        times.parse_s = span.finish_s();
    }
    if inputs.kind == Kind::MetaRepo {
        let span = trace::span!("repository_fit");
        let knobs = KnobSet::cpu();
        learners = repository.base_learners(&repository_gp(), |t| {
            t.knob_names == knobs.names()
                && t.space_id == "native"
                && t.resource == ResourceKind::Cpu
        });
        times.fit_s = span.finish_s();
    }
    let span = trace::span!("workload_train");
    let characterizer = Arc::new(WorkloadCharacterizer::train_default(derive(inputs.seed, 1)));
    times.train_s = span.finish_s();
    let mut meta_feature = Vec::new();
    if !inputs.kind.is_fleet() {
        let span = trace::span!("workload_embed");
        meta_feature = characterizer
            .embed_workload(&WorkloadSpec::twitter(), derive(inputs.seed, 2))
            .probs;
        times.embed_ms = span.finish_s() * 1e3;
    }
    let mut prepared = Prepared {
        characterizer,
        repository,
        learners,
        meta_feature,
        first: None,
    };
    prepared.first = Some(build(inputs, &prepared, 0, Instrument::Plain));
    times.total_s = start.elapsed().as_secs_f64();
    (prepared, times)
}

fn build(inputs: &Inputs, prepared: &Prepared, index: usize, instrument: Instrument) -> Built {
    let seed = derive(inputs.seed, 1000 + index as u64);
    if inputs.kind.is_fleet() {
        let store = Arc::new(ShardedStore::new(FleetConfig::default().shards));
        let tenants = (0..inputs.scale.tenants)
            .map(|id| fleet_tenant(inputs, prepared, seed, id, &store, instrument))
            .collect();
        return Built::Fleet(tenants, store);
    }
    let env = TuningEnvironment::builder()
        .instance(InstanceType::A)
        .workload(WorkloadSpec::twitter())
        .resource(ResourceKind::Cpu)
        .knob_set(KnobSet::cpu())
        .seed(seed)
        .build();
    let config = RestuneConfig {
        seed,
        ..Default::default()
    };
    Built::Session(Box::new(match inputs.kind {
        Kind::MetaRepo => TuningSession::with_base_learners(
            env,
            config,
            prepared.learners.clone(),
            prepared.meta_feature.clone(),
        ),
        _ => TuningSession::new(env, config),
    }))
}

/// Tenant `id` of a fleet round. Ids cycle through three kinds: a quarter
/// native 14-knob tenants, a quarter 200-knob tenants searched through HeSBO,
/// and half drifting OLTP→OLAP tenants on instance B that warm-restart into
/// the shared store.
fn fleet_tenant(
    inputs: &Inputs,
    prepared: &Prepared,
    round_seed: u64,
    id: u64,
    store: &Arc<ShardedStore>,
    instrument: Instrument,
) -> Tenant {
    let seed = derive(round_seed, id);
    let config = RestuneConfig {
        seed,
        ..Default::default()
    };
    let iters = inputs.scale.steps;
    let spec = WorkloadSpec::fleet_tenant(id);
    let env = TuningEnvironment::builder()
        .workload(spec.clone())
        .resource(ResourceKind::Cpu)
        .seed(seed);
    match id % 4 {
        0 => {
            let env = env
                .instance(InstanceType::A)
                .knob_set(KnobSet::cpu())
                .build();
            Tenant::restune(id, format!("native-{id}"), env, config, iters)
        }
        1 => {
            let knobs = KnobSet::extended();
            let mut space = projected_space(
                &knobs,
                Projection::Hesbo,
                FLEET_PROJECTED_DIM,
                seed,
                Some(64),
                Some(0.2),
            );
            if instrument == Instrument::Wrapped {
                space = Arc::new(TimedTransform::new(space));
            }
            let env = env
                .instance(InstanceType::A)
                .knob_set(knobs)
                .space(space)
                .build();
            Tenant::restune(id, format!("hesbo-{id}"), env, config, iters)
        }
        _ => {
            let env = env
                .instance(InstanceType::B)
                .knob_set(KnobSet::cpu())
                .schedule(WorkloadSchedule::oltp_to_olap(seed, 6, 2))
                .build();
            let name = format!("drift-{id}");
            let characterizer = Arc::clone(&prepared.characterizer);
            if instrument == Instrument::Plain {
                return Tenant::restune_drift(
                    id,
                    name,
                    env,
                    config,
                    iters,
                    fleet_drift(),
                    characterizer,
                    Arc::clone(store),
                );
            }
            // `Tenant::restune_drift` by hand, with the sink wrapped and the
            // reference embedding timed.
            let sink = TimedSink::new(FleetSealSink::new(id, Arc::clone(store), config.gp.clone()));
            let span = trace::span!("workload_embed");
            let reference = characterizer
                .embed_workload(&spec, fleet_drift().embed_seed)
                .probs;
            let _ = span.finish_s();
            let controller = DriftController::new(
                fleet_drift(),
                characterizer,
                reference,
                name.clone(),
                Box::new(sink),
            );
            let mut tenant = Tenant::restune(id, name, env, config, iters);
            tenant.driver.set_drift(controller);
            tenant
        }
    }
}

/// One step as the benchmark saw it.
#[derive(Clone, Debug)]
pub struct StepSample {
    /// Fleet tenant id (`None` for a solo session).
    pub task: Option<u64>,
    pub iteration: usize,
    /// Wall time around `TuningSession::step` for sessions; for fleet
    /// tenants, whose steps run inside `FleetService`, the step's measured
    /// algorithm time (the `IterationTiming` wall fields).
    pub wall_s: f64,
    pub timing: IterationTiming,
    /// Nonzero ensemble weights, when meta-learning was active.
    pub active_learners: Option<usize>,
    /// Whether the step learned ranking-loss (dynamic) weights.
    pub dynamic: bool,
}

impl StepSample {
    fn new(
        task: Option<u64>,
        r: &IterationRecord,
        wall_s: Option<f64>,
        epoch_start: usize,
    ) -> StepSample {
        let init_iters = RestuneConfig::default().init_iters;
        StepSample {
            task,
            iteration: r.iteration,
            wall_s: wall_s.unwrap_or_else(|| proposal_s(&r.timing)),
            timing: r.timing,
            active_learners: r
                .weights
                .as_ref()
                .map(|w| w.iter().filter(|v| **v > 0.0).count()),
            dynamic: r.weights.is_some() && r.iteration >= epoch_start + init_iters,
        }
    }
}

/// The proposal side of a step: scale unification, model update (GP fits and
/// weights) and recommendation.
pub fn proposal_s(t: &IterationTiming) -> f64 {
    t.meta_data_processing_s + t.model_update_s + t.recommendation_s
}

/// What one unit measured and how its outputs checked out.
#[derive(Debug, Default)]
pub struct UnitResult {
    pub steps: Vec<StepSample>,
    /// Wall time of the timed part: the sum of step times for a session,
    /// the `FleetService::run` call for a fleet round.
    pub wall_s: f64,
    pub workers: usize,
    pub digest: u64,
    pub reduction_pct: f64,
    pub converge_iter: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Fleet: per tenant, the time between consecutive slice arrivals.
    pub slice_ms: Vec<f64>,
}

/// Runs unit `index` (its seed derives from the workload seed and `index`)
/// and checks its outputs.
pub fn run_unit(
    inputs: &Inputs,
    prepared: &mut Prepared,
    index: usize,
    instrument: Instrument,
) -> UnitResult {
    let built = match prepared.first.take() {
        Some(b) if index == 0 && instrument == Instrument::Plain => b,
        _ => build(inputs, prepared, index, instrument),
    };
    match built {
        Built::Session(session) => run_session(inputs, prepared, *session),
        Built::Fleet(tenants, store) => run_fleet(inputs, tenants, store, instrument),
    }
}

fn run_session(inputs: &Inputs, prepared: &Prepared, mut session: TuningSession) -> UnitResult {
    let budget = inputs.scale.steps;
    let mut unit = UnitResult {
        workers: 1,
        ..Default::default()
    };
    for _ in 0..budget {
        let start = Instant::now();
        let record = std::hint::black_box(session.step());
        let wall_s = start.elapsed().as_secs_f64();
        unit.wall_s += wall_s;
        unit.steps
            .push(StepSample::new(None, &record, Some(wall_s), 0));
    }
    // Store the finished task as `restune tune --save-repo` does: append it
    // to the history repository and render the file.
    let driver = session.into_driver();
    let record = driver
        .engine()
        .to_task_record("twitter@A", prepared.meta_feature.clone());
    let observations = record.observations.len();
    let mut history = prepared.repository.clone();
    history.add(record);
    let saved = history.to_json();
    let outcome = driver.into_outcome();
    let (mut failed, mut problems) =
        measure::check_outcome(&outcome, budget, KnobSet::cpu().dim(), 1, "session");
    if observations != budget + 1 || saved.is_err() {
        problems.push(format!(
            "session: stored task holds {observations} observations ({:?})",
            saved.err()
        ));
        failed = budget as u64;
    }
    unit.attempted = budget as u64;
    unit.failed = failed;
    unit.problems = problems;
    unit.digest = measure::outcome_digest(&outcome);
    unit.reduction_pct = measure::reduction_pct(&outcome);
    unit.converge_iter = measure::converge_iter(&outcome, budget);
    unit
}

fn run_fleet(
    inputs: &Inputs,
    tenants: Vec<Tenant>,
    store: Arc<ShardedStore>,
    instrument: Instrument,
) -> UnitResult {
    let budget = inputs.scale.steps;
    let service = FleetService::with_store(FleetConfig::default(), Arc::clone(&store));
    let start = Instant::now();
    let mut slice_ms = Vec::new();
    let out = if instrument == Instrument::Wrapped {
        let mut last: BTreeMap<u64, Instant> = BTreeMap::new();
        service.run_with(tenants, |id, _| {
            let now = Instant::now();
            let prev = last.insert(id, now).unwrap_or(start);
            slice_ms.push(now.duration_since(prev).as_secs_f64() * 1e3);
        })
    } else {
        service.run(tenants)
    };
    let wall_s = start.elapsed().as_secs_f64();
    // A tenant commits each sealed epoch and then its final record.
    let mut epochs: BTreeMap<u64, usize> = BTreeMap::new();
    for entry in store.snapshot().entries_by_tenant() {
        *epochs.entry(entry.tenant).or_default() += 1;
    }
    let attempted = budget as u64 * inputs.scale.tenants;
    let mut unit = UnitResult {
        wall_s,
        workers: out.workers,
        slice_ms,
        attempted,
        ..Default::default()
    };
    let (mut reductions, mut converge) = (Vec::new(), Vec::new());
    for t in &out.tenants {
        let dim = if t.id % 4 == 1 {
            FLEET_PROJECTED_DIM
        } else {
            KnobSet::cpu().dim()
        };
        let label = format!("tenant {}", t.id);
        let (mut failed, mut problems) = measure::check_outcome(
            &t.outcome,
            budget,
            dim,
            epochs.get(&t.id).copied().unwrap_or(0),
            &label,
        );
        if t.panicked {
            problems.push(format!(
                "{label}: poisoned after {} iterations",
                t.iterations_run
            ));
            failed = budget as u64;
        }
        unit.failed += failed;
        unit.problems.extend(problems);
        let epoch_start = (t.outcome.history.len() + 1).saturating_sub(t.record.observations.len());
        unit.steps.extend(
            t.outcome
                .history
                .iter()
                .map(|r| StepSample::new(Some(t.id), r, None, epoch_start)),
        );
        reductions.push(measure::reduction_pct(&t.outcome));
        converge.push(measure::converge_iter(&t.outcome, budget));
    }
    if out.tenants.len() as u64 != inputs.scale.tenants {
        unit.problems.push(format!(
            "fleet: {} of {} tenants reported",
            out.tenants.len(),
            inputs.scale.tenants
        ));
        unit.failed += budget as u64
            * inputs
                .scale
                .tenants
                .saturating_sub(out.tenants.len() as u64);
    }
    unit.digest = measure::fold_digests(
        out.tenants
            .iter()
            .map(|t| measure::outcome_digest(&t.outcome)),
    );
    unit.reduction_pct = measure::mean(&reductions);
    unit.converge_iter = measure::mean(&converge);
    unit
}

//! The data repository (§4): meta-features and observation histories of past
//! tuning tasks, from which base-learners are built.
//!
//! The paper's repository holds 34 past tasks — 17 workloads × 2 hardware
//! environments, 6 400 observations total — each a set of
//! `(θ, f_res, f_tps, f_lat)` tuples plus a workload meta-feature.

use crate::meta::BaseLearner;
use crate::problem::ResourceKind;
use crate::surrogate::GpTaskModel;
use dbsim::{Configuration, InstanceType, KnobSet, SimulatedDbms};
use gp::GpConfig;
use workload::WorkloadCharacterizer;

/// One stored observation of a historical task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskObservation {
    /// Normalized knob point.
    pub point: Vec<f64>,
    /// Raw resource-objective value.
    pub res: f64,
    /// Raw throughput.
    pub tps: f64,
    /// Raw p99 latency (ms).
    pub lat: f64,
    /// Internal metrics vector (for OtterTune-style mapping).
    pub metrics: Vec<f64>,
}

/// Why a stored task yields no base learner.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseLearnerError {
    /// The task stores no observations: nothing to fit, and no point to
    /// give the width of its search space.
    NoObservations,
    /// The GP fit rejected the task's history.
    Fit(gp::GpError),
}

impl std::fmt::Display for BaseLearnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaseLearnerError::NoObservations => write!(f, "the task stores no observations"),
            BaseLearnerError::Fit(e) => write!(f, "base-learner fit failed: {e}"),
        }
    }
}

impl std::error::Error for BaseLearnerError {}

impl From<gp::GpError> for BaseLearnerError {
    fn from(e: gp::GpError) -> Self {
        BaseLearnerError::Fit(e)
    }
}

/// A complete historical tuning task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Unique label, conventionally `workload@instance`.
    pub task_id: String,
    /// Workload name.
    pub workload: String,
    /// Hardware environment.
    pub instance: InstanceType,
    /// Resource the task tuned.
    pub resource: ResourceKind,
    /// Knob names of the native knob space (order = native point order).
    pub knob_names: Vec<String>,
    /// Identity of the search space the points live in
    /// ([`crate::problem::SpaceInfo::id`]): `"native"` for untransformed
    /// tasks, a transform id string otherwise. Meta-transfer requires both
    /// the knob names *and* this id to match — low-dimensional coordinates
    /// from different random projections are not comparable.
    pub space_id: String,
    /// Workload meta-feature (§6.2).
    pub meta_feature: Vec<f64>,
    /// Observation history.
    pub observations: Vec<TaskObservation>,
}

impl TaskRecord {
    /// Collects a fresh task record by LHS-sampling `n` configurations on a
    /// simulated DBMS (how the experiment harnesses bootstrap the repository).
    pub fn collect(
        dbms: &mut SimulatedDbms,
        knob_set: &KnobSet,
        resource: ResourceKind,
        characterizer: &WorkloadCharacterizer,
        n: usize,
        seed: u64,
    ) -> TaskRecord {
        let meta_feature = characterizer.embed_workload(dbms.workload(), seed).probs;
        let workload_name = dbms.workload().name.clone();
        let instance = dbms.instance();
        let base = Configuration::dba_default();
        let mut observations = Vec::with_capacity(n + 1);
        // Always include the default point (it anchors the SLA semantics)
        // plus the full `n` LHS samples: `n + 1` observations total.
        let mut points = vec![knob_set.default_point()];
        let lhs = crate::lhs::latin_hypercube(n, knob_set.dim(), seed);
        points.extend(lhs.iter_rows().map(<[f64]>::to_vec));
        for point in points {
            let config = knob_set.to_configuration(&point, &base);
            let obs = dbms.evaluate(&config);
            observations.push(TaskObservation {
                point,
                res: resource.value(&obs),
                tps: obs.tps,
                lat: obs.p99_ms,
                metrics: obs.internal.to_vec(),
            });
        }
        TaskRecord {
            task_id: format!("{}@{}", workload_name, instance.name()),
            workload: workload_name,
            instance,
            resource,
            knob_names: knob_set.names().to_vec(),
            space_id: "native".to_string(),
            meta_feature,
            observations,
        }
    }

    /// Fits this task's frozen base-learner: one exact GP per metric over
    /// the whole history (a few hundred observations per task in the
    /// paper's repository), counted by `repository.fit.dense`.
    pub fn to_base_learner(&self, config: &GpConfig) -> Result<BaseLearner, BaseLearnerError> {
        // The points live in the task's search space, whose width the first
        // point gives; a point of another width fails the fit.
        let first = self.observations.first().ok_or(BaseLearnerError::NoObservations)?;
        let points = linalg::Matrix::from_rows(
            first.point.len(),
            self.observations.iter().map(|o| &o.point),
        )
        .map_err(gp::GpError::from)?;
        let res: Vec<f64> = self.observations.iter().map(|o| o.res).collect();
        let tps: Vec<f64> = self.observations.iter().map(|o| o.tps).collect();
        let lat: Vec<f64> = self.observations.iter().map(|o| o.lat).collect();
        trace::count("repository.fit.dense", 1);
        let model = GpTaskModel::fit(points, &res, &tps, &lat, config)?;
        Ok(BaseLearner {
            task_id: self.task_id.clone(),
            workload: self.workload.clone(),
            instance: self.instance,
            meta_feature: self.meta_feature.clone(),
            promising_point: self.promising_point(),
            model,
        })
    }

    /// The best stored point that met this task's own SLA (taken relative to
    /// the first observation, which `collect` pins to the default
    /// configuration), with the usual 5 % tolerance.
    pub fn promising_point(&self) -> Option<Vec<f64>> {
        let first = self.observations.first()?;
        let (tps_floor, lat_ceiling) = (first.tps * 0.95, first.lat * 1.05);
        // Non-finite objectives are filtered and the minimum is taken under a
        // total order: no stored history, however corrupt, panics this
        // ranking (a NaN tps/lat already fails the SLA comparisons).
        self.observations
            .iter()
            .filter(|o| o.res.is_finite() && o.tps >= tps_floor && o.lat <= lat_ceiling)
            .min_by(|a, b| a.res.total_cmp(&b.res))
            .map(|o| o.point.clone())
    }

    /// Mean internal-metrics vector over the task's observations (OtterTune's
    /// workload signature).
    pub fn mean_metrics(&self) -> Vec<f64> {
        if self.observations.is_empty() {
            return Vec::new();
        }
        let dim = self.observations[0].metrics.len();
        let mut acc = vec![0.0; dim];
        for o in &self.observations {
            for (a, v) in acc.iter_mut().zip(&o.metrics) {
                *a += v;
            }
        }
        let n = self.observations.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

/// The repository of historical tasks.
#[derive(Debug, Clone, Default)]
pub struct DataRepository {
    tasks: Vec<TaskRecord>,
}

impl DataRepository {
    /// An empty repository.
    pub fn new() -> Self {
        DataRepository::default()
    }

    /// Adds a completed task.
    pub fn add(&mut self, task: TaskRecord) {
        self.tasks.push(task);
    }

    /// All stored tasks.
    pub fn tasks(&self) -> &[TaskRecord] {
        &self.tasks
    }

    /// Number of stored tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total observations across tasks.
    pub fn n_observations(&self) -> usize {
        self.tasks.iter().map(|t| t.observations.len()).sum()
    }

    /// Builds base-learners for every task matching `keep`.
    ///
    /// The evaluation's three settings map to filters: *original* keeps all,
    /// *varying workloads* drops the target workload's tasks, *varying
    /// hardware* drops tasks from the target's instance. A task that yields
    /// no learner ([`TaskRecord::to_base_learner`]'s error) is dropped too.
    pub fn base_learners(
        &self,
        config: &GpConfig,
        mut keep: impl FnMut(&TaskRecord) -> bool,
    ) -> Vec<BaseLearner> {
        self.tasks
            .iter()
            .filter(|t| keep(t))
            .filter_map(|t| t.to_base_learner(config).ok())
            .collect()
    }

    /// Serializes to pretty JSON. The output is byte-stable: identical
    /// repositories always render to identical text (insertion-ordered
    /// fields, shortest round-trip floats), which the end-to-end
    /// determinism test relies on.
    pub fn to_json(&self) -> Result<String, minjson::JsonError> {
        minjson::to_string_pretty(self)
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Self, minjson::JsonError> {
        minjson::from_str(json)
    }

    /// Saves to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(std::io::Error::other)
    }
}

minjson::json_struct!(TaskObservation { point, res, tps, lat, metrics });
minjson::json_struct!(TaskRecord {
    task_id,
    workload,
    instance,
    resource,
    knob_names,
    space_id,
    meta_feature,
    observations,
});
minjson::json_struct!(DataRepository { tasks });

#[cfg(test)]
mod tests {
    use super::*;
    use dbsim::WorkloadSpec;

    fn sample_record() -> TaskRecord {
        let characterizer = WorkloadCharacterizer::train_default(1);
        let mut dbms = SimulatedDbms::new(InstanceType::B, WorkloadSpec::twitter(), 3);
        TaskRecord::collect(
            &mut dbms,
            &KnobSet::case_study(),
            ResourceKind::Cpu,
            &characterizer,
            12,
            5,
        )
    }

    #[test]
    fn collect_produces_default_plus_lhs_points() {
        // "LHS-sampling n configurations" means exactly that: the default
        // anchor plus n LHS points, n + 1 observations total (the historical
        // off-by-one silently dropped one LHS sample).
        let rec = sample_record();
        assert_eq!(rec.observations.len(), 12 + 1);
        assert_eq!(rec.task_id, "Twitter@B");
        assert_eq!(rec.knob_names.len(), 3);
        // First observation is the default point.
        let def = KnobSet::case_study().default_point();
        assert_eq!(rec.observations[0].point, def);
        // The remaining 12 are the LHS samples, none the default.
        assert_eq!(rec.observations.iter().skip(1).filter(|o| o.point != def).count(), 12);
        assert!(!rec.meta_feature.is_empty());
    }

    #[test]
    fn base_learner_fits_from_record() {
        let rec = sample_record();
        let learner = rec.to_base_learner(&GpConfig::fixed()).unwrap();
        assert_eq!(learner.task_id, "Twitter@B");
        assert_eq!(learner.model.n(), 13);
        // A task with no observations has nothing to fit.
        let empty = TaskRecord { observations: Vec::new(), ..rec };
        let err = empty.to_base_learner(&GpConfig::fixed()).err();
        assert_eq!(err, Some(BaseLearnerError::NoObservations));
    }

    #[test]
    fn repository_roundtrips_through_json() {
        let mut repo = DataRepository::new();
        repo.add(sample_record());
        let json = repo.to_json().unwrap();
        let back = DataRepository::from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.tasks()[0], repo.tasks()[0]);
    }

    #[test]
    fn non_finite_values_are_rejected_at_serialization() {
        // JSON has no NaN/Infinity; the serializer must fail loudly rather
        // than write an unparseable repository.
        let mut rec = sample_record();
        rec.observations[0].tps = f64::NAN;
        let mut repo = DataRepository::new();
        repo.add(rec);
        assert!(repo.to_json().is_err(), "NaN must not serialize");

        let mut rec2 = sample_record();
        rec2.observations[1].res = f64::INFINITY;
        let mut repo2 = DataRepository::new();
        repo2.add(rec2);
        assert!(repo2.to_json().is_err(), "infinity must not serialize");
    }

    #[test]
    fn non_finite_tokens_are_rejected_at_parse() {
        for bad in ["{\"tasks\": [NaN]}", "{\"tasks\": Infinity}", "{\"tasks\": [-Infinity]}"] {
            assert!(DataRepository::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn extreme_floats_roundtrip_exactly() {
        // Knob bounds and observations span many orders of magnitude; the
        // shortest-round-trip float formatting must preserve every bit.
        let mut rec = sample_record();
        rec.observations[0].point = vec![0.1, 2.0 / 3.0, 1e-17, 1.0 - f64::EPSILON, 4e18];
        rec.observations[0].res = f64::MIN_POSITIVE;
        rec.observations[0].tps = 1e308;
        rec.observations[0].lat = 0.000_123_456_789_012_345_6;
        let mut repo = DataRepository::new();
        repo.add(rec);
        let back = DataRepository::from_json(&repo.to_json().unwrap()).unwrap();
        assert_eq!(back.tasks()[0], repo.tasks()[0]);
    }

    #[test]
    fn filters_implement_the_evaluation_settings() {
        let mut repo = DataRepository::new();
        let rec = sample_record();
        repo.add(rec.clone());
        let mut other = rec.clone();
        other.task_id = "Twitter@A".into();
        other.instance = InstanceType::A;
        repo.add(other);

        let all = repo.base_learners(&GpConfig::fixed(), |_| true);
        assert_eq!(all.len(), 2);
        // Varying hardware: exclude instance B.
        let vh = repo.base_learners(&GpConfig::fixed(), |t| t.instance != InstanceType::B);
        assert_eq!(vh.len(), 1);
        // Varying workloads: exclude the Twitter workload entirely.
        let vw = repo.base_learners(&GpConfig::fixed(), |t| t.workload != "Twitter");
        assert_eq!(vw.len(), 0);
    }

    #[test]
    fn mean_metrics_averages_observations() {
        let rec = sample_record();
        let m = rec.mean_metrics();
        assert_eq!(m.len(), dbsim::InternalMetrics::DIM);
        assert!(m.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn promising_point_never_panics_on_any_observation_history() {
        use propcheck::{check, Config};
        // Property: no observation history — including NaN/±inf in any field,
        // empty histories, and all-infeasible histories — panics the ranking.
        // When a finite feasible minimum exists, it is returned.
        check(
            "promising_point_never_panics_on_any_observation_history",
            Config::default().cases(200).seed(0xBAD_F10A7),
            |g| {
                let n = g.usize_in(0, 12);
                let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0];
                let value = |g: &mut propcheck::Gen| -> f64 {
                    if g.flag() {
                        special[g.usize_in(0, special.len() - 1)]
                    } else {
                        g.unit() * 200.0
                    }
                };
                let observations: Vec<TaskObservation> = (0..n)
                    .map(|_| TaskObservation {
                        point: vec![g.unit(), g.unit()],
                        res: value(g),
                        tps: value(g),
                        lat: value(g),
                        metrics: vec![value(g); 3],
                    })
                    .collect();
                let rec = TaskRecord {
                    task_id: "fuzz@A".into(),
                    workload: "fuzz".into(),
                    instance: InstanceType::A,
                    resource: ResourceKind::Cpu,
                    knob_names: vec!["a".into(), "b".into()],
                    space_id: "native".into(),
                    meta_feature: vec![0.5],
                    observations,
                };
                let picked = rec.promising_point();
                if let (Some(point), Some(first)) = (&picked, rec.observations.first()) {
                    // The pick satisfies the record's own SLA and has a
                    // finite objective.
                    let chosen = rec
                        .observations
                        .iter()
                        .find(|o| &o.point == point)
                        .expect("picked point comes from the history");
                    propcheck::prop_assert!(chosen.res.is_finite());
                    propcheck::prop_assert!(chosen.tps >= first.tps * 0.95);
                    propcheck::prop_assert!(chosen.lat <= first.lat * 1.05);
                }
                Ok(())
            },
        );
    }
}

//! OtterTune-w-Con (§7): OtterTune's machine-learning pipeline with its
//! workload-mapping transfer, and the acquisition replaced by ResTune's CEI
//! so it can honor the SLA.
//!
//! "Unlike meta-learning, OtterTune identifies the most similar workload from
//! its repository based on the distance between the internal metrics. It uses
//! the matched data for target workload in a single Gaussian Process model."
//!
//! The failure mode ResTune's §7.2.3 analysis predicts is reproduced here
//! structurally: internal metrics scale with hardware (pages/s, context
//! switches/s, threads running), so *absolute* distances match the wrong
//! workload across instance types, and there is no mechanism to stop trusting
//! a matched workload (negative transfer).
//!
//! The strategy is an [`OtterTuneProposer`] on the shared
//! [`TuningDriver`]/[`EvalEngine`] loop, so replay retries, failure
//! penalties, and incumbent/convergence bookkeeping are identical to every
//! other method's.

use restune_core::acquisition::ConstrainedExpectedImprovement;
use restune_core::driver::{Proposal, ProposalTiming, Proposer, TuningDriver};
use restune_core::engine::{EngineSettings, EvalEngine, HistoryView};
use restune_core::lhs::latin_hypercube;
use restune_core::repository::DataRepository;
use restune_core::resilience::ReplayPolicy;
use restune_core::surrogate::GpTaskModel;
use restune_core::tuner::{RestuneConfig, TuningEnvironment, TuningOutcome};

/// The OtterTune strategy: LHS bootstrap, then one merged GP over target +
/// matched-workload data, optimized with CEI.
pub struct OtterTuneProposer {
    config: RestuneConfig,
    repository: DataRepository,
    lhs_plan: Vec<Vec<f64>>,
    /// The task_id matched at the latest iteration (for analysis output).
    pub last_match: Option<String>,
}

impl OtterTuneProposer {
    /// Mean of the target's observed internal metric vectors.
    fn target_signature(&self, view: &HistoryView<'_>) -> Vec<f64> {
        let observed: Vec<&Vec<f64>> =
            view.metrics.iter().filter(|m| !m.is_empty()).collect();
        let n = observed.len();
        if n == 0 {
            return view.default_observation.internal.to_vec();
        }
        let dim = observed[0].len();
        let mut acc = vec![0.0; dim];
        for m in observed {
            for (a, v) in acc.iter_mut().zip(m) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= n as f64;
        }
        acc
    }

    /// OtterTune's workload mapping: nearest repository task by Euclidean
    /// distance between internal-metric signatures (each dimension scaled by
    /// the repository-wide standard deviation, mirroring OtterTune's metric
    /// binning — note the *values* still carry hardware scale).
    fn match_task(&self, view: &HistoryView<'_>) -> Option<usize> {
        if self.repository.is_empty() {
            return None;
        }
        let target = self.target_signature(view);
        let dim = target.len();
        // Repository-wide per-dimension std for scaling.
        let mut all: Vec<Vec<f64>> = Vec::new();
        for t in self.repository.tasks() {
            all.push(t.mean_metrics());
        }
        let mut stds = vec![1e-9_f64; dim];
        for (d, std) in stds.iter_mut().enumerate() {
            let col: Vec<f64> = all.iter().map(|m| m[d]).collect();
            *std = linalg::vector::std_dev(&col).max(1e-9);
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, sig) in all.iter().enumerate() {
            let mut d2 = 0.0;
            for d in 0..dim {
                let diff = (sig[d] - target[d]) / stds[d];
                d2 += diff * diff;
            }
            if best.map(|(_, bd)| d2 < bd).unwrap_or(true) {
                best = Some((i, d2));
            }
        }
        best.map(|(i, _)| i)
    }
}

impl Proposer for OtterTuneProposer {
    fn propose(&mut self, view: &HistoryView<'_>, iter: usize, _seed: u64) -> Proposal {
        if iter < self.config.init_iters {
            return Proposal::point(self.lhs_plan[iter].clone());
        }

        let model_span = trace::span!("model_update");
        // Merge matched workload data (same knob space) with target data.
        let mut points = view.points.to_vec();
        points.push(view.default_point.to_vec());
        let mut res = view.res.to_vec();
        res.push(view.default_objective);
        let mut tps = view.tps.to_vec();
        tps.push(view.default_observation.tps);
        let mut lat = view.lat.to_vec();
        lat.push(view.default_observation.p99_ms);
        if let Some(idx) = self.match_task(view) {
            let task = &self.repository.tasks()[idx];
            self.last_match = Some(task.task_id.clone());
            if task.knob_names == view.problem.knob_set.names()
                && task.space_id == view.problem.space.id
            {
                for o in &task.observations {
                    points.push(o.point.clone());
                    res.push(o.res);
                    tps.push(o.tps);
                    lat.push(o.lat);
                }
            }
        }
        let mut gp_config = self.config.gp.clone();
        gp_config.optimize_hypers = self.config.gp.optimize_hypers
            && (points.len() <= 40 || iter.is_multiple_of(self.config.refit_hypers_every));
        let model = GpTaskModel::fit(&points, &res, &tps, &lat, &gp_config)
            .expect("merged surrogate fit");
        let model_update_s = model_span.finish_s();

        let recommendation_span = trace::span!("recommendation");
        let sla = view.problem.constraints;
        // Incumbent: best feasible target observation.
        let mut best_feasible: Option<(Vec<f64>, f64)> = None;
        for (i, p) in view.points.iter().enumerate() {
            let feasible =
                view.tps[i] >= sla.tps_floor() && view.lat[i] <= sla.lat_ceiling();
            if feasible
                && best_feasible.as_ref().map(|(_, v)| view.res[i] < *v).unwrap_or(true)
            {
                best_feasible = Some((p.clone(), view.res[i]));
            }
        }
        // CEI with thresholds at the merged model's default-point prediction
        // and the incumbent's predicted objective (the default's when no
        // observation is feasible), both from one batch.
        let mut probes = vec![view.default_point.to_vec()];
        probes.extend(best_feasible.map(|(p, _)| p));
        let probed = model.predict_batch(&probes);
        let default_pred = probed[0];
        let tps_floor =
            default_pred.tps.mean - sla.tolerance * sla.min_tps / model.scalers.tps.std;
        let lat_ceiling =
            default_pred.lat.mean + sla.tolerance * sla.max_p99_ms / model.scalers.lat.std;
        let incumbent = Some(probed[probes.len() - 1].res.mean);
        let anchors = vec![probes[probes.len() - 1].clone()];
        let cei =
            ConstrainedExpectedImprovement { best_feasible: incumbent, tps_floor, lat_ceiling };
        // OtterTune keeps its own published seeding schedule (it predates the
        // driver's per-iteration seed).
        let seed = self.config.seed.wrapping_add(iter as u64).wrapping_mul(0x51);
        let point = self.config.optimizer.optimize(view.problem.dim(), &anchors, seed, |pts| {
            model.predict_batch(pts).iter().map(|p| cei.value(p)).collect()
        });
        let recommendation_s = recommendation_span.finish_s();
        Proposal {
            point,
            weights: None,
            timing: ProposalTiming { model_update_s, recommendation_s, ..Default::default() },
        }
    }
}

/// The OtterTune-with-constraints baseline.
pub struct OtterTuneWithConstraints {
    driver: TuningDriver<OtterTuneProposer>,
}

impl OtterTuneWithConstraints {
    /// Creates a run on `env` transferring from `repository`.
    pub fn new(env: TuningEnvironment, config: RestuneConfig, repository: DataRepository) -> Self {
        if config.trace {
            trace::enable();
        }
        let lhs_plan = latin_hypercube(config.init_iters, env.search_dim(), config.seed ^ 0x07);
        let engine = EvalEngine::new(
            env,
            EngineSettings {
                policy: ReplayPolicy {
                    max_retries: config.max_retries,
                    backoff_s: config.retry_backoff_s,
                },
                convergence_window: config.convergence_window,
                convergence_epsilon: config.convergence_epsilon,
                // OtterTune keeps the default out of its observed columns and
                // merges it into the GP explicitly, as published.
                seed_default_observation: false,
            },
        );
        let seed = config.seed;
        let proposer = OtterTuneProposer { config, repository, lhs_plan, last_match: None };
        OtterTuneWithConstraints { driver: TuningDriver::new(engine, proposer, seed) }
    }

    /// One tuning iteration.
    pub fn step(&mut self) {
        self.driver.step();
    }

    /// Runs `iterations` steps and summarizes.
    pub fn run(&mut self, iterations: usize) -> TuningOutcome {
        self.driver.run(iterations)
    }

    /// Runs `iterations` steps and consumes the run into its outcome without
    /// cloning the history.
    pub fn run_into_outcome(self, iterations: usize) -> TuningOutcome {
        self.driver.run_into_outcome(iterations)
    }

    /// The task_id matched at the latest iteration (for analysis output).
    pub fn last_match(&self) -> Option<&str> {
        self.driver.proposer().last_match.as_deref()
    }

    /// Decomposes into the underlying driver (fleet tenants step it
    /// themselves).
    pub fn into_driver(self) -> TuningDriver<OtterTuneProposer> {
        self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsim::{InstanceType, KnobSet, SimulatedDbms, WorkloadSpec};
    use restune_core::acquisition::AcquisitionOptimizer;
    use restune_core::problem::ResourceKind;
    use restune_core::repository::TaskRecord;
    use workload::WorkloadCharacterizer;

    fn quick_config(seed: u64) -> RestuneConfig {
        RestuneConfig {
            optimizer: AcquisitionOptimizer { n_candidates: 250, n_local: 50, local_sigma: 0.1 },
            gp: gp::GpConfig { restarts: 1, adam_iters: 12, ..Default::default() },
            seed,
            ..Default::default()
        }
    }

    fn small_repo() -> DataRepository {
        let characterizer = WorkloadCharacterizer::train_default(0);
        let mut repo = DataRepository::new();
        for (i, w) in [WorkloadSpec::twitter(), WorkloadSpec::sysbench()].into_iter().enumerate()
        {
            let mut dbms = SimulatedDbms::new(InstanceType::A, w, 100 + i as u64);
            repo.add(TaskRecord::collect(
                &mut dbms,
                &KnobSet::case_study(),
                ResourceKind::Cpu,
                &characterizer,
                15,
                200 + i as u64,
            ));
        }
        repo
    }

    #[test]
    fn ottertune_improves_over_default_with_matched_history() {
        let env = TuningEnvironment::builder()
            .instance(InstanceType::A)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(4)
            .build();
        let mut ot = OtterTuneWithConstraints::new(env, quick_config(4), small_repo());
        let outcome = ot.run(20);
        assert!(outcome.best_objective.unwrap() < outcome.default_obj_value);
        // It matched some workload after the bootstrap phase.
        assert!(ot.last_match().is_some());
    }

    #[test]
    fn works_with_an_empty_repository() {
        let env = TuningEnvironment::builder()
            .instance(InstanceType::B)
            .workload(WorkloadSpec::twitter())
            .resource(ResourceKind::Cpu)
            .knob_set(KnobSet::case_study())
            .seed(5)
            .build();
        let mut ot =
            OtterTuneWithConstraints::new(env, quick_config(5), DataRepository::new());
        let outcome = ot.run(13);
        assert_eq!(outcome.history.len(), 13);
        assert!(ot.last_match().is_none());
    }
}

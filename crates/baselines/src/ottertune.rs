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

use linalg::{Matrix, MatrixView};
use restune_core::acquisition::ConstrainedExpectedImprovement;
use restune_core::driver::{Proposal, ProposalTiming, Proposer, TuningDriver};
use restune_core::engine::{EvalEngine, HistoryView};
use restune_core::lhs::latin_hypercube;
use restune_core::repository::{DataRepository, TaskObservation};
use restune_core::surrogate::{refits_hypers, GpTaskModel, SurrogatePrediction};
use restune_core::tuner::{RestuneConfig, TuningEnvironment};

/// The OtterTune strategy: LHS bootstrap, then one merged GP over target +
/// matched-workload data, optimized with CEI.
pub struct OtterTuneProposer {
    config: RestuneConfig,
    repository: DataRepository,
    /// The LHS bootstrap's points, one per row.
    lhs_plan: Matrix,
    /// The task_id matched at the latest iteration (for analysis output).
    pub last_match: Option<String>,
}

impl OtterTuneProposer {
    /// An OtterTune-w-Con run on `env`, transferring from `repository`.
    pub fn driver(
        env: TuningEnvironment,
        config: RestuneConfig,
        repository: DataRepository,
    ) -> TuningDriver<OtterTuneProposer> {
        let lhs_plan = latin_hypercube(config.init_iters, env.search_dim(), config.seed ^ 0x07);
        // OtterTune keeps the default out of its observed columns and merges
        // it into the GP explicitly, as published.
        let engine = EvalEngine::new(env, false);
        let seed = config.seed;
        let proposer = OtterTuneProposer { config, repository, lhs_plan, last_match: None };
        TuningDriver::new(engine, proposer, seed)
    }

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
        // Repository-wide per-dimension std for scaling, over one signature
        // per row; signatures of another width cannot be matched.
        let all = Matrix::from_rows(dim, self.repository.tasks().iter().map(|t| t.mean_metrics()))
            .ok()?;
        let mut stds = vec![1e-9_f64; dim];
        for (d, std) in stds.iter_mut().enumerate() {
            *std = linalg::vector::std_dev(&all.col(d)).max(1e-9);
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, sig) in all.iter_rows().enumerate() {
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
            return Proposal::point(self.lhs_plan.row(iter).to_vec());
        }

        let model_span = trace::span!("model_update");
        // Merge matched workload data (same knob space) with target data,
        // one point per row.
        let matched = self.match_task(view).map(|idx| &self.repository.tasks()[idx]);
        if let Some(task) = matched {
            self.last_match = Some(task.task_id.clone());
        }
        let history = matched
            .filter(|task| {
                task.knob_names == view.problem.knob_set.names()
                    && task.space_id == view.problem.space.id
            })
            .map_or(&[][..], |task| &task.observations);
        let rows = view.points.iter().map(Vec::as_slice).chain([view.default_point]);
        let rows = rows.chain(history.iter().map(|o| o.point.as_slice()));
        let dim = view.problem.dim();
        let points = Matrix::from_rows(dim, rows).map_err(gp::GpError::from);
        let column = |target: &[f64], default: f64, stored: fn(&TaskObservation) -> f64| {
            let stored = history.iter().map(stored);
            target.iter().copied().chain([default]).chain(stored).collect::<Vec<f64>>()
        };
        let res = column(view.res, view.default_objective, |o| o.res);
        let tps = column(view.tps, view.default_observation.tps, |o| o.tps);
        let lat = column(view.lat, view.default_observation.p99_ms, |o| o.lat);
        let mut gp_config = self.config.gp.clone();
        gp_config.optimize_hypers = refits_hypers(&self.config.gp, res.len(), iter);
        let model = points
            .and_then(|points| GpTaskModel::fit(points, &res, &tps, &lat, &gp_config))
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
        // observation is feasible), both from one batch; the last probe
        // anchors the search.
        let mut probes = Matrix::from_vec(1, dim, view.default_point.to_vec());
        if let Some((p, _)) = &best_feasible {
            probes.push_row(p).expect("a target point spans the search space");
        }
        let probed = model.predict_batch(&probes);
        let default_pred = probed[0];
        let tps_floor =
            default_pred.tps.mean - sla.tolerance * sla.min_tps / model.scalers.tps.std;
        let lat_ceiling =
            default_pred.lat.mean + sla.tolerance * sla.max_p99_ms / model.scalers.lat.std;
        let last = probes.rows() - 1;
        let incumbent = Some(probed[last].res.mean);
        let anchors = Matrix::from_vec(1, dim, probes.row(last).to_vec());
        let cei =
            ConstrainedExpectedImprovement { best_feasible: incumbent, tps_floor, lat_ceiling };
        // OtterTune keeps its own published seeding schedule (it predates the
        // driver's per-iteration seed).
        let seed = self.config.seed.wrapping_add(iter as u64).wrapping_mul(0x51);
        // Valued candidates reuse their objective prediction and predict
        // only the constraints.
        let value = |pts: &MatrixView<'_>, res: &[gp::Prediction]| -> Vec<f64> {
            let [tps, lat] =
                [&model.tps, &model.lat].map(|gp| gp.predict_batch(pts).expect("dim"));
            let joint = |((&res, tps), lat)| SurrogatePrediction { res, tps, lat };
            res.iter().zip(tps).zip(lat).map(|p| cei.value(&joint(p))).collect()
        };
        let point = self.config.optimizer.optimize(
            &anchors,
            seed,
            |pts| model.res.predict_batch(pts).expect("dim"),
            Some(|p: &gp::Prediction| cei.bound(p)),
            value,
        );
        let recommendation_s = recommendation_span.finish_s();
        Proposal {
            point,
            weights: None,
            timing: ProposalTiming { model_update_s, recommendation_s, ..Default::default() },
        }
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
        let mut ot = OtterTuneProposer::driver(env, quick_config(4), small_repo());
        let outcome = ot.run(20);
        assert!(outcome.best_objective.unwrap() < outcome.default_obj_value);
        // It matched some workload after the bootstrap phase.
        assert!(ot.proposer().last_match.is_some());
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
        let mut ot = OtterTuneProposer::driver(env, quick_config(5), DataRepository::new());
        let outcome = ot.run(13);
        assert_eq!(outcome.history.len(), 13);
        assert!(ot.proposer().last_match.is_none());
    }
}

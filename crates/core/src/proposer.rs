//! ResTune's recommendation policy as a [`Proposer`]: the propose-side of
//! the paper's iteration pipeline (Fig. 5), split into its named stages —
//! *scale unification* (§6.1, meta-data processing), *model update* (target
//! GP fits + the §6.4.3 adaptive weight schema), and *knob recommendation*
//! (CEI optimization with the LHS-bootstrap, stagnation, and GP-failure
//! fallbacks). Everything downstream of the chosen point (apply, replay,
//! penalties, bookkeeping) lives in [`crate::engine::EvalEngine`].

use crate::acquisition::{
    expected_improvement, AcquisitionKind, ConstrainedExpectedImprovement,
};
use crate::diag::{DriftDiag, FitPath, TunerHealth};
use crate::drift::DriftEvent;
use crate::driver::{Proposal, ProposalTiming, Proposer};
use crate::engine::{HistoryView, IterationRecord};
use crate::meta::{static_weights, BaseLearner, MetaLearner, TargetObservations};
use crate::surrogate::{GpTaskModel, SurrogatePrediction};
use crate::tuner::{InitStrategy, RestuneConfig};
use xrand::{RngExt, SeedableRng};

/// The ResTune strategy (and, with the acquisition swapped, the iTuned and
/// penalty-EI ablations): meta-boosted constrained Bayesian optimization.
pub struct RestuneProposer {
    config: RestuneConfig,
    base_learners: Vec<BaseLearner>,
    target_meta_feature: Vec<f64>,
    use_meta: bool,
    dim: usize,
    lhs_plan: Vec<Vec<f64>>,
    /// The previous iteration's fitted target model, kept so no-hyperopt
    /// iterations can grow it by a rank-1 Cholesky append instead of paying
    /// a from-scratch `O(n^3)` refit. `None` until the first successful fit.
    target_cache: Option<GpTaskModel>,
    /// How the most recent `fit_target` produced its model — the
    /// per-iteration fact behind the `gp.fit.*` counters, reported by the
    /// health event (`core::diag`).
    last_fit: FitPath,
    /// GP-failure exploration fallbacks taken so far in this session.
    gp_fallbacks: u64,
    /// Drift/warm-restart facts for the health event; `None` until the
    /// driver's controller reports a restart, so static sessions' event
    /// streams stay byte-identical.
    drift: Option<DriftDiag>,
}

impl RestuneProposer {
    /// Builds the strategy over a `dim`-dimensional knob space. The caller
    /// (the [`crate::tuner::TuningSession`] facade) validates that every
    /// base learner matches `dim`.
    pub fn new(
        config: RestuneConfig,
        base_learners: Vec<BaseLearner>,
        target_meta_feature: Vec<f64>,
        use_meta: bool,
        dim: usize,
    ) -> Self {
        let lhs_plan = crate::lhs::latin_hypercube(config.init_iters, dim, config.seed ^ 0x5A);
        RestuneProposer {
            config,
            base_learners,
            target_meta_feature,
            use_meta,
            dim,
            lhs_plan,
            target_cache: None,
            last_fit: FitPath::Full,
            gp_fallbacks: 0,
            drift: None,
        }
    }

    /// The objective column for the penalty-EI ablation: infeasible
    /// observations are pushed above the worst value by the shared
    /// failure-penalty formula, so plain EI steers away from them (§2's
    /// simple alternative to CEI).
    fn penalized_res(&self, view: &HistoryView<'_>) -> Vec<f64> {
        let sla = view.problem.constraints;
        let worst = view.res.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let best = view.res.iter().cloned().fold(f64::INFINITY, f64::min);
        let penalty = crate::resilience::failure_penalty(worst, best);
        view.res
            .iter()
            .zip(view.tps.iter().zip(view.lat))
            .map(|(r, (t, l))| {
                if *t >= sla.tps_floor() && *l <= sla.lat_ceiling() {
                    *r
                } else {
                    penalty
                }
            })
            .collect()
    }

    /// Stage 1 — scale unification (§6.1, the paper's "meta-data
    /// processing"): builds the objective column the surrogate trains on
    /// (penalized for the penalty-EI ablation) and fits the standardizers
    /// the model update *uses* — not a throwaway probe.
    fn scale_unification(&self, view: &HistoryView<'_>) -> (Vec<f64>, crate::scale::TaskScalers) {
        let res_col = match self.config.acquisition {
            AcquisitionKind::PenalizedExpectedImprovement => self.penalized_res(view),
            _ => view.res.to_vec(),
        };
        let scalers = crate::scale::TaskScalers::fit(&res_col, view.tps, view.lat);
        (res_col, scalers)
    }

    /// Stage 2a — target surrogate fit, with hyperparameter refits gated to
    /// every `refit_hypers_every` iterations once the observation set grows
    /// past 40 points. On no-refit iterations, the previous iteration's
    /// cached model is grown *incrementally* by a rank-1 Cholesky append
    /// (`O(n^2)`) when exactly one observation arrived since; any mismatch
    /// (restarted history, failed extension, sparse model) falls back to the
    /// full fit. The successful model is always re-cached for the next
    /// iteration.
    fn fit_target(
        &mut self,
        view: &HistoryView<'_>,
        iter: usize,
        res: &[f64],
        scalers: crate::scale::TaskScalers,
    ) -> Result<GpTaskModel, gp::GpError> {
        let n = view.points.len();
        let mut gp_config = self.config.gp.clone();
        gp_config.optimize_hypers = self.config.gp.optimize_hypers
            && (n <= 40 || iter.is_multiple_of(self.config.refit_hypers_every));
        gp_config.seed = self.config.seed;
        // Cache-style tally of the hyperparameter-refit schedule: a "miss"
        // pays the full marginal-likelihood optimization, a "hit" reuses the
        // previous hyperparameters.
        if gp_config.optimize_hypers {
            trace::count("gp.hypers.refit", 1);
        } else {
            trace::count("gp.hypers.reuse", 1);
        }
        if !gp_config.optimize_hypers && self.config.incremental_refit {
            if let Some(mut cached) = self.target_cache.take() {
                if cached.n() + 1 == n
                    && cached.trained_on(&view.points[..n - 1])
                    && cached
                        .extend_with_scalers(
                            view.points,
                            res,
                            view.tps,
                            view.lat,
                            scalers,
                            &gp_config,
                        )
                        .is_ok()
                {
                    trace::count("gp.fit.incremental", 1);
                    self.last_fit = FitPath::Incremental;
                    self.target_cache = Some(cached.clone());
                    return Ok(cached);
                }
            }
        }
        trace::count("gp.fit.full", 1);
        self.last_fit = FitPath::Full;
        let fitted = GpTaskModel::fit_with_scalers(
            view.points,
            res,
            view.tps,
            view.lat,
            scalers,
            &gp_config,
        )?;
        self.target_cache = Some(fitted.clone());
        Ok(fitted)
    }

    /// Stage 2b — ensemble weight learning (§6.4.3 adaptive schema):
    /// meta-feature static weights for the first `init_iters`, ranking-loss
    /// dynamic weights afterwards.
    fn update_weights(
        &self,
        view: &HistoryView<'_>,
        iter: usize,
        seed: u64,
        target: GpTaskModel,
    ) -> (MetaLearner, Option<Vec<f64>>) {
        if self.use_meta && !self.base_learners.is_empty() {
            let w = if iter < self.config.init_iters {
                static_weights(
                    &self.base_learners,
                    &self.target_meta_feature,
                    self.config.static_bandwidth,
                )
            } else {
                let res_std = target.scalers.res.transform_all(view.res);
                let tps_std = target.scalers.tps.transform_all(view.tps);
                let lat_std = target.scalers.lat.transform_all(view.lat);
                let obs = TargetObservations {
                    points: view.points,
                    res: &res_std,
                    tps: &tps_std,
                    lat: &lat_std,
                };
                crate::meta::dynamic_weights(
                    &self.base_learners,
                    &target,
                    &obs,
                    self.config.dynamic_samples,
                    self.config.max_rank_points,
                    self.config.dilution_guard,
                    seed,
                )
            };
            let learner = MetaLearner::new(self.base_learners.clone(), target, w.clone());
            (learner, Some(w))
        } else {
            (MetaLearner::target_only(target), None)
        }
    }

    /// Stage 3 — knob recommendation: the LHS bootstrap for non-meta runs
    /// (and the w/o-Workload ablation), the ε-greedy stagnation safeguard,
    /// or the acquisition optimization proper.
    fn recommend(
        &self,
        view: &HistoryView<'_>,
        iter: usize,
        seed: u64,
        surrogate: &MetaLearner,
    ) -> Vec<f64> {
        let lhs_init = iter < self.config.init_iters
            && (!self.use_meta || self.config.init_strategy == InitStrategy::Lhs);
        // During the static bootstrap the ensemble mixes base-learners from
        // heterogeneous hardware whose *feasibility* surfaces can disagree
        // with the target instance (a small machine's optimal concurrency
        // throttles a big one). Constraint predictions therefore come from
        // the target learner until dynamic (ranking-loss) weights take over —
        // ranking loss scores tps/lat orderings explicitly, so the dynamic
        // ensemble is safe for constraints.
        let constraints_from_target = self.use_meta
            && iter < self.config.init_iters
            && self.config.static_constraints_from_target;
        // Stagnation safeguard: when the incumbent has not moved for a long
        // stretch (a misled ensemble or a degenerate surrogate can pin the
        // acquisition in a dead region), interleave a uniform exploration
        // point every few iterations — standard ε-greedy insurance in BO
        // implementations. The improvement clock compares two absolute
        // iteration indices (`last_improvement` rebases to `epoch_start` on
        // a warm restart), so the difference is epoch-local like `iter`.
        let stagnated = iter >= self.config.init_iters
            && (view.epoch_start + iter).saturating_sub(view.last_improvement) >= 8
            && iter.is_multiple_of(4);
        if lhs_init {
            // Non-meta methods (and the w/o-Workload ablation) bootstrap with
            // LHS (§7 Setting).
            self.lhs_plan[iter].clone()
        } else if stagnated {
            let mut rng = xrand::rngs::StdRng::seed_from_u64(seed ^ 0xE5C4);
            (0..view.problem.dim()).map(|_| rng.random::<f64>()).collect()
        } else {
            self.optimize_acquisition(view, surrogate, constraints_from_target, seed)
        }
    }

    fn optimize_acquisition(
        &self,
        view: &HistoryView<'_>,
        surrogate: &MetaLearner,
        constraints_from_target: bool,
        seed: u64,
    ) -> Vec<f64> {
        // Joint batched prediction (one blocked solve per metric GP), with
        // constraints optionally sourced from the target learner alone.
        let predict = |pts: &[Vec<f64>]| -> Vec<SurrogatePrediction> {
            let mut preds = surrogate.predict_batch(pts);
            if constraints_from_target {
                let t = surrogate.target();
                let column = |gp: &gp::SurrogateGp| gp.predict_batch(pts).expect("dim");
                for ((pred, tps), lat) in preds.iter_mut().zip(column(&t.tps)).zip(column(&t.lat)) {
                    pred.tps = tps;
                    pred.lat = lat;
                }
            }
            preds
        };
        // One batch predicts every point the scorer's thresholds read: the
        // default (§6.1's re-scaled bounds), the incumbent, and, for
        // unconstrained EI, the overall best observation. Filter non-finite
        // objectives before taking that minimum: a seeded-in NaN observation
        // must degrade, not panic.
        let best_overall = match self.config.acquisition {
            AcquisitionKind::ExpectedImprovement => view
                .points
                .iter()
                .zip(view.res)
                .filter(|(_, r)| r.is_finite())
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(p, _)| p),
            _ => None,
        };
        let incumbent = view.best.map(|(_, _, point)| point);
        let mut probes = vec![view.default_point.to_vec()];
        probes.extend(incumbent.into_iter().chain(best_overall).cloned());
        let probed = predict(&probes);
        let default_pred = probed[0];
        let incumbent_pred = incumbent.map(|_| probed[1]);
        let best_overall_pred = best_overall.map(|_| probed[probes.len() - 1]);

        // Re-scaled constraint bounds λ' = L_M(θ_d) (§6.1), widened by the
        // 5 % tolerance expressed in target-σ units.
        let scalers = surrogate.target().scalers;
        let sla = view.problem.constraints;
        let tol = sla.tolerance;
        let tps_floor = default_pred.tps.mean - tol * sla.min_tps / scalers.tps.std;
        let lat_ceiling = default_pred.lat.mean + tol * sla.max_p99_ms / scalers.lat.std;

        let best_feasible = incumbent_pred.map(|p| p.res.mean);
        let mut anchors: Vec<Vec<f64>> = incumbent.into_iter().cloned().collect();
        // Seed local refinement with the best observed points of the
        // highest-weight base-learners: "suggest knobs that are promising
        // according to similar historical tasks" (§6.4.3).
        let weights = surrogate.weights();
        let mut ranked: Vec<(usize, f64)> = surrogate
            .base_learners()
            .iter()
            .enumerate()
            .map(|(i, _)| (i, weights[i]))
            .collect();
        // Total order, not `partial_cmp(..).unwrap()`: a NaN weight (e.g. a
        // degenerate ranking-loss posterior) must not panic the ranking. NaN
        // sorts below every real weight and the positivity gate drops it.
        ranked.sort_by(|a, b| {
            let key = |w: f64| if w.is_nan() { f64::NEG_INFINITY } else { w };
            key(b.1).total_cmp(&key(a.1))
        });
        for (i, w) in ranked.into_iter().take(3) {
            // Stop at the first weight that is not strictly positive — a NaN
            // (incomparable) weight stops the scan too.
            if w.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                break;
            }
            // Anchor on the learner's best point that met its own task's SLA
            // — the raw resource minimum is usually a throttled violator.
            if let Some(p) = &surrogate.base_learners()[i].promising_point {
                anchors.push(p.clone());
            }
        }

        // Per-prediction acquisition value. Resolving the incumbent up front
        // keeps the scoring closure pure (no RNG, no per-call setup), which
        // is what allows batched, fanned-out candidate scoring below.
        enum Scorer {
            Cei(ConstrainedExpectedImprovement),
            Ei { incumbent: f64 },
        }
        let scorer = match self.config.acquisition {
            AcquisitionKind::ConstrainedExpectedImprovement => Scorer::Cei(
                ConstrainedExpectedImprovement { best_feasible, tps_floor, lat_ceiling },
            ),
            AcquisitionKind::PenalizedExpectedImprovement => {
                // Plain EI on the penalized surrogate; the penalty encoded at
                // fit time does the constraint handling.
                Scorer::Ei { incumbent: incumbent_pred.unwrap_or(default_pred).res.mean }
            }
            AcquisitionKind::ExpectedImprovement => {
                // Unconstrained EI over the *overall* best (iTuned's behavior
                // after the objective swap): ignores the SLA entirely.
                Scorer::Ei { incumbent: best_overall_pred.map_or(0.0, |p| p.res.mean) }
            }
        };
        let value = |pred: &SurrogatePrediction| -> f64 {
            match &scorer {
                Scorer::Cei(cei) => cei.value(pred),
                Scorer::Ei { incumbent } => {
                    expected_improvement(pred.res.mean, pred.res.std_dev(), *incumbent)
                }
            }
        };
        self.config.optimizer.optimize(view.problem.dim(), &anchors, seed, |pts| {
            predict(pts).iter().map(&value).collect()
        })
    }
}

impl Proposer for RestuneProposer {
    fn propose(&mut self, view: &HistoryView<'_>, iter: usize, seed: u64) -> Proposal {
        // Every iteration-dependent schedule below (LHS bootstrap, weight
        // mode, hyperopt refits, stagnation) runs on the *epoch* clock: a
        // warm restart rewinds it to zero while `iter` — and the driver's
        // seed stream — keep counting. Static sessions have epoch_start 0,
        // so the two clocks coincide bit-for-bit.
        let rel_iter = iter - view.epoch_start;
        // ---- stage 1: meta-data processing (scale unification) ------------
        let meta_span = trace::span!("meta_data_processing");
        let (res_col, scalers) = self.scale_unification(view);
        let meta_data_processing_s = meta_span.finish_s();

        // ---- stage 2: model update (surrogate fit + weights + ensemble) ---
        let model_span = trace::span!("model_update");
        let fit_span = trace::span!("gp_fit", n_obs = view.points.len());
        let fit = self.fit_target(view, rel_iter, &res_col, scalers);
        let gp_fit_s = fit_span.finish_s();
        let (point, weights, model_update_s, weight_update_s, recommendation_s) = match fit {
            Ok(target) => {
                let weight_span = trace::span!("weight_update");
                let (surrogate, weights) = self.update_weights(view, rel_iter, seed, target);
                let weight_update_s = weight_span.finish_s();
                let model_update_s = model_span.finish_s();

                // ---- stage 3: knob recommendation -------------------------
                let recommendation_span = trace::span!("recommendation");
                let point = self.recommend(view, rel_iter, seed, &surrogate);
                let recommendation_s = recommendation_span.finish_s();
                (point, weights, model_update_s, weight_update_s, recommendation_s)
            }
            Err(_) => {
                // GP-failure fallback: a degenerate observation set
                // (non-finite values, pathological kernel) must not abort the
                // run: degrade to a seeded uniform exploration point — the
                // next full observation both makes progress and feeds the
                // surrogate fresh, usable data.
                self.last_fit = FitPath::Fallback;
                self.gp_fallbacks += 1;
                let mut rng = xrand::rngs::StdRng::seed_from_u64(seed ^ 0xFA11);
                let point: Vec<f64> =
                    (0..view.problem.dim()).map(|_| rng.random::<f64>()).collect();
                let model_update_s = model_span.finish_s();
                (point, None, model_update_s, 0.0, 0.0)
            }
        };
        Proposal {
            point,
            weights,
            timing: ProposalTiming {
                meta_data_processing_s,
                model_update_s,
                gp_fit_s,
                weight_update_s,
                recommendation_s,
            },
        }
    }

    /// Post-replay hook: emit the per-iteration `tuner.health` diagnostics
    /// event (DESIGN.md §15) when enabled. Every quantity read here is
    /// closed-form — the LOO calibration inverts the already-factored kernel
    /// matrix, no RNG stream is touched — so diagnostics on/off cannot move
    /// a bit of the tuning trace. Returns 0: diagnostics time is not model
    /// update; it shows up as the nested `diag` span instead.
    fn observe(&mut self, view: &HistoryView<'_>, record: &IterationRecord) -> f64 {
        if self.config.diag && trace::enabled() {
            let _sp = trace::span!("diag");
            let calibration = self
                .target_cache
                .as_ref()
                .filter(|_| self.last_fit != FitPath::Fallback)
                .and_then(|m| m.res.as_dense())
                .and_then(|g| g.loo_calibration().ok());
            let surrogate = match self.target_cache.as_ref().map(|m| &m.res) {
                Some(gp::SurrogateGp::Dense(_)) => "dense",
                Some(gp::SurrogateGp::Sparse(_)) => "sparse",
                None => "none",
            };
            TunerHealth::collect(
                view,
                record,
                self.last_fit,
                surrogate,
                self.gp_fallbacks,
                calibration,
                self.drift,
            )
            .emit();
        }
        0.0
    }

    /// Warm-restart hook (DESIGN.md §16): the sealed pre-drift epoch (and
    /// whatever else the repository matched) becomes the new base-learner
    /// ensemble, the drifted workload's profile becomes the target
    /// meta-feature, and the bootstrap/cache state resets so the next
    /// `propose` re-enters initialization against the new epoch.
    fn on_drift(&mut self, event: &DriftEvent) {
        self.base_learners = event.learners.clone();
        self.target_meta_feature = event.meta_feature.clone();
        // A session that started without transfer sources gains them the
        // moment its own past is sealed; a cold restart (no learners) keeps
        // — or falls back to — the non-meta LHS bootstrap.
        self.use_meta = !self.base_learners.is_empty();
        // A fresh LHS plan, decorrelated per epoch: replaying the epoch-0
        // bootstrap points against a different workload would waste the
        // restart's initialization budget on a stale design.
        self.lhs_plan = crate::lhs::latin_hypercube(
            self.config.init_iters,
            self.dim,
            self.config.seed ^ 0x5A ^ (event.epoch as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        self.target_cache = None;
        self.last_fit = FitPath::Full;
        self.drift = Some(DriftDiag {
            epoch: event.epoch,
            restarts: self.drift.map(|d| d.restarts).unwrap_or(0) + 1,
            sealed_tasks: self.drift.map(|d| d.sealed_tasks).unwrap_or(0) + 1,
            last_score: event.score,
        });
    }
}

//! ResTune's recommendation policy as a [`Proposer`]: the propose-side of
//! the paper's iteration pipeline (Fig. 5), split into its named stages —
//! *scale unification* (§6.1, meta-data processing), *model update* (target
//! GP fits + the §6.4.3 adaptive weight schema), and *knob recommendation*
//! (CEI optimization with the LHS-bootstrap, stagnation, and GP-failure
//! fallbacks). Everything downstream of the chosen point (apply, replay,
//! penalties, bookkeeping) lives in [`crate::engine::EvalEngine`].
//!
//! Which [`Stage`] produces the point is decided from the epoch clock and
//! the view *before* the model update, because only the acquisition reads
//! the surrogate: the LHS bootstrap and the ε-greedy safeguard do not. A
//! step fits the target GPs only when its stage, its ensemble weights or
//! the next step read them (DESIGN.md §13); otherwise it skips the fit,
//! which moves no proposal, weight or record, because a full fit is a pure
//! function of the view and the config.
//!
//! The view's points enter the surrogate as one block, converted once per
//! step where the model update starts. The fitted target model and the
//! historical learners are shared with the step's ensemble through `Arc`s,
//! not copied into it, and the next step grows the cached target in place.

use crate::acquisition::{
    expected_improvement, AcquisitionKind, ConstrainedExpectedImprovement,
};
use crate::diag::{DriftDiag, FitPath, Stage, TunerHealth};
use crate::drift::DriftEvent;
use crate::driver::{Proposal, ProposalTiming, Proposer};
use crate::engine::{HistoryView, IterationRecord};
use crate::meta::{static_weights, BaseLearner, MetaLearner, TargetObservations};
use crate::surrogate::{refits_hypers, GpTaskModel, SurrogatePrediction};
use crate::tuner::{InitStrategy, RestuneConfig};
use gp::{GpError, Prediction};
use linalg::{Matrix, MatrixView};
use std::sync::Arc;
use xrand::{RngExt, SeedableRng};

/// The ResTune strategy (and, with the acquisition swapped, the iTuned and
/// penalty-EI ablations): meta-boosted constrained Bayesian optimization.
pub struct RestuneProposer {
    config: RestuneConfig,
    /// The historical learners, shared with every step's ensemble.
    base_learners: Arc<[BaseLearner]>,
    target_meta_feature: Vec<f64>,
    use_meta: bool,
    dim: usize,
    /// The LHS bootstrap's points, one per row.
    lhs_plan: Matrix,
    /// The previous iteration's fitted target model, kept so no-hyperopt
    /// iterations can grow it by a rank-1 Cholesky append instead of paying
    /// a from-scratch `O(n^3)` refit. Shared with the step's ensemble, which
    /// is gone by the next step, so that step extends it in place. `None`
    /// until the first successful fit, and after a step that skipped or
    /// failed its fit: it holds a model exactly when the last step's
    /// [`FitPath`] is `Full` or `Incremental`.
    target_cache: Option<Arc<GpTaskModel>>,
    /// How the most recent step produced its model — the per-iteration fact
    /// behind the `gp.fit.*` counters, reported by the health event
    /// (`core::diag`).
    last_fit: FitPath,
    /// The stage that produced the most recent step's point, reported by
    /// the health event.
    last_stage: Stage,
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
            base_learners: base_learners.into(),
            target_meta_feature,
            use_meta,
            dim,
            lhs_plan,
            target_cache: None,
            last_fit: FitPath::Full,
            last_stage: Stage::Acquire,
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

    /// Which stage produces the point of the step at epoch-relative
    /// iteration `rel_iter`: the LHS bootstrap for non-meta runs (and the
    /// w/o-Workload ablation), else the ε-greedy stagnation safeguard, else
    /// the acquisition.
    fn stage(&self, view: &HistoryView<'_>, rel_iter: usize) -> Stage {
        let init = rel_iter < self.config.init_iters;
        // Stagnation safeguard: when the incumbent has not moved for a long
        // stretch (a misled ensemble or a degenerate surrogate can pin the
        // acquisition in a dead region), interleave a uniform exploration
        // point every few iterations — standard ε-greedy insurance in BO
        // implementations. The improvement clock compares two absolute
        // iteration indices (`last_improvement` rebases to `epoch_start` on
        // a warm restart), so the difference is epoch-local like `rel_iter`.
        let stagnated = (view.epoch_start + rel_iter).saturating_sub(view.last_improvement) >= 8
            && rel_iter.is_multiple_of(4);
        if init && (!self.use_meta || self.config.init_strategy == InitStrategy::Lhs) {
            Stage::Lhs
        } else if !init && stagnated {
            Stage::Explore
        } else {
            Stage::Acquire
        }
    }

    /// Whether the step at `rel_iter` learns ranking-loss weights, which
    /// read the target model and enter the record.
    fn learns_dynamic_weights(&self, rel_iter: usize) -> bool {
        self.use_meta && !self.base_learners.is_empty() && rel_iter >= self.config.init_iters
    }

    /// Whether the step must fit the target GPs: when its stage or its
    /// weights read the model, when the next step may extend it by a rank-1
    /// append, or when the inputs (`points`, `None` when the view's points
    /// form no block) fail the fit's own check — that fit fails, and the
    /// step takes the GP-failure fallback as it always has. Any other fit
    /// would build a model nothing reads.
    fn fits_target(
        &self,
        view: &HistoryView<'_>,
        points: Option<&Matrix>,
        stage: Stage,
        rel_iter: usize,
        res: &[f64],
        scalers: crate::scale::TaskScalers,
    ) -> bool {
        let n = view.points.len();
        stage == Stage::Acquire
            || self.learns_dynamic_weights(rel_iter)
            || !refits_hypers(&self.config.gp, n + 1, rel_iter + 1)
            || points.is_none_or(|points| {
                GpTaskModel::check_inputs(points, res, view.tps, view.lat, scalers).is_err()
            })
    }

    /// Stage 2a — target surrogate fit on the step's `points`, with
    /// hyperparameter refits gated by [`refits_hypers`] on the epoch clock. On
    /// no-refit iterations, the previous iteration's cached model is grown
    /// *incrementally*, in place, by a rank-1 Cholesky append (`O(n^2)`)
    /// when exactly one observation arrived since; any mismatch (restarted
    /// history, failed extension) falls back to the full fit. The successful
    /// model is re-cached for the next iteration, and a failed fit leaves the
    /// cache empty.
    fn fit_target(
        &mut self,
        view: &HistoryView<'_>,
        points: Arc<Matrix>,
        rel_iter: usize,
        res: &[f64],
        scalers: crate::scale::TaskScalers,
    ) -> Result<Arc<GpTaskModel>, GpError> {
        let n = points.rows();
        let mut gp_config = self.config.gp.clone();
        gp_config.optimize_hypers = refits_hypers(&self.config.gp, n, rel_iter);
        gp_config.seed = self.config.seed;
        // Cache-style tally of the hyperparameter-refit schedule: a "miss"
        // pays the full marginal-likelihood optimization, a "hit" reuses the
        // previous hyperparameters.
        if gp_config.optimize_hypers {
            trace::count("gp.hypers.refit", 1);
        } else {
            trace::count("gp.hypers.reuse", 1);
        }
        let cached = self.target_cache.take();
        if let Some(mut cached) = cached.filter(|_| !gp_config.optimize_hypers) {
            // The last step's ensemble is gone, so this extends in place.
            let model = Arc::make_mut(&mut cached);
            let (tps, lat) = (view.tps, view.lat);
            if model.extend_with_scalers(&points, res, tps, lat, scalers, &gp_config).is_ok() {
                trace::count("gp.fit.incremental", 1);
                self.last_fit = FitPath::Incremental;
                self.target_cache = Some(Arc::clone(&cached));
                return Ok(cached);
            }
        }
        trace::count("gp.fit.full", 1);
        self.last_fit = FitPath::Full;
        let fitted = GpTaskModel::fit_with_scalers(
            points,
            res,
            view.tps,
            view.lat,
            scalers,
            &gp_config,
        )?;
        let fitted = Arc::new(fitted);
        self.target_cache = Some(Arc::clone(&fitted));
        Ok(fitted)
    }

    /// Stage 2b — ensemble weight learning (§6.4.3 adaptive schema):
    /// meta-feature static weights for the first `init_iters`, ranking-loss
    /// dynamic weights afterwards. Returns the ensemble over the fitted
    /// target, if there is one, and the weights the record carries.
    fn update_weights(
        &self,
        view: &HistoryView<'_>,
        rel_iter: usize,
        seed: u64,
        target: Option<Arc<GpTaskModel>>,
    ) -> (Option<MetaLearner>, Option<Vec<f64>>) {
        if !self.use_meta || self.base_learners.is_empty() {
            return (target.map(MetaLearner::target_only), None);
        }
        let weights = if !self.learns_dynamic_weights(rel_iter) {
            Some(static_weights(
                &self.base_learners,
                &self.target_meta_feature,
                self.config.static_bandwidth,
            ))
        } else {
            // `fits_target` fits every step that learns dynamic weights.
            target.as_ref().map(|target| {
                let res_std = target.scalers.res.transform_all(view.res);
                let tps_std = target.scalers.tps.transform_all(view.tps);
                let lat_std = target.scalers.lat.transform_all(view.lat);
                let obs = TargetObservations {
                    // The target was fitted on the view's points.
                    points: target.res.train_x(),
                    res: &res_std,
                    tps: &tps_std,
                    lat: &lat_std,
                };
                crate::meta::dynamic_weights(
                    &self.base_learners,
                    target,
                    &obs,
                    self.config.dynamic_samples,
                    self.config.max_rank_points,
                    self.config.dilution_guard,
                    seed,
                )
            })
        };
        let learner = target.zip(weights.clone()).map(|(target, w)| {
            MetaLearner::new(Arc::clone(&self.base_learners), target, w)
        });
        (learner, weights)
    }

    /// Stage 3 — knob recommendation, by the step's stage: the LHS
    /// bootstrap point (§7 Setting), the ε-greedy point, the acquisition
    /// optimization proper over the fitted surrogate, or the GP-failure
    /// fallback's seeded uniform point.
    fn recommend(
        &self,
        view: &HistoryView<'_>,
        stage: Stage,
        rel_iter: usize,
        seed: u64,
        surrogate: Option<&MetaLearner>,
    ) -> Vec<f64> {
        let uniform = |salt: u64| -> Vec<f64> {
            let mut rng = xrand::rngs::StdRng::seed_from_u64(seed ^ salt);
            (0..view.problem.dim()).map(|_| rng.random::<f64>()).collect()
        };
        match (stage, surrogate) {
            (Stage::Lhs, _) => self.lhs_plan.row(rel_iter).to_vec(),
            (Stage::Explore, _) => uniform(0xE5C4),
            (Stage::Acquire, Some(surrogate)) => {
                // During the static bootstrap the ensemble mixes
                // base-learners from heterogeneous hardware whose
                // *feasibility* surfaces can disagree with the target
                // instance (a small machine's optimal concurrency throttles
                // a big one). Constraint predictions therefore come from the
                // target learner until dynamic (ranking-loss) weights take
                // over — ranking loss scores tps/lat orderings explicitly, so
                // the dynamic ensemble is safe for constraints.
                let constraints_from_target = self.use_meta
                    && rel_iter < self.config.init_iters
                    && self.config.static_constraints_from_target;
                self.optimize_acquisition(view, surrogate, constraints_from_target, seed)
            }
            // `fits_target` fits every acquisition step, so an acquisition
            // without a surrogate is a failed fit.
            (Stage::Acquire | Stage::Fallback, _) => uniform(0xFA11),
        }
    }

    fn optimize_acquisition(
        &self,
        view: &HistoryView<'_>,
        surrogate: &MetaLearner,
        constraints_from_target: bool,
        seed: u64,
    ) -> Vec<f64> {
        // The constraint predictions, optionally sourced from the target
        // learner alone; the objective always goes through the ensemble.
        let constraints = |pts: &MatrixView<'_>| -> [Vec<Prediction>; 2] {
            if !constraints_from_target {
                let ensemble = |metric| surrogate.ensemble_batch(metric, pts);
                return [ensemble(|m| &m.tps), ensemble(|m| &m.lat)];
            }
            let t = surrogate.target();
            [&t.tps, &t.lat].map(|gp| gp.predict_batch(pts).expect("dim"))
        };
        let objective = |pts: &MatrixView<'_>| surrogate.ensemble_batch(|m| &m.res, pts);
        let dim = view.problem.dim();
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
        let probe_rows = [view.default_point].into_iter().chain(
            incumbent.into_iter().chain(best_overall).map(Vec::as_slice),
        );
        let probes =
            Matrix::from_rows(dim, probe_rows).expect("engine points span the search space");
        let probed = {
            let all = probes.view(0..probes.rows());
            let [tps, lat] = constraints(&all);
            SurrogatePrediction::zip(objective(&all), tps, lat)
        };
        let default_pred = probed[0];
        let incumbent_pred = incumbent.map(|_| probed[1]);
        let best_overall_pred = best_overall.map(|_| probed[probes.rows() - 1]);

        // Re-scaled constraint bounds λ' = L_M(θ_d) (§6.1), widened by the
        // 5 % tolerance expressed in target-σ units.
        let scalers = surrogate.target().scalers;
        let sla = view.problem.constraints;
        let tol = sla.tolerance;
        let tps_floor = default_pred.tps.mean - tol * sla.min_tps / scalers.tps.std;
        let lat_ceiling = default_pred.lat.mean + tol * sla.max_p99_ms / scalers.lat.std;

        let best_feasible = incumbent_pred.map(|p| p.res.mean);
        // Anchors, one per row. A point of another width cannot anchor this
        // search and is left out.
        let mut anchors = Matrix::zeros(0, dim);
        if let Some(point) = incumbent {
            let _ = anchors.push_row(point);
        }
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
                let _ = anchors.push_row(p);
            }
        }

        // The acquisition's bound from the objective's prediction, and its
        // value given that prediction. Resolving the incumbent up front
        // keeps every piece pure (no RNG, no per-call setup), which is what
        // allows batched, fanned-out bounding and the bounded search below.
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
        let bound = |p: &Prediction| match &scorer {
            Scorer::Cei(cei) => cei.bound(p),
            Scorer::Ei { incumbent } => expected_improvement(p.mean, p.std_dev(), *incumbent),
        };
        // Without a feasible incumbent every CEI bound is +∞: nothing to
        // predict for the bounds.
        let bounded = !matches!(&scorer, Scorer::Cei(cei) if cei.best_feasible.is_none());
        let value = |pts: &MatrixView<'_>, res: &[Prediction]| -> Vec<f64> {
            match &scorer {
                Scorer::Cei(cei) => {
                    let [tps, lat] = constraints(pts);
                    let preds = res.iter().zip(tps).zip(lat);
                    let joint = |((&res, tps), lat)| SurrogatePrediction { res, tps, lat };
                    preds.map(|p| cei.value(&joint(p))).collect()
                }
                // EI reads the objective alone: its value is its own bound.
                Scorer::Ei { .. } => res.iter().map(bound).collect(),
            }
        };
        self.config.optimizer.optimize(&anchors, seed, objective, bounded.then_some(&bound), value)
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
        // The stage comes first: a step fits the target only when something
        // reads the model.
        let mut stage = self.stage(view, rel_iter);
        let model_span = trace::span!("model_update");
        // The view's points as the one block the target GPs share.
        let points = Matrix::from_rows(view.problem.dim(), view.points)
            .map(Arc::new)
            .map_err(GpError::from);
        let block = points.as_deref().ok();
        let fits = self.fits_target(view, block, stage, rel_iter, &res_col, scalers);
        let (fit, gp_fit_s) = if fits {
            let fit_span = trace::span!("gp_fit", n_obs = view.points.len());
            let fit = points
                .and_then(|points| self.fit_target(view, points, rel_iter, &res_col, scalers))
                .map(Some);
            (fit, fit_span.finish_s())
        } else {
            trace::count("gp.fit.skipped", 1);
            self.last_fit = FitPath::Skipped;
            self.target_cache = None;
            (Ok(None), 0.0)
        };
        let (point, weights, model_update_s, weight_update_s, recommendation_s) = match fit {
            Ok(target) => {
                let weight_span = trace::span!("weight_update");
                let (surrogate, weights) = self.update_weights(view, rel_iter, seed, target);
                let weight_update_s = weight_span.finish_s();
                let model_update_s = model_span.finish_s();

                // ---- stage 3: knob recommendation -------------------------
                let recommendation_span = trace::span!("recommendation");
                let point = self.recommend(view, stage, rel_iter, seed, surrogate.as_ref());
                let recommendation_s = recommendation_span.finish_s();
                (point, weights, model_update_s, weight_update_s, recommendation_s)
            }
            Err(_) => {
                // GP-failure fallback: a degenerate observation set
                // (non-finite values, pathological kernel) must not abort the
                // run: degrade to a seeded uniform exploration point — the
                // next full observation both makes progress and feeds the
                // surrogate fresh, usable data.
                stage = Stage::Fallback;
                self.last_fit = FitPath::Fallback;
                self.target_cache = None;
                self.gp_fallbacks += 1;
                let point = self.recommend(view, stage, rel_iter, seed, None);
                let model_update_s = model_span.finish_s();
                (point, None, model_update_s, 0.0, 0.0)
            }
        };
        self.last_stage = stage;
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
            let calibration = self.target_cache.as_ref().map(|m| m.res.loo_calibration());
            TunerHealth::collect(
                view,
                record,
                self.last_stage,
                self.last_fit,
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
        self.base_learners = event.learners.clone().into();
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

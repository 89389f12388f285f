//! The meta-learner (§6): a weighted ensemble of per-task Gaussian-process
//! base-learners that transfers tuning experience to a new task.
//!
//! * **Base-learners** memorize one historical task's observations each
//!   (standardized per §6.1), so adding history never inflates the `O(n^3)`
//!   GP cost of the target task (§6.3).
//! * **Static weights** (§6.4.1, Eq. 8): before the target has meaningful
//!   observations, weights come from meta-feature distances through an
//!   Epanechnikov kernel.
//! * **Dynamic weights** (§6.4.2, Eq. 9): once observations accumulate, each
//!   base-learner is scored by its *ranking loss* against the target's
//!   observations — misranked pairs, not absolute errors, which is what makes
//!   the transfer robust to hardware-induced scale changes. Weights are the
//!   probability that a learner has the lowest loss, estimated by sampling
//!   from learner posteriors (the target uses leave-one-out predictions to
//!   avoid in-sample optimism).
//! * **Ensemble predictions** (Eqs. 6–7): the mean is the weighted average of
//!   base-learner means; the variance is the *target* learner's variance
//!   alone, because only target observations should shrink uncertainty.

use crate::surrogate::{GpTaskModel, SurrogatePrediction};
use gp::{GpError, Prediction, SurrogateGp};
use xrand::rngs::StdRng;
use xrand::{Rng, SeedableRng, SplitMix64};

/// A historical task's frozen surrogate plus its meta-feature.
#[derive(Debug, Clone)]
pub struct BaseLearner {
    /// Task label (workload @ instance).
    pub task_id: String,
    /// Workload name (for the varying-workloads setting filter).
    pub workload: String,
    /// Hardware environment (for the varying-hardware setting filter).
    pub instance: dbsim::InstanceType,
    /// Workload meta-feature (averaged cost-class distribution, §6.2).
    pub meta_feature: Vec<f64>,
    /// The task's best observed point that met the task's *own* SLA
    /// (throughput/latency of its first — default — observation). Used to
    /// seed acquisition anchors; `None` when no stored point qualified.
    pub promising_point: Option<Vec<f64>>,
    /// The task's fitted multi-output surrogate.
    pub model: GpTaskModel,
}

/// How ensemble weights are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightStrategy {
    /// Meta-feature distances through the Epanechnikov kernel (Eq. 8).
    Static {
        /// Kernel bandwidth ρ.
        bandwidth: f64,
    },
    /// Ranking-loss posterior sampling (Eq. 9).
    Dynamic {
        /// Posterior samples used to estimate `P(learner has lowest loss)`.
        samples: usize,
        /// At most this many of the most recent target observations enter the
        /// O(n²) ranking-loss computation.
        max_points: usize,
    },
}

impl WeightStrategy {
    /// The paper's defaults: bandwidth chosen so Table 5-scale distances
    /// produce comparable weights; 30 posterior samples.
    pub fn default_static() -> Self {
        WeightStrategy::Static { bandwidth: 0.2 }
    }

    /// Default dynamic strategy.
    pub fn default_dynamic() -> Self {
        WeightStrategy::Dynamic { samples: 30, max_points: 50 }
    }
}

/// The Epanechnikov quadratic kernel γ(t) = 3/4 (1 − t²) for t ≤ 1 (Eq. 8).
pub fn epanechnikov(t: f64) -> f64 {
    if t.abs() <= 1.0 {
        0.75 * (1.0 - t * t)
    } else {
        0.0
    }
}

/// Static weights from meta-feature distances (§6.4.1).
///
/// Returns one weight per historical learner plus, last, the target's weight
/// (the kernel at distance zero, 0.75 — matching the ~54 % share Table 5
/// reports for the target before normalization).
pub fn static_weights(
    base: &[BaseLearner],
    target_meta_feature: &[f64],
    bandwidth: f64,
) -> Vec<f64> {
    let mut weights: Vec<f64> = base
        .iter()
        .map(|b| {
            let d = linalg::vector::euclidean_distance(&b.meta_feature, target_meta_feature);
            epanechnikov(d / bandwidth)
        })
        .collect();
    weights.push(epanechnikov(0.0));
    weights
}

/// The target task's observations, standardized, as the dynamic weighting
/// needs them.
#[derive(Debug, Clone)]
pub struct TargetObservations<'a> {
    /// Normalized knob points.
    pub points: &'a [Vec<f64>],
    /// Standardized resource objective values.
    pub res: &'a [f64],
    /// Standardized throughput values.
    pub tps: &'a [f64],
    /// Standardized latency values.
    pub lat: &'a [f64],
}

/// Counts misranked pairs between `pred` and `actual` (Eq. 9).
pub fn ranking_loss(pred: &[f64], actual: &[f64]) -> usize {
    debug_assert_eq!(pred.len(), actual.len());
    let n = pred.len();
    let mut loss = 0;
    for j in 0..n {
        for k in 0..n {
            if j == k {
                continue;
            }
            if (pred[j] <= pred[k]) != (actual[j] <= actual[k]) {
                loss += 1;
            }
        }
    }
    loss
}

/// The degenerate-draw fallback: `n_samples` copies of the posterior means
/// at `points` (zeros if the GP cannot predict there).
fn mean_draws(gp: &SurrogateGp, points: &[Vec<f64>], n_samples: usize) -> Vec<Vec<f64>> {
    let means = match gp.predict_batch(points) {
        Ok(preds) => preds.iter().map(|q| q.mean).collect(),
        Err(_) => vec![0.0; points.len()],
    };
    vec![means; n_samples]
}

/// Posterior draws of a GP at `points`: one `Vec<f64>` per sample.
fn posterior_draws(
    gp: &SurrogateGp,
    points: &[Vec<f64>],
    n_samples: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<f64>> {
    // Degenerate covariance: fall back to the posterior means.
    gp.sample_joint(points, n_samples, rng).unwrap_or_else(|_| mean_draws(gp, points, n_samples))
}

/// Independent draws from leave-one-out predictive distributions (used for
/// the target learner so its loss is out-of-sample, §6.4.2). Only training
/// indices `start..` are drawn, matching the (possibly truncated) ranking
/// window at `points`.
fn loo_draws(
    gp: &SurrogateGp,
    points: &[Vec<f64>],
    start: usize,
    n_samples: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<f64>> {
    draws_from_loo(gp.loo_predictions(), gp, points, start, n_samples, rng)
}

/// Testable core of [`loo_draws`]. When the leave-one-out computation fails
/// (or yields fewer entries than the ranking window), falls back to
/// *length-preserving* draws — the in-sample posterior means at `points`,
/// mirroring [`posterior_draws`]' degenerate-covariance fallback — rather
/// than empty vectors. Zero-length target draws would score zero ranking
/// loss on every sample, silently absorbing all ensemble weight and
/// disabling transfer (and tripping the `ranking_loss` debug assertion in
/// debug builds).
fn draws_from_loo(
    loo: Result<Vec<Prediction>, GpError>,
    gp: &SurrogateGp,
    points: &[Vec<f64>],
    start: usize,
    n_samples: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<f64>> {
    match loo {
        Ok(loo) if loo.len() >= start + points.len() => {
            let tail = &loo[start..start + points.len()];
            (0..n_samples)
                .map(|_| {
                    tail.iter()
                        .map(|p| p.mean + p.std_dev() * gp::rand_util::standard_normal(rng))
                        .collect()
                })
                .collect()
        }
        _ => mean_draws(gp, points, n_samples),
    }
}

/// Dynamic weights: the probability that each learner (historical learners
/// first, target last) attains the lowest summed ranking loss over
/// {res, tps, lat} (§6.4.2). `dilution_guard` switches the RGPE
/// weight-dilution guard (the ablation harness runs both arms). Each
/// (learner, metric) pair draws from its own RNG stream seeded via
/// splitmix64, so the per-learner draws fan out through `core::exec` with
/// bit-identical weights however they are scheduled.
pub fn dynamic_weights(
    base: &[BaseLearner],
    target: &GpTaskModel,
    obs: &TargetObservations<'_>,
    samples: usize,
    max_points: usize,
    dilution_guard: bool,
    seed: u64,
) -> Vec<f64> {
    let n_all = obs.points.len();
    let take = n_all.min(max_points);
    let start = n_all - take;
    let points = &obs.points[start..];
    let actual: [&[f64]; 3] =
        [&obs.res[start..], &obs.tps[start..], &obs.lat[start..]];

    let t = base.len();
    if take < 3 || samples == 0 {
        // Too few observations to rank — or no samples to estimate
        // `P(lowest loss)` with, which would otherwise divide by zero and
        // hand `MetaLearner::new` all-NaN weights. Everything on the target.
        let mut w = vec![0.0; t + 1];
        w[t] = 1.0;
        return w;
    }

    trace::count("meta.weight_updates", 1);

    // Pre-draw posterior samples per learner per metric.
    // draws[learner][metric][sample] -> predictions at `points`.
    let mut seeder = SplitMix64::new(seed);
    let stream_seeds: Vec<u64> = (0..(t + 1) * 3).map(|_| seeder.next_u64()).collect();
    let draws: Vec<[Vec<Vec<f64>>; 3]> = crate::exec::map(t + 1, |li| {
        let span = trace::span!("learner_draws", learner = li);
        let model = if li == t { target } else { &base[li].model };
        let metric = |m: usize, gp: &SurrogateGp| -> Vec<Vec<f64>> {
            let mut rng = StdRng::seed_from_u64(stream_seeds[li * 3 + m]);
            if li == t {
                loo_draws(gp, points, start, samples, &mut rng)
            } else {
                posterior_draws(gp, points, samples, &mut rng)
            }
        };
        let out = [metric(0, &model.res), metric(1, &model.tps), metric(2, &model.lat)];
        let _ = span.finish_s();
        out
    });

    // Per-learner per-sample summed losses.
    let mut losses = vec![vec![0usize; samples]; t + 1];
    for (li, learner_draws) in draws.iter().enumerate() {
        for s in 0..samples {
            let mut loss = 0;
            for (m, actual_m) in actual.iter().enumerate() {
                loss += ranking_loss(&learner_draws[m][s], actual_m);
            }
            losses[li][s] = loss;
        }
    }

    // Weight-dilution guard (RGPE): drop a historical learner whose median
    // loss exceeds the 95th percentile of the *target's* loss samples — it
    // can only add noise ("negative transfer", §6.4.2 / §7.2.3).
    let percentile = |sorted: &[usize], q: f64| -> usize {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };
    let mut target_sorted = losses[t].clone();
    target_sorted.sort_unstable();
    let guard = percentile(&target_sorted, 0.95);
    let allowed: Vec<bool> = (0..=t)
        .map(|li| {
            if li == t || !dilution_guard {
                return true;
            }
            let mut sorted = losses[li].clone();
            sorted.sort_unstable();
            percentile(&sorted, 0.5) <= guard
        })
        .collect();

    let mut counts = vec![0.0; t + 1];
    for s in 0..samples {
        let mut best_loss = usize::MAX;
        let mut best: Vec<usize> = Vec::new();
        for li in 0..=t {
            if !allowed[li] {
                continue;
            }
            let loss = losses[li][s];
            match loss.cmp(&best_loss) {
                std::cmp::Ordering::Less => {
                    best_loss = loss;
                    best = vec![li];
                }
                std::cmp::Ordering::Equal => best.push(li),
                std::cmp::Ordering::Greater => {}
            }
        }
        // Split ties evenly (unbiased estimate of P(min)).
        let share = 1.0 / best.len() as f64;
        for li in best {
            counts[li] += share;
        }
    }
    for c in &mut counts {
        *c /= samples as f64;
    }
    counts
}

/// The ensemble surrogate L_M (§6.3).
#[derive(Debug, Clone)]
pub struct MetaLearner {
    base: Vec<BaseLearner>,
    target: GpTaskModel,
    /// Weights over `[base..., target]`; need not be normalized.
    weights: Vec<f64>,
}

impl MetaLearner {
    /// Builds the ensemble with explicit weights (`weights.len() ==
    /// base.len() + 1`, target last).
    ///
    /// # Panics
    ///
    /// If the weight count is wrong, or if any base learner's knob-space
    /// dimensionality differs from the target's: a mismatched learner would
    /// only surface as a prediction-time error deep inside the GP, so it is
    /// rejected here, at construction, with the offending task named.
    pub fn new(base: Vec<BaseLearner>, target: GpTaskModel, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), base.len() + 1, "one weight per learner plus target");
        let dim = target.res.dim();
        for b in &base {
            assert_eq!(
                b.model.res.dim(),
                dim,
                "base learner {:?} was fitted on a {}-dim knob space; the target space is {}-dim",
                b.task_id,
                b.model.res.dim(),
                dim
            );
        }
        MetaLearner { base, target, weights }
    }

    /// A meta-learner with no history: pure target model (ResTune-w/o-ML
    /// reduces to this).
    pub fn target_only(target: GpTaskModel) -> Self {
        MetaLearner { base: Vec::new(), target, weights: vec![1.0] }
    }

    /// The current weights (historical learners first, target last).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The target base-learner.
    pub fn target(&self) -> &GpTaskModel {
        &self.target
    }

    /// Historical base-learners.
    pub fn base_learners(&self) -> &[BaseLearner] {
        &self.base
    }

    /// Eqs. 6–7 for one metric at every point: the mean is the weighted
    /// average of the learners' means (historical learners in order, target
    /// last, one division by the weight sum), the variance the target's
    /// alone. `extract` predicts one learner's metric GP at `points`; a
    /// learner without positive weight is not predicted at all.
    fn ensemble_batch(
        &self,
        extract: impl Fn(&GpTaskModel, &[Vec<f64>]) -> Vec<Prediction>,
        points: &[Vec<f64>],
    ) -> Vec<Prediction> {
        let wsum: f64 = self.weights.iter().sum();
        let target_preds = extract(&self.target, points);
        if wsum <= 1e-12 {
            return target_preds;
        }
        let mut means = vec![0.0; points.len()];
        for (b, w) in self.base.iter().zip(&self.weights) {
            if *w > 0.0 {
                for (acc, p) in means.iter_mut().zip(extract(&b.model, points)) {
                    *acc += w * p.mean;
                }
            }
        }
        let target_weight = self.weights[self.base.len()];
        means
            .into_iter()
            .zip(&target_preds)
            .map(|(mut mean, tp)| {
                mean += target_weight * tp.mean;
                mean /= wsum;
                Prediction { mean, variance: tp.variance }
            })
            .collect()
    }

    /// The ensemble's joint prediction at every point: one batched
    /// prediction per (learner, metric) GP.
    ///
    /// # Panics
    ///
    /// If a point's length is not the knob-space dimensionality (checked
    /// against every learner at construction).
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<SurrogatePrediction> {
        let column = |metric: fn(&GpTaskModel) -> &SurrogateGp| {
            self.ensemble_batch(|m, p| metric(m).predict_batch(p).expect("dim"), points)
        };
        SurrogatePrediction::zip(column(|m| &m.res), column(|m| &m.tps), column(|m| &m.lat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::GpConfig;

    fn model_from(f: impl Fn(f64) -> f64) -> GpTaskModel {
        let points: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let res: Vec<f64> = points.iter().map(|p| f(p[0])).collect();
        let tps: Vec<f64> = points.iter().map(|p| 100.0 - 10.0 * p[0]).collect();
        let lat: Vec<f64> = points.iter().map(|p| 5.0 + p[0]).collect();
        GpTaskModel::fit(&points, &res, &tps, &lat, &GpConfig::fixed()).unwrap()
    }

    fn learner(id: &str, mf: Vec<f64>, f: impl Fn(f64) -> f64) -> BaseLearner {
        BaseLearner {
            task_id: id.into(),
            workload: id.into(),
            instance: dbsim::InstanceType::A,
            meta_feature: mf,
            promising_point: None,
            model: model_from(f),
        }
    }

    #[test]
    fn epanechnikov_shape() {
        assert_eq!(epanechnikov(0.0), 0.75);
        assert!(epanechnikov(0.5) > epanechnikov(0.9));
        assert_eq!(epanechnikov(1.5), 0.0);
        assert_eq!(epanechnikov(-1.5), 0.0);
    }

    #[test]
    fn static_weights_favor_similar_meta_features() {
        let base = vec![
            learner("near", vec![0.5, 0.5], |x| x),
            learner("far", vec![0.9, 0.1], |x| x),
        ];
        let w = static_weights(&base, &[0.52, 0.48], 0.5);
        assert_eq!(w.len(), 3);
        assert!(w[0] > w[1], "near {} far {}", w[0], w[1]);
        assert_eq!(w[2], 0.75); // target at distance 0
    }

    #[test]
    fn ranking_loss_counts_misranked_pairs() {
        // Perfectly aligned ranking: zero loss.
        assert_eq!(ranking_loss(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 0);
        // Fully reversed: every ordered pair (j != k) misranks except ties.
        let loss = ranking_loss(&[3.0, 2.0, 1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(loss, 6);
        // One swap.
        assert!(ranking_loss(&[1.0, 3.0, 2.0], &[1.0, 2.0, 3.0]) > 0);
    }

    #[test]
    fn ranking_loss_is_scale_invariant() {
        // The whole point of rank-based similarity: multiplying predictions
        // by any positive scale (different hardware!) leaves the loss
        // unchanged.
        let actual = [5.0, 1.0, 3.0, 2.0];
        let pred = [50.0, 10.0, 30.0, 20.0];
        let scaled: Vec<f64> = pred.iter().map(|v| v * 1000.0 + 7.0).collect();
        assert_eq!(ranking_loss(&pred, &actual), 0);
        assert_eq!(ranking_loss(&scaled, &actual), 0);
    }

    #[test]
    fn dynamic_weights_pick_the_matching_base_learner() {
        // Base learner A models the same res shape as the target; B is
        // anti-correlated. With enough target observations, A should carry
        // much more weight than B.
        let base = vec![
            learner("match", vec![0.5], |x| x),
            learner("anti", vec![0.5], |x| 1.0 - x),
        ];
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let res_raw: Vec<f64> = points.iter().map(|p| 40.0 + 30.0 * p[0]).collect();
        let tps_raw: Vec<f64> = points.iter().map(|p| 200.0 - 20.0 * p[0]).collect();
        let lat_raw: Vec<f64> = points.iter().map(|p| 10.0 + 2.0 * p[0]).collect();
        let target =
            GpTaskModel::fit(&points, &res_raw, &tps_raw, &lat_raw, &GpConfig::fixed()).unwrap();
        let res_std = target.scalers.res.transform_all(&res_raw);
        let tps_std = target.scalers.tps.transform_all(&tps_raw);
        let lat_std = target.scalers.lat.transform_all(&lat_raw);
        let obs = TargetObservations {
            points: &points,
            res: &res_std,
            tps: &tps_std,
            lat: &lat_std,
        };
        let w = dynamic_weights(&base, &target, &obs, 40, 50, true, 7);
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w[0] > w[1] + 0.2, "match {} anti {}", w[0], w[1]);
    }

    #[test]
    fn dynamic_weights_fall_back_to_target_with_few_points() {
        let base = vec![learner("a", vec![0.5], |x| x)];
        let points = vec![vec![0.1], vec![0.9]];
        let vals = vec![0.0, 1.0];
        let target = GpTaskModel::fit(
            &points,
            &vals,
            &vals,
            &vals,
            &GpConfig::fixed(),
        )
        .unwrap();
        let obs = TargetObservations { points: &points, res: &vals, tps: &vals, lat: &vals };
        let w = dynamic_weights(&base, &target, &obs, 10, 50, true, 0);
        assert_eq!(w, vec![0.0, 1.0]);
    }

    #[test]
    fn ensemble_mean_is_weighted_average_and_variance_is_targets() {
        let base = vec![learner("a", vec![0.5], |x| x), learner("b", vec![0.5], |x| 1.0 - x)];
        let target = model_from(|x| 0.5 * x);
        let target_pred = target.res.predict(&[0.3]).unwrap();
        let meta = MetaLearner::new(base, target, vec![1.0, 1.0, 2.0]);
        let pred = meta.predict_batch(&[vec![0.3]])[0];
        assert_eq!(pred.res.variance, target_pred.variance);
        // Mean is pulled between the learners; with symmetric base learners
        // (x and 1-x standardized are mirror images) it stays near target's.
        assert!(pred.res.mean.is_finite());
    }

    #[test]
    fn zero_weights_degrade_to_target_prediction() {
        let base = vec![learner("a", vec![0.5], |x| x)];
        let target = model_from(|x| x * x);
        let expected = target.res.predict(&[0.4]).unwrap();
        let meta = MetaLearner::new(base, target, vec![0.0, 0.0]);
        let pred = meta.predict_batch(&[vec![0.4]])[0];
        assert_eq!(pred.res, expected);
    }

    #[test]
    fn target_only_matches_plain_model() {
        let target = model_from(|x| x);
        let direct = target.res.predict(&[0.6]).unwrap();
        let meta = MetaLearner::target_only(target);
        assert_eq!(meta.predict_batch(&[vec![0.6]])[0].res, direct);
    }

    #[test]
    fn loo_failure_falls_back_to_length_preserving_draws() {
        // Regression for the silent-transfer-kill bug: a failed
        // `loo_predictions()` used to produce *empty* draw vectors, which
        // score zero ranking loss against any actuals — the target learner
        // then "wins" every sample and absorbs all ensemble weight.
        let target = model_from(|x| x);
        let points: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let draws = super::draws_from_loo(
            Err(GpError::Factorization("forced failure".into())),
            &target.res,
            &points,
            0,
            5,
            &mut rng,
        );
        assert_eq!(draws.len(), 5);
        for d in &draws {
            assert_eq!(d.len(), points.len(), "draws must preserve window length");
            assert!(d.iter().all(|v| v.is_finite()));
        }
        // The fallback draws follow the fitted (increasing) signal, so they
        // incur real ranking loss against anti-correlated actuals — the
        // target can no longer score a free zero.
        let anti: Vec<f64> = points.iter().map(|p| 1.0 - p[0]).collect();
        assert!(ranking_loss(&draws[0], &anti) > 0, "fallback draws must not be free wins");
    }

    #[test]
    fn zero_samples_yield_target_only_weights_not_nan() {
        let base = vec![learner("a", vec![0.5], |x| x)];
        let points: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let vals: Vec<f64> = points.iter().map(|p| p[0]).collect();
        let target =
            GpTaskModel::fit(&points, &vals, &vals, &vals, &GpConfig::fixed()).unwrap();
        let obs = TargetObservations { points: &points, res: &vals, tps: &vals, lat: &vals };
        let w = dynamic_weights(&base, &target, &obs, 0, 50, true, 3);
        assert_eq!(w, vec![0.0, 1.0]);
        assert!(w.iter().all(|v| v.is_finite()));
    }

    /// Selects one metric GP of a task model.
    type Metric = fn(&GpTaskModel) -> &SurrogateGp;

    /// Eqs. 6–7 at one point, written out: the weighted mean accumulated in
    /// learner order (historical learners with positive weight, then the
    /// target), one division by the weight sum, and the target's variance.
    /// The oracle the batched ensemble is held to, bit for bit.
    fn reference_ensemble(meta: &MetaLearner, metric: Metric, point: &[f64]) -> Prediction {
        let target = metric(&meta.target).predict(point).unwrap();
        let wsum: f64 = meta.weights.iter().sum();
        if wsum <= 1e-12 {
            return target;
        }
        let mut mean = 0.0;
        for (b, w) in meta.base.iter().zip(&meta.weights) {
            if *w > 0.0 {
                mean += w * metric(&b.model).predict(point).unwrap().mean;
            }
        }
        mean += meta.weights[meta.base.len()] * target.mean;
        Prediction { mean: mean / wsum, variance: target.variance }
    }

    #[test]
    fn meta_predict_batch_matches_the_per_point_reference_bitwise() {
        let pts: Vec<Vec<f64>> = (0..17).map(|i| vec![i as f64 / 16.0]).collect();
        for weights in [vec![0.6, 0.0, 1.4], vec![0.3, 0.9, 0.2], vec![0.0, 0.0, 0.0]] {
            let base = vec![learner("a", vec![0.5], |x| x), learner("b", vec![0.5], |x| 1.0 - x)];
            let meta = MetaLearner::new(base, model_from(|x| 0.5 * x), weights);
            let batch = meta.predict_batch(&pts);
            for (p, b) in pts.iter().zip(&batch) {
                let metrics: [(Metric, Prediction); 3] =
                    [(|m| &m.res, b.res), (|m| &m.tps, b.tps), (|m| &m.lat, b.lat)];
                for (metric, got) in metrics {
                    let want = reference_ensemble(&meta, metric, p);
                    assert_eq!(want.mean.to_bits(), got.mean.to_bits(), "mean at {p:?}");
                    assert_eq!(want.variance.to_bits(), got.variance.to_bits(), "var at {p:?}");
                }
            }
        }
    }
}

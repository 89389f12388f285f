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
//!   alone, because only target observations should shrink uncertainty. So
//!   historical learners are predicted by their means alone
//!   ([`gp::GaussianProcess::predict_mean_batch`]), without a variance solve.
//!
//! A [`MetaLearner`] shares its learners rather than owning copies: the
//! historical learners as one `Arc<[BaseLearner]>` and the target model as
//! an `Arc`, so building the ensemble for a step copies no GP. Points and
//! posterior draws travel as blocks, one point or one draw per row of a
//! [`linalg::Matrix`].

use crate::surrogate::{GpTaskModel, SurrogatePrediction};
use gp::{GaussianProcess, Prediction};
use linalg::{Matrix, MatrixView};
use std::sync::Arc;
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
    /// Normalized knob points, one per row.
    pub points: &'a Matrix,
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

/// The degenerate-draw fallback: `n_samples` copies (rows) of the posterior
/// means at `points` (zeros if the GP cannot predict there).
fn mean_draws(gp: &GaussianProcess, points: &MatrixView<'_>, n_samples: usize) -> Matrix {
    let means = gp.predict_mean_batch(points).unwrap_or_else(|_| vec![0.0; points.rows()]);
    Matrix::from_fn(n_samples, means.len(), |_, j| means[j])
}

/// Posterior draws of a GP at `points`: one row per sample.
fn posterior_draws(
    gp: &GaussianProcess,
    points: &MatrixView<'_>,
    n_samples: usize,
    rng: &mut impl Rng,
) -> Matrix {
    // Degenerate covariance: fall back to the posterior means.
    gp.sample_joint(points, n_samples, rng).unwrap_or_else(|_| mean_draws(gp, points, n_samples))
}

/// Independent draws from leave-one-out predictive distributions (used for
/// the target learner so its loss is out-of-sample, §6.4.2). Only training
/// indices `start..` are drawn, matching the (possibly truncated) ranking
/// window at `points`.
fn loo_draws(
    gp: &GaussianProcess,
    points: &MatrixView<'_>,
    start: usize,
    n_samples: usize,
    rng: &mut impl Rng,
) -> Matrix {
    draws_from_loo(&gp.loo_predictions(), gp, points, start, n_samples, rng)
}

/// Testable core of [`loo_draws`]. When the leave-one-out predictions
/// cover fewer entries than the ranking window, which only a public
/// [`dynamic_weights`] caller whose target was fitted on fewer points than
/// the window can bring about, falls back to *length-preserving* draws —
/// the in-sample posterior means at `points`, mirroring
/// [`posterior_draws`]' degenerate-covariance fallback — rather than empty
/// rows. Zero-length target draws would score zero ranking loss on every
/// sample, silently absorbing all ensemble weight and disabling transfer
/// (and tripping the `ranking_loss` debug assertion in debug builds).
fn draws_from_loo(
    loo: &[Prediction],
    gp: &GaussianProcess,
    points: &MatrixView<'_>,
    start: usize,
    n_samples: usize,
    rng: &mut impl Rng,
) -> Matrix {
    match loo.get(start..start + points.rows()) {
        Some(tail) => Matrix::from_fn(n_samples, tail.len(), |_, j| {
            tail[j].mean + tail[j].std_dev() * gp::rand_util::standard_normal(rng)
        }),
        None => mean_draws(gp, points, n_samples),
    }
}

/// Dynamic weights: the probability that each learner (historical learners
/// first, target last) attains the lowest summed ranking loss over
/// {res, tps, lat} (§6.4.2). `dilution_guard` switches the RGPE
/// weight-dilution guard (the ablation harness runs both arms). Each
/// (learner, metric) pair draws from its own RNG stream seeded via
/// splitmix64, so the per-learner draws fan out through `core::exec`, in
/// `exec::lanes()` contiguous ranges of learners, with bit-identical weights
/// however they are scheduled.
pub fn dynamic_weights(
    base: &[BaseLearner],
    target: &GpTaskModel,
    obs: &TargetObservations<'_>,
    samples: usize,
    max_points: usize,
    dilution_guard: bool,
    seed: u64,
) -> Vec<f64> {
    let n_all = obs.points.rows();
    let take = n_all.min(max_points);
    let start = n_all - take;
    let points = &obs.points.view(start..n_all);
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
    // draws[learner][metric] has one row of predictions at `points` per sample.
    let mut seeder = SplitMix64::new(seed);
    let stream_seeds: Vec<u64> = (0..(t + 1) * 3).map(|_| seeder.next_u64()).collect();
    let draw_learner = |li: usize| -> [Matrix; 3] {
        let span = trace::span!("learner_draws", learner = li);
        let model = if li == t { target } else { &base[li].model };
        let metric = |m: usize, gp: &GaussianProcess| -> Matrix {
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
    };
    // One task per lane of contiguous learners, not per learner: at most
    // `lanes()` threads are live, and each may hold its own allocator arena
    // (DESIGN.md §8).
    let learners: Vec<usize> = (0..=t).collect();
    let lanes: Vec<&[usize]> =
        learners.chunks(learners.len().div_ceil(crate::exec::lanes())).collect();
    let draws: Vec<[Matrix; 3]> = crate::exec::map(lanes.len(), |l| {
        lanes[l].iter().map(|&li| draw_learner(li)).collect::<Vec<_>>()
    })
    .concat();

    // Per-learner per-sample summed losses.
    let mut losses = vec![vec![0usize; samples]; t + 1];
    for (li, learner_draws) in draws.iter().enumerate() {
        for s in 0..samples {
            let mut loss = 0;
            for (m, actual_m) in actual.iter().enumerate() {
                loss += ranking_loss(learner_draws[m].row(s), actual_m);
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

/// Selects one metric GP of a task model.
pub(crate) type Metric = fn(&GpTaskModel) -> &GaussianProcess;

/// The ensemble surrogate L_M (§6.3), over shared learners.
#[derive(Debug, Clone)]
pub struct MetaLearner {
    base: Arc<[BaseLearner]>,
    target: Arc<GpTaskModel>,
    /// Weights over `[base..., target]`; need not be normalized.
    weights: Vec<f64>,
}

impl MetaLearner {
    /// Builds the ensemble with explicit weights (`weights.len() ==
    /// base.len() + 1`, target last). The learners are shared, not copied:
    /// pass an `Arc` to build ensembles over the same learners step after
    /// step.
    ///
    /// # Panics
    ///
    /// If the weight count is wrong, or if any base learner's knob-space
    /// dimensionality differs from the target's: a mismatched learner would
    /// only surface as a prediction-time error deep inside the GP, so it is
    /// rejected here, at construction, with the offending task named.
    pub fn new(
        base: impl Into<Arc<[BaseLearner]>>,
        target: impl Into<Arc<GpTaskModel>>,
        weights: Vec<f64>,
    ) -> Self {
        let (base, target) = (base.into(), target.into());
        assert_eq!(weights.len(), base.len() + 1, "one weight per learner plus target");
        let dim = target.res.dim();
        for b in base.iter() {
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
    pub fn target_only(target: impl Into<Arc<GpTaskModel>>) -> Self {
        MetaLearner { base: Arc::default(), target: target.into(), weights: vec![1.0] }
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
    /// alone. So the target is predicted in full and each historical learner
    /// with positive weight by its means alone, skipping the variance solve
    /// nothing reads; a learner without positive weight is not predicted at
    /// all.
    ///
    /// # Panics
    ///
    /// If the block's width is not the knob-space dimensionality.
    pub(crate) fn ensemble_batch<S: AsRef<[f64]>>(
        &self,
        metric: Metric,
        points: &Matrix<S>,
    ) -> Vec<Prediction> {
        let wsum: f64 = self.weights.iter().sum();
        let target_preds = metric(&self.target).predict_batch(points).expect("dim");
        if wsum <= 1e-12 {
            return target_preds;
        }
        let mut means = vec![0.0; points.rows()];
        for (b, w) in self.base.iter().zip(&self.weights) {
            if *w > 0.0 {
                let learner = metric(&b.model).predict_mean_batch(points).expect("dim");
                for (acc, mean) in means.iter_mut().zip(learner) {
                    *acc += w * mean;
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
    /// If the block's width is not the knob-space dimensionality (checked
    /// against every learner at construction).
    pub fn predict_batch<S: AsRef<[f64]>>(&self, points: &Matrix<S>) -> Vec<SurrogatePrediction> {
        let column = |metric: Metric| self.ensemble_batch(metric, points);
        SurrogatePrediction::zip(column(|m| &m.res), column(|m| &m.tps), column(|m| &m.lat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::GpConfig;

    /// `n` points spread evenly over `[0, 1]`, one per row.
    fn grid(n: usize) -> Matrix {
        Matrix::from_fn(n, 1, |i, _| i as f64 / (n - 1) as f64)
    }

    /// One 1-d point as a block.
    fn at(x: f64) -> Matrix {
        Matrix::from_vec(1, 1, vec![x])
    }

    fn model_from(f: impl Fn(f64) -> f64) -> GpTaskModel {
        let points = grid(12);
        let res: Vec<f64> = points.iter_rows().map(|p| f(p[0])).collect();
        let tps: Vec<f64> = points.iter_rows().map(|p| 100.0 - 10.0 * p[0]).collect();
        let lat: Vec<f64> = points.iter_rows().map(|p| 5.0 + p[0]).collect();
        GpTaskModel::fit(points, &res, &tps, &lat, &GpConfig::fixed()).unwrap()
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
        // A meta-feature of another length is infinitely far: no weight.
        let other = [learner("other space", vec![0.52, 0.48, 0.0], |x| x)];
        assert_eq!(static_weights(&other, &[0.52, 0.48], 0.5), vec![0.0, 0.75]);
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
        let points = grid(10);
        let res_raw: Vec<f64> = points.iter_rows().map(|p| 40.0 + 30.0 * p[0]).collect();
        let tps_raw: Vec<f64> = points.iter_rows().map(|p| 200.0 - 20.0 * p[0]).collect();
        let lat_raw: Vec<f64> = points.iter_rows().map(|p| 10.0 + 2.0 * p[0]).collect();
        let target =
            GpTaskModel::fit(points.clone(), &res_raw, &tps_raw, &lat_raw, &GpConfig::fixed())
                .unwrap();
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
        let points = Matrix::from_vec(2, 1, vec![0.1, 0.9]);
        let vals = vec![0.0, 1.0];
        let target = GpTaskModel::fit(
            points.clone(),
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
        let pred = meta.predict_batch(&at(0.3))[0];
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
        let pred = meta.predict_batch(&at(0.4))[0];
        assert_eq!(pred.res, expected);
    }

    #[test]
    fn target_only_matches_plain_model() {
        let target = model_from(|x| x);
        let direct = target.res.predict(&[0.6]).unwrap();
        let meta = MetaLearner::target_only(target);
        assert_eq!(meta.predict_batch(&at(0.6))[0].res, direct);
    }

    #[test]
    fn loo_failure_falls_back_to_length_preserving_draws() {
        // Regression for the silent-transfer-kill bug: LOO predictions that
        // did not cover the ranking window used to produce *empty* draw
        // vectors, which score zero ranking loss against any actuals — the
        // target learner then "wins" every sample and absorbs all ensemble
        // weight. A target fitted on 12 points, ranked over a 14-point
        // window, is the case that still reaches the fallback.
        let target = model_from(|x| x);
        let points = grid(14);
        assert!(target.res.loo_predictions().len() < points.rows());
        let mut rng = StdRng::seed_from_u64(9);
        let draws = super::loo_draws(&target.res, &points.view(0..14), 0, 5, &mut rng);
        assert_eq!(draws.rows(), 5);
        assert_eq!(draws.cols(), points.rows(), "draws must preserve window length");
        assert!(draws.all_finite());
        // The fallback draws follow the fitted (increasing) signal, so they
        // incur real ranking loss against anti-correlated actuals — the
        // target can no longer score a free zero.
        let anti: Vec<f64> = points.iter_rows().map(|p| 1.0 - p[0]).collect();
        assert!(ranking_loss(draws.row(0), &anti) > 0, "fallback draws must not be free wins");
    }

    #[test]
    fn zero_samples_yield_target_only_weights_not_nan() {
        let base = vec![learner("a", vec![0.5], |x| x)];
        let points = grid(8);
        let vals: Vec<f64> = points.iter_rows().map(|p| p[0]).collect();
        let target =
            GpTaskModel::fit(points.clone(), &vals, &vals, &vals, &GpConfig::fixed()).unwrap();
        let obs = TargetObservations { points: &points, res: &vals, tps: &vals, lat: &vals };
        let w = dynamic_weights(&base, &target, &obs, 0, 50, true, 3);
        assert_eq!(w, vec![0.0, 1.0]);
        assert!(w.iter().all(|v| v.is_finite()));
    }

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
        let pts = grid(17);
        let base: Arc<[BaseLearner]> =
            vec![learner("a", vec![0.5], |x| x), learner("b", vec![0.5], |x| 1.0 - x)].into();
        let target = Arc::new(model_from(|x| 0.5 * x));
        for weights in [vec![0.6, 0.0, 1.4], vec![0.3, 0.9, 0.2], vec![0.0, 0.0, 0.0]] {
            // Ensembles over the same shared learners, one per weighting.
            let meta = MetaLearner::new(Arc::clone(&base), Arc::clone(&target), weights);
            assert!(std::ptr::eq(meta.base_learners(), &*base));
            assert!(std::ptr::eq(meta.target(), &*target));
            let batch = meta.predict_batch(&pts);
            for (p, b) in pts.iter_rows().zip(&batch) {
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

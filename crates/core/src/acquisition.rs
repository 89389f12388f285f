//! Acquisition functions (§5.2): Expected Improvement and the paper's
//! Constrained Expected Improvement (CEI, Eq. 5), plus the candidate-based
//! optimizer that proposes the next configuration.
//!
//! The optimizer is an exact branch and bound over a seeded candidate set,
//! drawn into one block (one candidate per row of a [`linalg::Matrix`]).
//! The objective's prediction bounds every candidate: CEI is EI times two
//! feasibility probabilities in `[0, 1]`, so
//! [`ConstrainedExpectedImprovement::bound`], `max(EI, 0)` from the
//! objective's prediction alone, bounds it. Candidates are then valued in
//! descending-bound order, one `sort_unstable` over packed integer keys,
//! and every one whose bound is strictly below the best value found so far
//! is skipped. A valued candidate reuses the objective prediction its bound
//! came from (a point's prediction does not depend on the rest of its
//! block), so only the candidates that can still win pay for the
//! throughput and latency predictions, and nothing predicts the objective
//! twice. The proposal is the strict-`>`, first-index argmax of the values,
//! bit for bit (DESIGN.md §8).

use crate::surrogate::SurrogatePrediction;
use gp::{normal_cdf, normal_pdf, Prediction};
use linalg::{Matrix, MatrixView};
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

/// Which acquisition the tuner optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquisitionKind {
    /// Plain EI on the objective (iTuned — ignores the SLA).
    ExpectedImprovement,
    /// CEI: EI weighted by the probability of satisfying both constraints.
    ConstrainedExpectedImprovement,
    /// The simple alternative the paper's related work describes (§2):
    /// attach a penalty to the objective when constraints are violated, then
    /// run plain EI on the penalized objective. Used by the acquisition
    /// ablation to show why CEI's probabilistic weighting wins.
    PenalizedExpectedImprovement,
}

/// Closed-form Expected Improvement for *minimization*:
/// `EI(θ) = E[max(0, f_best - f(θ))]` (Eq. 2).
pub fn expected_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    (best - mean) * normal_cdf(z) + std * normal_pdf(z)
}

/// The CEI acquisition (Eq. 5): `Pr[tps ≥ λ'_tps] · Pr[lat ≤ λ'_lat] · EI`.
///
/// Thresholds are in the same (standardized) units as the surrogate's
/// predictions.
#[derive(Debug, Clone, Copy)]
pub struct ConstrainedExpectedImprovement {
    /// Best *feasible* objective value observed so far (standardized).
    /// `None` until a feasible point exists — then CEI degenerates to pure
    /// feasibility search.
    pub best_feasible: Option<f64>,
    /// Re-scaled throughput floor λ'_tps.
    pub tps_floor: f64,
    /// Re-scaled latency ceiling λ'_lat.
    pub lat_ceiling: f64,
}

impl ConstrainedExpectedImprovement {
    /// Probability that `point` satisfies both SLA constraints under the
    /// surrogate — the expectation of the feasibility indicator Δ(θ) (Eq. 4).
    pub fn feasibility_probability(&self, pred: &SurrogatePrediction) -> f64 {
        let p_tps = if pred.tps.std_dev() <= 1e-12 {
            if pred.tps.mean >= self.tps_floor {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - normal_cdf((self.tps_floor - pred.tps.mean) / pred.tps.std_dev())
        };
        let p_lat = if pred.lat.std_dev() <= 1e-12 {
            if pred.lat.mean <= self.lat_ceiling {
                1.0
            } else {
                0.0
            }
        } else {
            normal_cdf((self.lat_ceiling - pred.lat.mean) / pred.lat.std_dev())
        };
        p_tps * p_lat
    }

    /// The CEI value at a prediction.
    pub fn value(&self, pred: &SurrogatePrediction) -> f64 {
        let pf = self.feasibility_probability(pred);
        match self.best_feasible {
            Some(best) => pf * expected_improvement(pred.res.mean, pred.res.std_dev(), best),
            // No feasible incumbent yet: maximize the probability of finding
            // one (standard CBO practice when the feasible set is unknown).
            None => pf,
        }
    }

    /// An upper bound on [`ConstrainedExpectedImprovement::value`] from the
    /// objective's prediction alone: `max(EI, 0)` with a feasible
    /// incumbent, `+∞` without one. `value(p) <= bound(&p.res)` whenever
    /// the value is not NaN, because the feasibility probability lies in
    /// `[0, 1]` in f64 (`normal_cdf` lies in `[0, 1]`, and the exact
    /// branches return 0 or 1), so `pf · EI ≤ EI` for `EI ≥ 0` and
    /// `pf · EI ≤ 0` otherwise. The clamp is needed: in f64, `expected_improvement` is
    /// slightly negative in places (mean 8.25, std 0.985, best 0 gives
    /// −2.28e-16), and there `pf · EI > EI`.
    pub fn bound(&self, res: &Prediction) -> f64 {
        match self.best_feasible {
            Some(best) => expected_improvement(res.mean, res.std_dev(), best).max(0.0),
            None => f64::INFINITY,
        }
    }
}

/// Configuration for the acquisition optimizer.
#[derive(Debug, Clone, Copy)]
pub struct AcquisitionOptimizer {
    /// Uniform random candidates per round.
    pub n_candidates: usize,
    /// Local-perturbation candidates around each of the top incumbents.
    pub n_local: usize,
    /// Perturbation scale for local candidates.
    pub local_sigma: f64,
}

impl Default for AcquisitionOptimizer {
    fn default() -> Self {
        AcquisitionOptimizer { n_candidates: 1500, n_local: 200, local_sigma: 0.08 }
    }
}

/// Candidates per objective prediction in the bound pass. A batched GP
/// prediction builds an n×m cross-kernel matrix (plus its solve copy) per
/// GP: scoring a whole 1,720-candidate set at once raised the benchmark
/// fleet's peak RSS by ~9%, 256-wide blocks keep the batching's speed at
/// +1.7% (DESIGN.md §8).
const SCORE_BLOCK: usize = 256;

/// Candidates per value call in the bounded search. A constant, so which
/// candidates get valued never depends on `exec::lanes()`.
const VALUE_ROUND: usize = 32;

/// The sort key of a bound: ascending keys put NaN first (key 0), then the
/// other bounds in descending `f64::total_cmp` order (`+0.0` before `-0.0`).
/// For a non-NaN bound the key is `!t`, where `t` is the bound's total-order
/// key (`bits ^ 1 << 63` with the sign clear, `!bits` with it set), which
/// is never `u64::MAX`, so the key is never 0.
fn bound_key(bound: f64) -> u64 {
    if bound.is_nan() {
        return 0;
    }
    let bits = bound.to_bits();
    !if bits >> 63 == 0 { bits ^ 1 << 63 } else { !bits }
}

/// The bound a [`bound_key`] came from; a NaN for key 0.
fn key_bound(key: u64) -> f64 {
    if key == 0 {
        return f64::NAN;
    }
    let t = !key;
    f64::from_bits(if t >> 63 == 1 { t ^ 1 << 63 } else { !t })
}

impl AcquisitionOptimizer {
    /// Draws the full candidate set from the seeded RNG into one block, one
    /// candidate per row, as wide as `anchors`: `n_candidates` uniform
    /// points over `[0,1]^d`, then `n_local` Gaussian perturbations cycling
    /// through the anchors. A set that would come out empty gets one uniform
    /// point instead, so there is always an argmax. Generation is serial and
    /// consumes the RNG stream in a fixed order (row by row, coordinate by
    /// coordinate), so scoring — which never touches the RNG — can be split
    /// freely without moving the proposal.
    fn generate_candidates(&self, anchors: &Matrix, seed: u64) -> Matrix {
        let dim = anchors.cols();
        let mut rng = StdRng::seed_from_u64(seed);
        let n_local = if anchors.rows() == 0 { 0 } else { self.n_local };
        let n_uniform = if n_local == 0 { self.n_candidates.max(1) } else { self.n_candidates };
        let mut data = Vec::with_capacity((n_uniform + n_local) * dim);
        data.extend((0..n_uniform * dim).map(|_| rng.random::<f64>()));
        for i in 0..n_local {
            let anchor = anchors.row(i % anchors.rows());
            data.extend(anchor.iter().map(|v| {
                let z = gp::rand_util::standard_normal(&mut rng);
                (v + self.local_sigma * z).clamp(0.0, 1.0)
            }));
        }
        Matrix::from_vec(n_uniform + n_local, dim, data)
    }

    /// Maximizes an acquisition over `[0,1]^d`, `d` the width of `anchors`
    /// (typically the incumbent best points, one per row; the block may have
    /// no rows), via random search plus local refinement around the anchors,
    /// by an exact branch and bound over three pieces: `objective` predicts
    /// the objective at a block of candidates, `bound` bounds a candidate's
    /// value from its objective prediction, and `value` values a block of
    /// candidates given their objective predictions.
    ///
    /// 1. **Bound.** The candidates are split into `core::exec` lanes of
    ///    contiguous rows, and `objective` predicts each lane in blocks of at
    ///    most 256 rows; each prediction gets its bound. Without `bound`
    ///    every bound is `+∞`, and this pass predicts nothing.
    /// 2. **Value.** Candidates are valued in descending-bound order (NaN
    ///    bounds first, ties by index), in rounds of at most 32 rows copied
    ///    into one block, skipping every candidate whose bound is strictly
    ///    below the best value found so far. A round's objective
    ///    predictions are the bound pass's (or, without `bound`, predicted
    ///    for the round). A later candidate replaces the best only with a
    ///    strictly greater value, or an equal one at a lower index.
    ///
    /// The proposal is the first candidate with the greatest value (a strict
    /// `>` scan from `-∞`; candidate 0 if no value beats `-∞`), whatever the
    /// lane count, provided that
    ///
    /// - `value ≤ bound` at every candidate whose value is not NaN (a NaN
    ///   bound is never pruned, and `+∞` bounds nothing), and
    /// - `objective(pts)[i]` and `value(pts, preds)[i]` depend on row `i`
    ///   and `preds[i]` alone.
    ///
    /// A pruned candidate's value is at most its bound, strictly below the
    /// best value, so it could neither win nor tie.
    ///
    /// # Panics
    ///
    /// If `objective` or `value` returns other than one entry per row.
    pub fn optimize(
        &self,
        anchors: &Matrix,
        seed: u64,
        objective: impl Fn(&MatrixView<'_>) -> Vec<Prediction> + Sync,
        bound: Option<impl Fn(&Prediction) -> f64 + Sync>,
        value: impl Fn(&MatrixView<'_>, &[Prediction]) -> Vec<f64>,
    ) -> Vec<f64> {
        let candidates = self.generate_candidates(anchors, seed);
        let n = candidates.rows();
        trace::count("acq.candidates_scored", n as u64);
        let predict = |rows: &MatrixView<'_>| {
            let preds = objective(rows);
            assert_eq!(preds.len(), rows.rows(), "the objective predicts each row once");
            preds
        };
        // The objective predictions (when bounded) and the candidates'
        // (bound key, index) pairs in valuing order.
        let (preds, order) = match &bound {
            None => (Vec::new(), (0..n).map(|i| (bound_key(f64::INFINITY), i)).collect()),
            Some(bound) => {
                let per_lane = n.div_ceil(crate::exec::lanes());
                let lanes = crate::exec::map(n.div_ceil(per_lane), |l| {
                    let rows = l * per_lane..n.min((l + 1) * per_lane);
                    let span = trace::span!("score_candidates", n = rows.len());
                    let mut preds = Vec::with_capacity(rows.len());
                    for start in rows.clone().step_by(SCORE_BLOCK) {
                        let end = rows.end.min(start + SCORE_BLOCK);
                        preds.extend(predict(&candidates.view(start..end)));
                    }
                    let keys: Vec<(u64, usize)> =
                        preds.iter().zip(rows).map(|(p, i)| (bound_key(bound(p)), i)).collect();
                    let _ = span.finish_s();
                    (preds, keys)
                });
                let (preds, keys): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
                let mut order = keys.concat();
                order.sort_unstable();
                (preds.concat(), order)
            }
        };

        let span = trace::span!("value_candidates");
        let mut block = Matrix::zeros(VALUE_ROUND.min(n), candidates.cols());
        let mut round_preds = Vec::with_capacity(VALUE_ROUND);
        // The index of the best value so far.
        let mut best: Option<usize> = None;
        let mut best_value = f64::NEG_INFINITY;
        let mut next = 0;
        while next < n {
            // The next round: bounds not strictly below the best value (a
            // NaN bound is never pruned), at most `VALUE_ROUND` of them.
            let round = order[next..].iter().take(VALUE_ROUND).take_while(|(key, _)| {
                let bound = key_bound(*key);
                bound >= best_value || bound.is_nan()
            });
            let round = &order[next..next + round.count()];
            if round.is_empty() {
                break;
            }
            for (row, &(_, i)) in round.iter().enumerate() {
                block.row_mut(row).copy_from_slice(candidates.row(i));
            }
            let rows = block.view(0..round.len());
            if bound.is_some() {
                round_preds.clear();
                round_preds.extend(round.iter().map(|&(_, i)| preds[i]));
            } else {
                round_preds = predict(&rows);
            }
            let values = value(&rows, &round_preds);
            assert_eq!(values.len(), round.len(), "the value function values each row once");
            for (&(_, i), v) in round.iter().zip(values) {
                if v > best_value || (v == best_value && best.is_some_and(|b| i < b)) {
                    best_value = v;
                    best = Some(i);
                }
            }
            next += round.len();
        }
        trace::count("acq.candidates_valued", next as u64);
        let _ = span.with_field("n", next as f64).finish_s();
        // No value beat -∞: the scan's answer is candidate 0.
        candidates.row(best.unwrap_or(0)).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(res: (f64, f64), tps: (f64, f64), lat: (f64, f64)) -> SurrogatePrediction {
        SurrogatePrediction {
            res: Prediction { mean: res.0, variance: res.1 * res.1 },
            tps: Prediction { mean: tps.0, variance: tps.1 * tps.1 },
            lat: Prediction { mean: lat.0, variance: lat.1 * lat.1 },
        }
    }

    #[test]
    fn ei_matches_monte_carlo() {
        let (mean, std, best) = (0.2, 0.7, 0.5);
        let analytic = expected_improvement(mean, std, best);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mc: f64 = (0..n)
            .map(|_| {
                let z = gp::rand_util::standard_normal(&mut rng);
                (best - (mean + std * z)).max(0.0)
            })
            .sum::<f64>()
            / n as f64;
        assert!((analytic - mc).abs() < 0.01, "analytic {analytic} mc {mc}");
    }

    #[test]
    fn ei_is_zero_when_certainly_worse() {
        assert_eq!(expected_improvement(5.0, 0.0, 1.0), 0.0);
        assert!(expected_improvement(5.0, 0.1, 1.0) < 1e-6);
    }

    #[test]
    fn cei_is_bounded_by_ei() {
        let cei = ConstrainedExpectedImprovement {
            best_feasible: Some(0.5),
            tps_floor: 0.0,
            lat_ceiling: 0.0,
        };
        for p in [
            pred((0.0, 0.5), (0.5, 0.3), (-0.5, 0.3)),
            pred((-1.0, 0.2), (-2.0, 0.3), (2.0, 0.3)),
            pred((0.4, 0.9), (0.0, 1.0), (0.0, 1.0)),
        ] {
            let ei = expected_improvement(p.res.mean, p.res.std_dev(), 0.5);
            let v = cei.value(&p);
            assert!(v >= -1e-12 && v <= ei + 1e-12, "cei {v} vs ei {ei}");
        }
    }

    #[test]
    fn infeasible_regions_score_near_zero() {
        let cei = ConstrainedExpectedImprovement {
            best_feasible: Some(0.0),
            tps_floor: 0.0,
            lat_ceiling: 0.0,
        };
        // tps far below the floor with small uncertainty.
        let p = pred((-3.0, 0.3), (-4.0, 0.2), (0.0, 0.2));
        assert!(cei.value(&p) < 1e-6);
    }

    #[test]
    fn feasibility_probability_factorizes() {
        let cei = ConstrainedExpectedImprovement {
            best_feasible: None,
            tps_floor: 0.0,
            lat_ceiling: 0.0,
        };
        // Exactly at both bounds with symmetric uncertainty: p = 0.5 * 0.5.
        let p = pred((0.0, 1.0), (0.0, 1.0), (0.0, 1.0));
        assert!((cei.feasibility_probability(&p) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn without_incumbent_cei_seeks_feasibility() {
        let cei = ConstrainedExpectedImprovement {
            best_feasible: None,
            tps_floor: 0.0,
            lat_ceiling: 0.0,
        };
        let likely = pred((0.0, 0.1), (2.0, 0.5), (-2.0, 0.5));
        let unlikely = pred((-5.0, 0.1), (-2.0, 0.5), (2.0, 0.5));
        assert!(cei.value(&likely) > cei.value(&unlikely));
    }

    #[test]
    fn cei_value_never_exceeds_its_bound() {
        use propcheck::{check, Config};
        // The f64 tail where the closed-form EI goes negative: there
        // `pf · EI > EI` for any `pf < 1`, which is why the bound clamps.
        let tail = expected_improvement(8.25, 0.985, 0.0);
        assert!(tail < 0.0, "EI {tail} at the pinned tail point");
        let cfg = Config::default().cases(512).seed(0xCE1_B0D);
        check("cei_value_never_exceeds_its_bound", cfg, |g| {
            let mode = g.usize_in(0, 5);
            let best_feasible = match g.usize_in(0, 4) {
                0 => None,
                _ if mode == 0 => Some(0.0),
                _ => Some(g.f64_in(-3.0, 3.0)),
            };
            let best = best_feasible.unwrap_or(0.0);
            let res = match mode {
                // The pinned tail point, at a best of exactly 0.
                0 => Prediction { mean: 8.25, variance: 0.985 * 0.985 },
                // Deep in the tail: z = (best - mean) / std in [-10, -6].
                1 => {
                    let std = g.f64_in(0.01, 5.0);
                    Prediction { mean: best + g.f64_in(6.0, 10.0) * std, variance: std * std }
                }
                // A degenerate std: zero, tiny, or a negative variance.
                2 => Prediction {
                    mean: g.f64_in(-4.0, 4.0),
                    variance: [0.0, 1e-30, -g.f64_in(1e-6, 1.0)][g.usize_in(0, 2)],
                },
                // NaN in the mean or the variance.
                3 => {
                    let nan_mean = g.flag();
                    Prediction {
                        mean: if nan_mean { f64::NAN } else { g.f64_in(-4.0, 4.0) },
                        variance: if nan_mean { 1.0 } else { f64::NAN },
                    }
                }
                _ => Prediction { mean: g.f64_in(-4.0, 4.0), variance: g.f64_in(0.0, 9.0) },
            };
            let cei = ConstrainedExpectedImprovement {
                best_feasible,
                tps_floor: g.f64_in(-2.0, 2.0),
                lat_ceiling: g.f64_in(-2.0, 2.0),
            };
            // Constraint predictions with `pf` strictly inside (0, 1) or at
            // its exact 0/1 branches.
            let constraint = |g: &mut propcheck::Gen| Prediction {
                mean: g.f64_in(-3.0, 3.0),
                variance: if g.usize_in(0, 3) == 0 { 0.0 } else { g.f64_in(0.01, 4.0) },
            };
            let pred = SurrogatePrediction { res, tps: constraint(g), lat: constraint(g) };
            let (value, bound) = (cei.value(&pred), cei.bound(&pred.res));
            propcheck::prop_assert!(
                value.is_nan() || value <= bound,
                "{cei:?} at {pred:?}: value {value:e} above bound {bound:e}"
            );
            if cei.best_feasible.is_none() {
                propcheck::prop_assert!(bound == f64::INFINITY, "no incumbent: bound {bound}");
            }
            Ok(())
        });
    }

    /// A per-point objective lifted to the block form `optimize` takes, with
    /// a check that every call gets between one and one scoring block of
    /// rows.
    fn objective_of(
        f: impl Fn(&[f64]) -> Prediction + Sync,
    ) -> impl Fn(&MatrixView<'_>) -> Vec<Prediction> + Sync {
        move |pts| {
            assert!(pts.rows() > 0 && pts.rows() <= SCORE_BLOCK, "block of {}", pts.rows());
            pts.iter_rows().map(&f).collect()
        }
    }

    /// A per-point value lifted to the round form `optimize` takes. It checks
    /// that a round has between one and `VALUE_ROUND` rows, and that every
    /// objective prediction it receives is, bit for bit, a fresh prediction
    /// of the objective `f` at its own row.
    fn value_of(
        f: impl Fn(&[f64]) -> Prediction,
        value: impl Fn(&[f64], &Prediction) -> f64,
    ) -> impl Fn(&MatrixView<'_>, &[Prediction]) -> Vec<f64> {
        move |pts, preds| {
            assert!(pts.rows() > 0 && pts.rows() <= VALUE_ROUND, "round of {}", pts.rows());
            assert_eq!(preds.len(), pts.rows());
            pts.iter_rows()
                .zip(preds)
                .map(|(p, pred)| {
                    let fresh = f(p);
                    assert_eq!(
                        (pred.mean.to_bits(), pred.variance.to_bits()),
                        (fresh.mean.to_bits(), fresh.variance.to_bits()),
                        "the objective prediction handed over at {p:?}"
                    );
                    value(p, pred)
                })
                .collect()
        }
    }

    /// A score as its own objective prediction (a zero-variance mean).
    fn scored(score: impl Fn(&[f64]) -> f64 + Copy) -> impl Fn(&[f64]) -> Prediction + Copy {
        move |p| Prediction { mean: score(p), variance: 0.0 }
    }

    /// The mean of an objective prediction, as a bound.
    fn mean_bound(p: &Prediction) -> f64 {
        p.mean
    }

    /// No bound: the bound pass predicts nothing.
    const UNBOUNDED: Option<fn(&Prediction) -> f64> = None;

    /// The argmax `optimize` must reproduce, however it splits, blocks and
    /// prunes the scoring: the strict `>` scan from `-∞` over every
    /// candidate's value, which keeps the first of tied points, never picks
    /// a NaN or `-∞` value, and falls back to candidate 0.
    fn reference_argmax(
        opt: &AcquisitionOptimizer,
        anchors: &Matrix,
        seed: u64,
        score: impl Fn(&[f64]) -> f64,
    ) -> Vec<f64> {
        let candidates = opt.generate_candidates(anchors, seed);
        let (mut best, mut best_score) = (0, f64::NEG_INFINITY);
        for (i, c) in candidates.iter_rows().enumerate() {
            let s = score(c);
            if s > best_score {
                (best, best_score) = (i, s);
            }
        }
        candidates.row(best).to_vec()
    }

    #[test]
    fn optimizer_finds_a_known_peak() {
        let opt = AcquisitionOptimizer::default();
        // Score peaks at (0.7, 0.3); the value is its own bound.
        let score = |p: &[f64]| -((p[0] - 0.7) * (p[0] - 0.7) + (p[1] - 0.3) * (p[1] - 0.3));
        let objective = objective_of(scored(score));
        let value = value_of(scored(score), |_, pred| pred.mean);
        let best = opt.optimize(&Matrix::zeros(0, 2), 3, objective, Some(mean_bound), value);
        assert!((best[0] - 0.7).abs() < 0.08, "{best:?}");
        assert!((best[1] - 0.3).abs() < 0.08, "{best:?}");
    }

    #[test]
    fn optimizer_uses_anchors_for_local_refinement() {
        let opt = AcquisitionOptimizer { n_candidates: 10, n_local: 400, local_sigma: 0.02 };
        // A very narrow peak near the anchor that random search would miss.
        let anchor = Matrix::from_vec(1, 2, vec![0.912, 0.118]);
        let peak = |p: &[f64]| {
            let d2 = (p[0] - 0.91) * (p[0] - 0.91) + (p[1] - 0.12) * (p[1] - 0.12);
            (-d2 * 2000.0).exp()
        };
        let best = opt.optimize(
            &anchor,
            5,
            objective_of(scored(peak)),
            UNBOUNDED,
            value_of(scored(peak), |_, pred| pred.mean),
        );
        let d = ((best[0] - 0.91).powi(2) + (best[1] - 0.12).powi(2)).sqrt();
        assert!(d < 0.05, "local refinement missed the peak: {best:?}");
    }

    /// Optimizers of 1, 255, 257 and 1,720 candidates: below, just past and
    /// well past one scoring block, the last the default budget.
    fn block_edge_cases() -> Vec<(AcquisitionOptimizer, Matrix)> {
        let anchors = Matrix::from_vec(2, 3, vec![0.4, 0.8, 0.5, 0.1, 0.1, 0.9]);
        let opt = |n_candidates, n_local| AcquisitionOptimizer {
            n_candidates,
            n_local,
            local_sigma: 0.05,
        };
        vec![
            (opt(1, 0), Matrix::zeros(0, 3)),
            (opt(255, 0), Matrix::zeros(0, 3)),
            (opt(200, 57), anchors.clone()),
            (opt(1500, 220), anchors),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn optimize_matches_the_per_point_argmax_across_block_edges() {
        let score = |p: &[f64]| {
            -((p[0] - 0.42) * (p[0] - 0.42)) - (p[1] - 0.77).abs() + (p[2] * 3.0).sin()
        };
        // The objective prediction carries the score as its mean and a
        // point-dependent variance, so a misrouted prediction shows.
        let objective = move |p: &[f64]| Prediction { mean: score(p), variance: p[0] * p[1] };
        let value = move || value_of(objective, move |p, pred| pred.mean.min(score(p)));
        for (opt, anchors) in block_edge_cases() {
            let n = opt.generate_candidates(&anchors, 0).rows();
            for seed in [0, 3, 19] {
                let expected = reference_argmax(&opt, &anchors, seed, score);
                // The value as its own bound, a bound that prunes nothing,
                // and no bound at all.
                let own = opt.optimize(
                    &anchors,
                    seed,
                    objective_of(objective),
                    Some(mean_bound),
                    value(),
                );
                let infinite = opt.optimize(
                    &anchors,
                    seed,
                    objective_of(objective),
                    Some(|_: &Prediction| f64::INFINITY),
                    value(),
                );
                let unbounded =
                    opt.optimize(&anchors, seed, objective_of(objective), UNBOUNDED, value());
                let a = anchors.clone();
                let inline = crate::exec::on_pool_worker(move || {
                    opt.optimize(&a, seed, objective_of(objective), Some(mean_bound), value())
                });
                for (got, how) in
                    [(own, "own"), (infinite, "infinite"), (unbounded, "none"), (inline, "inline")]
                {
                    assert_eq!(bits(&got), bits(&expected), "{n} candidates, seed {seed}, {how}");
                }
            }
        }
    }

    #[test]
    fn bounded_optimize_matches_the_strict_scan_bitwise() {
        use propcheck::{check, Config};
        use std::collections::HashMap;
        use std::sync::Arc;
        // Few distinct values, so ties are common, with NaN and -∞ among
        // them.
        const VALUES: [f64; 7] = [f64::NAN, f64::NEG_INFINITY, -1.0, 0.0, 0.25, 0.5, 1.0];
        let cfg = Config::default().cases(40).seed(0xB0_B0B);
        check("bounded_optimize_matches_the_strict_scan_bitwise", cfg, |g| {
            for (opt, anchors) in block_edge_cases() {
                let seed = g.usize_in(0, 1 << 20) as u64;
                // One (value, bound) per distinct candidate, keyed by its bits
                // so every piece is a function of the point alone.
                let mut table: HashMap<Vec<u64>, (f64, f64)> = HashMap::new();
                for c in opt.generate_candidates(&anchors, seed).iter_rows() {
                    let value = VALUES[g.usize_in(0, VALUES.len() - 1)];
                    let bound = match g.usize_in(0, 4) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => value,
                        // A NaN value may carry any bound: it never wins.
                        _ if value.is_nan() => VALUES[g.usize_in(1, VALUES.len() - 1)],
                        _ => value + [0.0, 0.25, 0.5, 1.5][g.usize_in(0, 3)],
                    };
                    table.entry(bits(c)).or_insert((value, bound));
                }
                let table = Arc::new(table);
                // The objective prediction carries the bound as its mean.
                let objective = {
                    let t = Arc::clone(&table);
                    move |p: &[f64]| Prediction { mean: t[&bits(p)].1, variance: 1.0 }
                };
                let value = {
                    let t = Arc::clone(&table);
                    move |p: &[f64], _: &Prediction| t[&bits(p)].0
                };
                let n = table.len();
                let want =
                    bits(&reference_argmax(&opt, &anchors, seed, |p| table[&bits(p)].0));
                let fanned = opt.optimize(
                    &anchors,
                    seed,
                    objective_of(objective.clone()),
                    Some(mean_bound),
                    value_of(objective.clone(), value.clone()),
                );
                let a = anchors.clone();
                let inline = crate::exec::on_pool_worker(move || {
                    let value = value_of(objective.clone(), value);
                    opt.optimize(&a, seed, objective_of(objective), Some(mean_bound), value)
                });
                let at = format!("{n} distinct candidates, seed {seed}");
                propcheck::prop_assert!(bits(&fanned) == want, "{at}, fanned out");
                propcheck::prop_assert!(bits(&inline) == want, "{at}, inline");
            }
            Ok(())
        });
    }

    #[test]
    fn tied_scores_pick_the_first_candidate() {
        // Index tie-breaking is part of the determinism contract: a constant
        // score must select the very first generated candidate, with the
        // value as its own bound, with a bound that prunes nothing, or with
        // no bound.
        let tied = scored(|_| 1.0);
        for (opt, anchors) in block_edge_cases() {
            let first = opt.generate_candidates(&anchors, 8).row(0).to_vec();
            let value = || value_of(tied, |_, pred| pred.mean);
            let own = opt.optimize(&anchors, 8, objective_of(tied), Some(mean_bound), value());
            let infinite = Some(|_: &Prediction| f64::INFINITY);
            let pruning_nothing = opt.optimize(&anchors, 8, objective_of(tied), infinite, value());
            let unbounded = opt.optimize(&anchors, 8, objective_of(tied), UNBOUNDED, value());
            assert_eq!([own, pruning_nothing, unbounded], [first.clone(), first.clone(), first]);
        }
    }

    #[test]
    fn an_empty_candidate_budget_still_proposes_a_point() {
        let opt = AcquisitionOptimizer { n_candidates: 0, n_local: 0, local_sigma: 0.1 };
        let first = scored(|p| p[0]);
        let value = || value_of(first, |_, pred| pred.mean);
        let point =
            opt.optimize(&Matrix::zeros(0, 4), 2, objective_of(first), Some(mean_bound), value());
        assert_eq!(point.len(), 4);
        assert!(point.iter().all(|v| (0.0..=1.0).contains(v)), "{point:?}");
        // An anchored run whose local budget is zero falls back the same way.
        let anchors = Matrix::from_vec(1, 4, vec![0.5; 4]);
        let anchored = opt.optimize(&anchors, 2, objective_of(first), UNBOUNDED, value());
        assert_eq!(anchored, point);
    }

    #[test]
    fn zero_width_candidates_propose_the_empty_point() {
        // A zero-dimensional search space: every candidate is the empty
        // point, and the first one wins, with or without anchors and bounds.
        let opt = AcquisitionOptimizer { n_candidates: 300, n_local: 20, local_sigma: 0.1 };
        let objective = |_: &[f64]| Prediction { mean: 0.0, variance: 1.0 };
        let value = || value_of(objective, |_, _| 1.0);
        for anchors in [Matrix::zeros(0, 0), Matrix::zeros(2, 0)] {
            let n = 300 + 20 * anchors.rows().min(1);
            assert_eq!(opt.generate_candidates(&anchors, 1).rows(), n);
            let bounded =
                opt.optimize(&anchors, 1, objective_of(objective), Some(mean_bound), value());
            let unbounded = opt.optimize(&anchors, 1, objective_of(objective), UNBOUNDED, value());
            assert!(bounded.is_empty() && unbounded.is_empty());
        }
    }

    #[test]
    fn packed_keys_order_bounds_like_the_stable_closure_sort() {
        use propcheck::{check, Config};
        // The order the search used before the packed keys: descending
        // bound, NaN first, ties by index, by a stable closure sort.
        fn closure_order(bounds: &[f64]) -> Vec<usize> {
            let mut order: Vec<usize> = (0..bounds.len()).collect();
            order.sort_by(|&i, &j| match (bounds[i].is_nan(), bounds[j].is_nan()) {
                (false, false) => bounds[j].total_cmp(&bounds[i]),
                (a, b) => b.cmp(&a),
            });
            order
        }
        // NaN of both signs and several payloads, signed zeros and
        // infinities, subnormals and the extremes of the normal range.
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_BEEF),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 7.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        let cfg = Config::default().cases(256).seed(0x50_27ED).max_size(300);
        check("packed_keys_order_bounds_like_the_stable_closure_sort", cfg, |g| {
            let n = g.usize_in(0, g.size());
            // Heavy ties: draw from a small pool of values most of the time.
            let pool: Vec<f64> = (0..g.usize_in(1, 6)).map(|_| g.f64_in(-2.0, 2.0)).collect();
            let bounds: Vec<f64> = (0..n)
                .map(|_| match g.usize_in(0, 3) {
                    0 => special[g.usize_in(0, special.len() - 1)],
                    1 => g.f64_in(-1e3, 1e3),
                    _ => pool[g.usize_in(0, pool.len() - 1)],
                })
                .collect();
            let mut packed: Vec<(u64, usize)> =
                bounds.iter().enumerate().map(|(i, &b)| (bound_key(b), i)).collect();
            packed.sort_unstable();
            let packed: Vec<usize> = packed.into_iter().map(|(_, i)| i).collect();
            let want = closure_order(&bounds);
            propcheck::prop_assert!(packed == want, "{bounds:?}: {packed:?} vs {want:?}");
            // A key gives back its bound (NaN as NaN), so pruning reads the
            // bound itself.
            for &b in &bounds {
                let back = key_bound(bound_key(b));
                propcheck::prop_assert!(
                    if b.is_nan() { back.is_nan() } else { back.to_bits() == b.to_bits() },
                    "{b:e} came back as {back:e}"
                );
            }
            Ok(())
        });
    }
}

//! Acquisition functions (§5.2): Expected Improvement and the paper's
//! Constrained Expected Improvement (CEI, Eq. 5), plus the candidate-based
//! optimizer that proposes the next configuration.
//!
//! The optimizer is an exact branch and bound over a seeded candidate set.
//! A cheap `bound_batch` bounds every candidate; an expensive
//! `value_batch` then values candidates in descending-bound order and
//! skips every one whose bound is strictly below the best value found so
//! far. CEI is EI times two feasibility probabilities in `[0, 1]`, so
//! [`ConstrainedExpectedImprovement::bound`], `max(EI, 0)` from the
//! objective's prediction alone, bounds it: only the candidates that can
//! still win pay for the throughput and latency predictions. The proposal
//! is the strict-`>`, first-index argmax of the values, bit for bit
//! (DESIGN.md §8).

use crate::surrogate::SurrogatePrediction;
use gp::{normal_cdf, normal_pdf, Prediction};
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

/// Candidates per `bound_batch` call. A batched GP prediction builds an
/// n×m cross-kernel matrix (plus its solve copy) per GP: scoring a whole
/// 1,720-candidate set at once raised the benchmark fleet's peak RSS by ~9%,
/// 256-wide blocks keep the batching's speed at +1.7% (DESIGN.md §8).
const SCORE_BLOCK: usize = 256;

/// Candidates per `value_batch` call in the bounded search. A constant, so
/// which candidates get valued never depends on `exec::lanes()`.
const VALUE_ROUND: usize = 32;

impl AcquisitionOptimizer {
    /// Draws the full candidate set from the seeded RNG: `n_candidates`
    /// uniform points over `[0,1]^d`, then `n_local` Gaussian perturbations
    /// cycling through `anchors`. A set that would come out empty gets one
    /// uniform point instead, so there is always an argmax. Generation is
    /// serial and consumes the RNG stream in a fixed order, so scoring —
    /// which never touches the RNG — can be split freely without moving the
    /// proposal.
    fn generate_candidates(&self, dim: usize, anchors: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_local = if anchors.is_empty() { 0 } else { self.n_local };
        let n_uniform = if n_local == 0 { self.n_candidates.max(1) } else { self.n_candidates };
        let mut candidates = Vec::with_capacity(n_uniform + n_local);
        for _ in 0..n_uniform {
            candidates.push((0..dim).map(|_| rng.random::<f64>()).collect());
        }
        for i in 0..n_local {
            let anchor = &anchors[i % anchors.len()];
            candidates.push(
                anchor
                    .iter()
                    .map(|v| {
                        let z = gp::rand_util::standard_normal(&mut rng);
                        (v + self.local_sigma * z).clamp(0.0, 1.0)
                    })
                    .collect(),
            );
        }
        candidates
    }

    /// Maximizes a batched acquisition over `[0,1]^d` via random search plus
    /// local refinement around `anchors` (typically the incumbent best
    /// points), by an exact branch and bound over two batched scorers.
    ///
    /// 1. **Bound.** The candidates are split into `core::exec` lanes of
    ///    contiguous ranges, and `bound_batch` bounds each lane in blocks of
    ///    at most 256.
    /// 2. **Value.** `value_batch` values candidates in descending-bound
    ///    order (NaN bounds first), in rounds of 32, skipping every
    ///    candidate whose bound is strictly below the best value found so
    ///    far. A later candidate replaces the best only with a strictly
    ///    greater value, or an equal one at a lower index.
    ///
    /// The proposal is the first candidate with the greatest value (a strict
    /// `>` scan from `-∞`; candidate 0 if no value beats `-∞`), whatever the
    /// lane count, provided that
    ///
    /// - `value ≤ bound` at every candidate whose value is not NaN (a NaN
    ///   bound is never pruned, and `+∞` bounds nothing), and
    /// - each scorer's `batch(pts)[i]` depends on `pts[i]` alone.
    ///
    /// A pruned candidate's value is at most its bound, strictly below the
    /// best value, so it could neither win nor tie.
    pub fn optimize(
        &self,
        dim: usize,
        anchors: &[Vec<f64>],
        seed: u64,
        bound_batch: impl Fn(&[Vec<f64>]) -> Vec<f64> + Sync,
        value_batch: impl Fn(&[Vec<f64>]) -> Vec<f64>,
    ) -> Vec<f64> {
        let mut candidates = self.generate_candidates(dim, anchors, seed);
        let n = candidates.len();
        trace::count("acq.candidates_scored", n as u64);
        let lanes: Vec<&[Vec<f64>]> = candidates.chunks(n.div_ceil(crate::exec::lanes())).collect();
        let bounds = crate::exec::map(lanes.len(), |l| {
            let span = trace::span!("score_candidates", n = lanes[l].len());
            let bounds: Vec<f64> = lanes[l].chunks(SCORE_BLOCK).flat_map(&bound_batch).collect();
            let _ = span.finish_s();
            bounds
        })
        .concat();
        assert_eq!(bounds.len(), n, "bound_batch must return one bound per candidate");

        // Descending bound, NaN first, ties by index. The candidates move
        // into that order (no copies), so each round is one contiguous slice.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| match (bounds[i].is_nan(), bounds[j].is_nan()) {
            (false, false) => bounds[j].total_cmp(&bounds[i]),
            (a, b) => b.cmp(&a),
        });
        let mut sorted: Vec<Vec<f64>> =
            order.iter().map(|&i| std::mem::take(&mut candidates[i])).collect();

        let span = trace::span!("value_candidates");
        // (position in `sorted`, original index) of the best value so far.
        let mut best: Option<(usize, usize)> = None;
        let mut best_value = f64::NEG_INFINITY;
        let mut next = 0;
        while next < n {
            // The next round: bounds not strictly below the best value (a
            // NaN bound is never pruned), at most `VALUE_ROUND` of them.
            let round = order[next..].iter().take(VALUE_ROUND);
            let end = next
                + round.take_while(|&&i| bounds[i] >= best_value || bounds[i].is_nan()).count();
            if end == next {
                break;
            }
            let values = value_batch(&sorted[next..end]);
            assert_eq!(values.len(), end - next, "value_batch must return one value per candidate");
            for (pos, v) in (next..end).zip(values) {
                let i = order[pos];
                if v > best_value || (v == best_value && best.is_some_and(|(_, b)| i < b)) {
                    best_value = v;
                    best = Some((pos, i));
                }
            }
            next = end;
        }
        trace::count("acq.candidates_valued", next as u64);
        let _ = span.with_field("n", next as f64).finish_s();
        // No value beat -∞: the scan's answer is candidate 0.
        let pos = match best {
            Some((pos, _)) => pos,
            None => order.iter().position(|&i| i == 0).expect("a candidate 0 exists"),
        };
        sorted.swap_remove(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::Prediction;

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

    /// Per-point scoring lifted to the batched form `optimize` takes, with
    /// a check that no call exceeds one scoring block.
    fn batched(score: impl Fn(&[f64]) -> f64 + Sync) -> impl Fn(&[Vec<f64>]) -> Vec<f64> + Sync {
        move |pts| {
            assert!(!pts.is_empty() && pts.len() <= SCORE_BLOCK, "block of {}", pts.len());
            pts.iter().map(|p| score(p)).collect()
        }
    }

    /// A bound that prunes nothing.
    fn unbounded(_: &[f64]) -> f64 {
        f64::INFINITY
    }

    /// The argmax `optimize` must reproduce, however it splits, blocks and
    /// prunes the scoring: the strict `>` scan from `-∞` over every
    /// candidate's value, which keeps the first of tied points, never picks
    /// a NaN or `-∞` value, and falls back to candidate 0.
    fn reference_argmax(
        opt: &AcquisitionOptimizer,
        dim: usize,
        anchors: &[Vec<f64>],
        seed: u64,
        score: impl Fn(&[f64]) -> f64,
    ) -> Vec<f64> {
        let candidates = opt.generate_candidates(dim, anchors, seed);
        let (mut best, mut best_score) = (0, f64::NEG_INFINITY);
        for (i, c) in candidates.iter().enumerate() {
            let s = score(c);
            if s > best_score {
                (best, best_score) = (i, s);
            }
        }
        candidates[best].clone()
    }

    #[test]
    fn optimizer_finds_a_known_peak() {
        let opt = AcquisitionOptimizer::default();
        // Score peaks at (0.7, 0.3); the value is its own bound.
        let score = |p: &[f64]| -((p[0] - 0.7) * (p[0] - 0.7) + (p[1] - 0.3) * (p[1] - 0.3));
        let best = opt.optimize(2, &[], 3, batched(score), batched(score));
        assert!((best[0] - 0.7).abs() < 0.08, "{best:?}");
        assert!((best[1] - 0.3).abs() < 0.08, "{best:?}");
    }

    #[test]
    fn optimizer_uses_anchors_for_local_refinement() {
        let opt = AcquisitionOptimizer { n_candidates: 10, n_local: 400, local_sigma: 0.02 };
        // A very narrow peak near the anchor that random search would miss.
        let anchor = vec![0.912, 0.118];
        let best = opt.optimize(
            2,
            std::slice::from_ref(&anchor),
            5,
            batched(unbounded),
            batched(|p| {
                let d2 = (p[0] - 0.91) * (p[0] - 0.91) + (p[1] - 0.12) * (p[1] - 0.12);
                (-d2 * 2000.0).exp()
            }),
        );
        let d = ((best[0] - 0.91).powi(2) + (best[1] - 0.12).powi(2)).sqrt();
        assert!(d < 0.05, "local refinement missed the peak: {best:?}");
    }

    /// Optimizers of 1, 255, 257 and 1,720 candidates: below, just past and
    /// well past one scoring block, the last the default budget.
    fn block_edge_cases() -> Vec<(AcquisitionOptimizer, Vec<Vec<f64>>)> {
        let anchors = vec![vec![0.4, 0.8, 0.5], vec![0.1, 0.1, 0.9]];
        let opt = |n_candidates, n_local| AcquisitionOptimizer {
            n_candidates,
            n_local,
            local_sigma: 0.05,
        };
        vec![
            (opt(1, 0), Vec::new()),
            (opt(255, 0), Vec::new()),
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
        for (opt, anchors) in block_edge_cases() {
            let n = opt.generate_candidates(3, &anchors, 0).len();
            for seed in [0, 3, 19] {
                let expected = reference_argmax(&opt, 3, &anchors, seed, score);
                // The value as its own bound, and a bound that prunes nothing.
                let own = opt.optimize(3, &anchors, seed, batched(score), batched(score));
                let fanned = opt.optimize(3, &anchors, seed, batched(unbounded), batched(score));
                let a = anchors.clone();
                let inline = crate::exec::on_pool_worker(move || {
                    opt.optimize(3, &a, seed, batched(score), batched(score))
                });
                assert_eq!(bits(&own), bits(&expected), "{n} candidates, seed {seed}");
                assert_eq!(bits(&fanned), bits(&expected), "{n} candidates, seed {seed} unbounded");
                assert_eq!(bits(&inline), bits(&expected), "{n} candidates, seed {seed} inline");
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
                // so both scorers are functions of the point alone.
                let mut table: HashMap<Vec<u64>, (f64, f64)> = HashMap::new();
                for c in opt.generate_candidates(3, &anchors, seed) {
                    let value = VALUES[g.usize_in(0, VALUES.len() - 1)];
                    let bound = match g.usize_in(0, 4) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => value,
                        // A NaN value may carry any bound: it never wins.
                        _ if value.is_nan() => VALUES[g.usize_in(1, VALUES.len() - 1)],
                        _ => value + [0.0, 0.25, 0.5, 1.5][g.usize_in(0, 3)],
                    };
                    table.entry(bits(&c)).or_insert((value, bound));
                }
                let table = Arc::new(table);
                let value = {
                    let t = Arc::clone(&table);
                    move |p: &[f64]| t[&bits(p)].0
                };
                let bound = {
                    let t = Arc::clone(&table);
                    move |p: &[f64]| t[&bits(p)].1
                };
                let n = table.len();
                let want = bits(&reference_argmax(&opt, 3, &anchors, seed, &value));
                let fanned = opt.optimize(3, &anchors, seed, batched(&bound), batched(&value));
                let a = anchors.clone();
                let inline = crate::exec::on_pool_worker(move || {
                    opt.optimize(3, &a, seed, batched(bound), batched(value))
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
        // value as its own bound or with a bound that prunes nothing.
        for (opt, anchors) in block_edge_cases() {
            let first = opt.generate_candidates(3, &anchors, 8)[0].clone();
            let tied = batched(|_| 1.0);
            assert_eq!(opt.optimize(3, &anchors, 8, &tied, &tied), first);
            assert_eq!(opt.optimize(3, &anchors, 8, batched(unbounded), &tied), first);
        }
    }

    #[test]
    fn an_empty_candidate_budget_still_proposes_a_point() {
        let opt = AcquisitionOptimizer { n_candidates: 0, n_local: 0, local_sigma: 0.1 };
        let first = batched(|p| p[0]);
        let point = opt.optimize(4, &[], 2, &first, &first);
        assert_eq!(point.len(), 4);
        assert!(point.iter().all(|v| (0.0..=1.0).contains(v)), "{point:?}");
        // An anchored run whose local budget is zero falls back the same way.
        let anchored = opt.optimize(4, &[vec![0.5; 4]], 2, batched(unbounded), &first);
        assert_eq!(anchored, point);
    }
}

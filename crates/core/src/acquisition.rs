//! Acquisition functions (§5.2): Expected Improvement and the paper's
//! Constrained Expected Improvement (CEI, Eq. 5), plus the candidate-based
//! optimizer that proposes the next configuration.

use crate::surrogate::SurrogatePrediction;
use gp::{normal_cdf, normal_pdf};
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

/// Candidates per `score_batch` call. A batched GP prediction builds an
/// n×m cross-kernel matrix (plus its solve copy) per GP: scoring a whole
/// 1,720-candidate set at once raised the benchmark fleet's peak RSS by ~9%,
/// 256-wide blocks keep the batching's speed at +1.7% (DESIGN.md §8).
const SCORE_BLOCK: usize = 256;

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

    /// Argmax over scored candidates with first-index tie-breaking (a strict
    /// `>` scan), so the choice never depends on how scoring was split.
    fn select(mut candidates: Vec<Vec<f64>>, scores: &[f64]) -> Vec<f64> {
        debug_assert_eq!(candidates.len(), scores.len());
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, &s) in scores.iter().enumerate() {
            if s > best_score {
                best_score = s;
                best = i;
            }
        }
        candidates.swap_remove(best)
    }

    /// Maximizes a batched acquisition over `[0,1]^d` via random search plus
    /// local refinement around `anchors` (typically the incumbent best
    /// points). The candidates are split into `core::exec` lanes of
    /// contiguous ranges, and each lane is scored by `score_batch` in blocks
    /// of at most 256. For any scorer whose `score_batch(pts)[i]` depends on
    /// `pts[i]` alone, the proposal is the per-point argmax whatever the
    /// lane count.
    pub fn optimize(
        &self,
        dim: usize,
        anchors: &[Vec<f64>],
        seed: u64,
        score_batch: impl Fn(&[Vec<f64>]) -> Vec<f64> + Sync,
    ) -> Vec<f64> {
        let candidates = self.generate_candidates(dim, anchors, seed);
        trace::count("acq.candidates_scored", candidates.len() as u64);
        let lanes: Vec<&[Vec<f64>]> =
            candidates.chunks(candidates.len().div_ceil(crate::exec::lanes())).collect();
        let scores = crate::exec::map(lanes.len(), |l| {
            let span = trace::span!("score_candidates", n = lanes[l].len());
            let scores: Vec<f64> = lanes[l].chunks(SCORE_BLOCK).flat_map(&score_batch).collect();
            let _ = span.finish_s();
            scores
        })
        .concat();
        assert_eq!(scores.len(), candidates.len(), "scorer must return one score per candidate");
        Self::select(candidates, &scores)
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

    /// Per-point scoring lifted to the batched form `optimize` takes, with
    /// a check that no call exceeds one scoring block.
    fn batched(score: impl Fn(&[f64]) -> f64 + Sync) -> impl Fn(&[Vec<f64>]) -> Vec<f64> + Sync {
        move |pts| {
            assert!(!pts.is_empty() && pts.len() <= SCORE_BLOCK, "block of {}", pts.len());
            pts.iter().map(|p| score(p)).collect()
        }
    }

    /// The per-point argmax `optimize` must reproduce, however it splits and
    /// blocks the scoring: a strict `>` scan keeps the first of tied points.
    fn reference_argmax(
        opt: &AcquisitionOptimizer,
        dim: usize,
        anchors: &[Vec<f64>],
        seed: u64,
        score: impl Fn(&[f64]) -> f64,
    ) -> Vec<f64> {
        let candidates = opt.generate_candidates(dim, anchors, seed);
        let mut best = &candidates[0];
        for c in &candidates[1..] {
            if score(c) > score(best) {
                best = c;
            }
        }
        best.clone()
    }

    #[test]
    fn optimizer_finds_a_known_peak() {
        let opt = AcquisitionOptimizer::default();
        // Score peaks at (0.7, 0.3).
        let best = opt.optimize(
            2,
            &[],
            3,
            batched(|p| -((p[0] - 0.7) * (p[0] - 0.7) + (p[1] - 0.3) * (p[1] - 0.3))),
        );
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

    #[test]
    fn optimize_matches_the_per_point_argmax_across_block_edges() {
        let score = |p: &[f64]| {
            -((p[0] - 0.42) * (p[0] - 0.42)) - (p[1] - 0.77).abs() + (p[2] * 3.0).sin()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (opt, anchors) in block_edge_cases() {
            let n = opt.generate_candidates(3, &anchors, 0).len();
            for seed in [0, 3, 19] {
                let expected = reference_argmax(&opt, 3, &anchors, seed, score);
                let fanned = opt.optimize(3, &anchors, seed, batched(score));
                let a = anchors.clone();
                let inline =
                    crate::exec::on_pool_worker(move || opt.optimize(3, &a, seed, batched(score)));
                assert_eq!(bits(&fanned), bits(&expected), "{n} candidates, seed {seed}");
                assert_eq!(bits(&inline), bits(&expected), "{n} candidates, seed {seed} inline");
            }
        }
    }

    #[test]
    fn tied_scores_pick_the_first_candidate() {
        // Index tie-breaking is part of the determinism contract: a constant
        // score must select the very first generated candidate.
        for (opt, anchors) in block_edge_cases() {
            let first = opt.generate_candidates(3, &anchors, 8)[0].clone();
            assert_eq!(opt.optimize(3, &anchors, 8, batched(|_| 1.0)), first);
        }
    }

    #[test]
    fn an_empty_candidate_budget_still_proposes_a_point() {
        let opt = AcquisitionOptimizer { n_candidates: 0, n_local: 0, local_sigma: 0.1 };
        let point = opt.optimize(4, &[], 2, batched(|p| p[0]));
        assert_eq!(point.len(), 4);
        assert!(point.iter().all(|v| (0.0..=1.0).contains(v)), "{point:?}");
        // An anchored run whose local budget is zero falls back the same way.
        let anchored = opt.optimize(4, &[vec![0.5; 4]], 2, batched(|p| p[0]));
        assert_eq!(anchored, point);
    }
}

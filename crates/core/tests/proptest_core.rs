//! Property-based tests on ResTune's algorithmic invariants, on the in-tree
//! `propcheck` harness with fixed suite seeds.

use gp::Prediction;
use propcheck::{check, Config};
use restune_core::acquisition::{expected_improvement, ConstrainedExpectedImprovement};
use restune_core::lhs::latin_hypercube;
use restune_core::meta::{epanechnikov, ranking_loss};
use restune_core::scale::Standardizer;
use restune_core::surrogate::SurrogatePrediction;

// ---- scale unification (§6.1) ----------------------------------------------

#[test]
fn standardization_preserves_order() {
    check("standardization_preserves_order", Config::default().cases(128).seed(0x2E_0001), |g| {
        let n = g.usize_in(2, 39);
        let values = g.vec_f64(n, -1e5, 1e5);
        let s = Standardizer::fit(&values);
        let z = s.transform_all(&values);
        for i in 0..values.len() {
            for j in 0..values.len() {
                propcheck::prop_assert_eq!(values[i] <= values[j], z[i] <= z[j]);
            }
        }
        Ok(())
    });
}

#[test]
fn standardization_roundtrips() {
    check("standardization_roundtrips", Config::default().cases(128).seed(0x2E_0002), |g| {
        let n = g.usize_in(2, 39);
        let values = g.vec_f64(n, -1e5, 1e5);
        let probe = g.f64_in(-1e5, 1e5);
        let s = Standardizer::fit(&values);
        let back = s.inverse(s.transform(probe));
        propcheck::prop_assert!((back - probe).abs() <= 1e-6 * (1.0 + probe.abs()));
        Ok(())
    });
}

// ---- ranking loss (Eq. 9) ---------------------------------------------------

#[test]
fn ranking_loss_bounds() {
    check("ranking_loss_bounds", Config::default().cases(128).seed(0x2E_0003), |g| {
        let n = g.usize_in(2, 19);
        let pred = g.vec_f64(n, -10.0, 10.0);
        let actual_seed = g.i64_in(0, 99) as u64;
        let actual: Vec<f64> =
            (0..n).map(|i| ((i as u64 * 31 + actual_seed) % 17) as f64).collect();
        let loss = ranking_loss(&pred, &actual);
        propcheck::prop_assert!(loss <= n * (n - 1), "loss {} exceeds pair count", loss);
        Ok(())
    });
}

#[test]
fn ranking_loss_zero_iff_order_preserving() {
    check(
        "ranking_loss_zero_iff_order_preserving",
        Config::default().cases(128).seed(0x2E_0004),
        |g| {
            // A strictly increasing transform of the actual values has zero loss.
            let n = g.usize_in(2, 19);
            let values = g.vec_f64(n, -10.0, 10.0);
            let transformed: Vec<f64> = values.iter().map(|v| v * 3.0 + 7.0).collect();
            propcheck::prop_assert_eq!(ranking_loss(&transformed, &values), 0);
            let exp: Vec<f64> = values.iter().map(|v| (v / 10.0).exp()).collect();
            propcheck::prop_assert_eq!(ranking_loss(&exp, &values), 0);
            Ok(())
        },
    );
}

#[test]
fn ranking_loss_is_permutation_consistent() {
    check(
        "ranking_loss_is_permutation_consistent",
        Config::default().cases(128).seed(0x2E_0005),
        |g| {
            // Applying the same permutation to both pred and actual leaves the
            // loss unchanged.
            let n = g.usize_in(3, 11);
            let values = g.vec_f64(n, -10.0, 10.0);
            let (a, b) = (g.usize_in(0, 11) % n, g.usize_in(0, 11) % n);
            let pred: Vec<f64> = values.iter().map(|v| v * 2.0).collect();
            let noisy_pred: Vec<f64> = values.iter().rev().cloned().collect();
            for p in [pred, noisy_pred] {
                let base = ranking_loss(&p, &values);
                let mut p2 = p.clone();
                let mut v2 = values.clone();
                p2.swap(a, b);
                v2.swap(a, b);
                propcheck::prop_assert_eq!(ranking_loss(&p2, &v2), base);
            }
            Ok(())
        },
    );
}

// ---- acquisition (Eqs. 2–5) -------------------------------------------------

#[test]
fn ei_is_nonnegative_and_bounded() {
    check("ei_is_nonnegative_and_bounded", Config::default().cases(128).seed(0x2E_0006), |g| {
        let mean = g.f64_in(-5.0, 5.0);
        let std = g.f64_in(0.0, 3.0);
        let best = g.f64_in(-5.0, 5.0);
        let ei = expected_improvement(mean, std, best);
        propcheck::prop_assert!(ei >= 0.0);
        // EI <= E|best - f| <= |best - mean| + std * sqrt(2/pi) + margin.
        propcheck::prop_assert!(ei <= (best - mean).abs() + std + 1e-9);
        Ok(())
    });
}

#[test]
fn ei_increases_with_uncertainty_when_mean_is_worse() {
    check(
        "ei_increases_with_uncertainty_when_mean_is_worse",
        Config::default().cases(128).seed(0x2E_0007),
        |g| {
            // With mean above the incumbent (no certain improvement), more
            // variance means more EI.
            let mean = g.f64_in(0.5, 3.0);
            let s1 = g.f64_in(0.01, 1.0);
            let extra = g.f64_in(0.1, 2.0);
            let best = 0.0;
            propcheck::prop_assert!(
                expected_improvement(mean, s1 + extra, best)
                    >= expected_improvement(mean, s1, best) - 1e-12
            );
            Ok(())
        },
    );
}

#[test]
fn cei_is_sandwiched() {
    check("cei_is_sandwiched", Config::default().cases(128).seed(0x2E_0008), |g| {
        let rmean = g.f64_in(-3.0, 3.0);
        let rstd = g.f64_in(0.0, 2.0);
        let tmean = g.f64_in(-3.0, 3.0);
        let tstd = g.f64_in(0.01, 2.0);
        let lmean = g.f64_in(-3.0, 3.0);
        let lstd = g.f64_in(0.01, 2.0);
        let best = g.f64_in(-3.0, 3.0);
        let cei = ConstrainedExpectedImprovement {
            best_feasible: Some(best),
            tps_floor: 0.0,
            lat_ceiling: 0.0,
        };
        let pred = SurrogatePrediction {
            res: Prediction { mean: rmean, variance: rstd * rstd },
            tps: Prediction { mean: tmean, variance: tstd * tstd },
            lat: Prediction { mean: lmean, variance: lstd * lstd },
        };
        let v = cei.value(&pred);
        let ei = expected_improvement(rmean, rstd, best);
        propcheck::prop_assert!(v >= -1e-12);
        propcheck::prop_assert!(v <= ei + 1e-12);
        let pf = cei.feasibility_probability(&pred);
        propcheck::prop_assert!((0.0..=1.0).contains(&pf));
        Ok(())
    });
}

// ---- Epanechnikov kernel (Eq. 8) --------------------------------------------

#[test]
fn epanechnikov_properties() {
    check("epanechnikov_properties", Config::default().cases(128).seed(0x2E_0009), |g| {
        let t = g.f64_in(-3.0, 3.0);
        let v = epanechnikov(t);
        propcheck::prop_assert!((0.0..=0.75).contains(&v));
        propcheck::prop_assert_eq!(v, epanechnikov(-t));
        if t.abs() > 1.0 {
            propcheck::prop_assert_eq!(v, 0.0);
        }
        Ok(())
    });
}

// ---- LHS --------------------------------------------------------------------

#[test]
fn lhs_stratification_holds() {
    check("lhs_stratification_holds", Config::default().cases(128).seed(0x2E_000A), |g| {
        let n = g.usize_in(2, 39);
        let d = g.usize_in(1, 7);
        let seed = g.i64_in(0, 49) as u64;
        let samples = latin_hypercube(n, d, seed);
        propcheck::prop_assert_eq!(samples.rows(), n);
        for dim in 0..d {
            // `.min(n - 1)` is deliberate closed-downstream tolerance: even
            // with coordinates strictly below 1, `v * n` can round up to `n`
            // (e.g. (1 - 2⁻⁵³)·2 rounds to 2.0), so index consumers must
            // clamp — exactly as the quantization adapter does.
            let mut strata: Vec<usize> = samples
                .iter_rows()
                .map(|s| ((s[dim] * n as f64).floor() as usize).min(n - 1))
                .collect();
            strata.sort_unstable();
            propcheck::prop_assert_eq!(&strata, &(0..n).collect::<Vec<_>>());
        }
        Ok(())
    });
}

#[test]
fn lhs_samples_stay_strictly_inside_the_half_open_cube() {
    // The sampler's contract is half-open [0,1): every coordinate must be
    // ≥ 0 and *strictly* below 1, across sizes that stress the top stratum
    // (small n makes the rounding-to-1.0 hazard most likely).
    check(
        "lhs_samples_stay_strictly_inside_the_half_open_cube",
        Config::default().cases(256).seed(0x2E_000B),
        |g| {
            let n = g.usize_in(1, 64);
            let d = g.usize_in(1, 12);
            let seed = g.i64_in(0, 9999) as u64;
            for s in latin_hypercube(n, d, seed).iter_rows() {
                for &v in s {
                    propcheck::prop_assert!(v >= 0.0, "coordinate {v} below 0");
                    propcheck::prop_assert!(v < 1.0, "coordinate {v} reached the closed bound");
                }
            }
            Ok(())
        },
    );
}

//! Latin hypercube sampling over the *half-open* unit cube `[0,1)^d`.
//!
//! The paper bootstraps the non-meta BO methods (ResTune-w/o-ML, iTuned,
//! OtterTune-w-Con) with 10 LHS samples before switching to model-guided
//! search (§7 "Setting").
//!
//! # Interval contract
//!
//! The sampler guarantees every coordinate lies in **`[0,1)` — half-open**.
//! Downstream consumers are *closed*-interval tolerant: `KnobSet::
//! to_configuration` clamps to `[0,1]` and [`crate::space::SpaceTransform`]
//! pipelines clip lifted points into the closed cube, so any value this
//! module emits is accepted verbatim. The half-open guarantee matters for
//! stratification (`floor(v * n)` must equal the assigned stratum, which
//! requires `v < 1`) and for quantization (`⌊u·bins⌋` must not index one past
//! the last bin).
//!
//! Naively, `(stratum + jitter) / n` with `jitter ∈ [0,1)` cannot reach `1`,
//! but floating point disagrees: with the maximal jitter `1 - 2⁻⁵³`, the sum
//! `(n-1) + jitter` rounds *up* to exactly `n` whenever `n-1`'s ulp exceeds
//! `2⁻⁵²` (already at `n = 2`), and the division then yields exactly `1.0`.
//! The sampler therefore clamps each coordinate to the predecessor of `1.0`.

use linalg::Matrix;
use xrand::rngs::StdRng;
use xrand::{RngExt, SeedableRng};

/// The largest `f64` strictly below `1.0` (`1 - 2⁻⁵³`): the supremum of the
/// sampler's half-open range.
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// Draws `n` Latin-hypercube samples in `[0,1)^d` (half-open; see the module
/// docs for the interval contract), one per row.
///
/// Each dimension's range is split into `n` equal strata; each stratum is hit
/// exactly once per dimension, with independent random permutations across
/// dimensions.
pub fn latin_hypercube(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Matrix::zeros(n, d);
    let mut perm: Vec<usize> = (0..n).collect();
    for dim in 0..d {
        // Fisher–Yates shuffle of the strata.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        for (row, &stratum) in perm.iter().enumerate() {
            let jitter: f64 = rng.random();
            // The clamp only fires when rounding pushed the quotient to 1.0
            // (top stratum, near-maximal jitter); every other value passes
            // through bit-unchanged, so existing traces are unaffected.
            samples[(row, dim)] = ((stratum as f64 + jitter) / n as f64).min(BELOW_ONE);
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_in_unit_cube() {
        let samples = latin_hypercube(32, 5, 1);
        assert_eq!((samples.rows(), samples.cols()), (32, 5));
        assert!(samples.data().iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn each_stratum_hit_exactly_once_per_dimension() {
        let n = 16;
        let samples = latin_hypercube(n, 3, 7);
        for dim in 0..3 {
            let mut strata: Vec<usize> =
                samples.iter_rows().map(|s| (s[dim] * n as f64).floor() as usize).collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..n).collect::<Vec<_>>(), "dim {dim}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(latin_hypercube(8, 2, 3), latin_hypercube(8, 2, 3));
        assert_ne!(latin_hypercube(8, 2, 3), latin_hypercube(8, 2, 4));
    }

    #[test]
    fn boundary_jitter_would_round_to_one_without_the_clamp() {
        // Demonstrates the rounding hazard the clamp guards: with the maximal
        // jitter (the predecessor of 1.0), the stratum sum rounds up to n and
        // the quotient is exactly 1.0 — outside the half-open contract.
        assert_eq!(BELOW_ONE, f64::from_bits(1.0f64.to_bits() - 1), "predecessor of 1.0");
        assert_eq!((1.0 + BELOW_ONE) / 2.0, 1.0, "n=2, top stratum, max jitter");
        assert_eq!((7.0 + BELOW_ONE) / 8.0, 1.0, "n=8, top stratum, max jitter");
        // The clamp restores the contract without moving interior values.
        assert_eq!(((1.0 + BELOW_ONE) / 2.0_f64).min(BELOW_ONE), BELOW_ONE);
        assert_eq!(0.25_f64.min(BELOW_ONE), 0.25);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(latin_hypercube(0, 3, 0).rows(), 0);
        let one = latin_hypercube(1, 2, 0);
        assert_eq!(one.rows(), 1);
        assert!(one.row(0).iter().all(|v| (0.0..1.0).contains(v)));
    }
}

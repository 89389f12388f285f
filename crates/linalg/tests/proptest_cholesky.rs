//! Property-based tests for the Cholesky factorization and solves.
//!
//! Runs on the in-tree `propcheck` harness with fixed suite seeds, so the
//! exact case sequence is reproducible offline.

use linalg::{Cholesky, Matrix};
use propcheck::{check, Config, Gen};

/// Builds a random SPD matrix `A = B B^T + n*I` from a flat coefficient vector.
fn spd_from_coeffs(n: usize, coeffs: &[f64]) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| coeffs[i * n + j]);
    let mut a = b.matmul(&b.transpose()).unwrap();
    a.add_diagonal(n as f64);
    a
}

/// Draws the `(n, coeffs)` pair the old proptest strategy produced: a
/// dimension in `2..8` and `n*n` coefficients in `[-3, 3)`.
fn draw_spd(g: &mut Gen) -> (usize, Matrix) {
    let n = g.usize_in(2, 7);
    let coeffs = g.vec_f64(n * n, -3.0, 3.0);
    (n, spd_from_coeffs(n, &coeffs))
}

#[test]
fn factor_reconstructs_spd() {
    check("factor_reconstructs_spd", Config::default().cases(64).seed(0xC0DE_0001), |g| {
        let (n, a) = draw_spd(g);
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        let scale = a.data().iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            for j in 0..n {
                propcheck::prop_assert!((recon[(i, j)] - a[(i, j)]).abs() <= 1e-8 * scale);
            }
        }
        Ok(())
    });
}

#[test]
fn solve_residual_is_small() {
    check("solve_residual_is_small", Config::default().cases(64).seed(0xC0DE_0002), |g| {
        let (n, a) = draw_spd(g);
        let x = g.vec_f64(n, -5.0, 5.0);
        let b = a.matvec(&x).unwrap();
        let c = Cholesky::factor(&a).unwrap();
        let solved = c.solve(&b).unwrap();
        for i in 0..n {
            propcheck::prop_assert!((solved[i] - x[i]).abs() <= 1e-6 * (1.0 + x[i].abs()));
        }
        Ok(())
    });
}

#[test]
fn log_determinant_is_finite_for_spd() {
    check("log_determinant_is_finite_for_spd", Config::default().cases(64).seed(0xC0DE_0004), |g| {
        let (_, a) = draw_spd(g);
        let c = Cholesky::factor(&a).unwrap();
        propcheck::prop_assert!(c.log_determinant().is_finite());
        Ok(())
    });
}

#[test]
fn matvec_linearity() {
    check("matvec_linearity", Config::default().cases(64).seed(0xC0DE_0005), |g| {
        let n = g.usize_in(2, 5);
        let coeffs = g.vec_f64(n * n, -3.0, 3.0);
        let a = spd_from_coeffs(n, &coeffs);
        let x = g.vec_f64(n, -5.0, 5.0);
        let y = g.vec_f64(n, -5.0, 5.0);
        let sum: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + q).collect();
        let lhs = a.matvec(&sum).unwrap();
        let ax = a.matvec(&x).unwrap();
        let ay = a.matvec(&y).unwrap();
        for i in 0..n {
            propcheck::prop_assert!((lhs[i] - (ax[i] + ay[i])).abs() <= 1e-8 * (1.0 + lhs[i].abs()));
        }
        Ok(())
    });
}

/// `A^{-1}` the textbook way: one `solve_upper(solve_lower(e_j))` per column.
fn per_column_inverse(c: &Cholesky) -> Matrix {
    let n = c.dim();
    let mut inv = Matrix::zeros(n, n);
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        let col = c.solve_upper(&c.solve_lower(&e).unwrap()).unwrap();
        for i in 0..n {
            inv[(i, j)] = col[i];
        }
    }
    inv
}

#[test]
fn inverse_matches_per_column_solves_bitwise() {
    // The size ramp runs n from 0 (case 0) to 40.
    let cfg = Config::default().cases(64).seed(0xC0DE_0006).max_size(41);
    check("inverse_matches_per_column_solves_bitwise", cfg, |g| {
        let n = g.size().saturating_sub(1);
        let jittered = n >= 2 && g.flag();
        let a = if jittered {
            // Rank r < n, then shifted just below semidefinite, so only the
            // jitter ladder can factor it.
            let r = g.usize_in(1, n - 1);
            let b = Matrix::from_fn(n, r, |_, _| g.f64_in(-3.0, 3.0));
            let mut a = b.matmul(&b.transpose()).unwrap();
            let mean_diag = (0..n).map(|i| a[(i, i)]).sum::<f64>() / n as f64;
            a.add_diagonal(-1e-9 * mean_diag);
            a
        } else {
            let coeffs = g.vec_f64(n * n, -3.0, 3.0);
            spd_from_coeffs(n, &coeffs)
        };
        let c = Cholesky::factor_with_jitter(&a).unwrap();
        propcheck::prop_assert_eq!(c.jitter() > 0.0, jittered);
        let (got, want) = (c.inverse(), per_column_inverse(&c));
        propcheck::prop_assert_eq!((got.rows(), got.cols()), (n, n));
        for i in 0..n {
            for j in 0..n {
                propcheck::prop_assert!(
                    got[(i, j)].to_bits() == want[(i, j)].to_bits(),
                    "n = {n}, jittered = {jittered}: entry ({i}, {j}) is {} vs per-column {}",
                    got[(i, j)],
                    want[(i, j)]
                );
            }
        }
        Ok(())
    });
}

/// A drawn `n x n` test matrix of one of three kinds: SPD (`0`); rank
/// deficient and shifted just below semidefinite, so only the jitter ladder
/// factors it (`1`); or SPD but for a negative last diagonal entry, so every
/// attempt fails at the last pivot, after writing all rows above it (`2`).
fn draw_kind(g: &mut Gen, n: usize) -> (usize, Matrix) {
    let kind = if n >= 2 { g.usize_in(0, 2) } else { 0 };
    let a = match kind {
        1 => {
            let r = g.usize_in(1, n - 1);
            let b = Matrix::from_fn(n, r, |_, _| g.f64_in(-3.0, 3.0));
            let mut a = b.matmul(&b.transpose()).unwrap();
            let mean_diag = (0..n).map(|i| a[(i, i)]).sum::<f64>() / n as f64;
            a.add_diagonal(-1e-9 * mean_diag);
            a
        }
        _ => {
            let coeffs = g.vec_f64(n * n, -3.0, 3.0);
            let mut a = spd_from_coeffs(n, &coeffs);
            if kind == 2 {
                a[(n - 1, n - 1)] = -1.0;
            }
            a
        }
    };
    (kind, a)
}

#[test]
fn refactoring_into_used_storage_matches_a_fresh_factorization_bitwise() {
    let cfg = Config::default().cases(64).seed(0xC0DE_0007).max_size(25);
    check("refactoring_into_used_storage_matches_a_fresh_factorization_bitwise", cfg, |g| {
        let mut n = g.size().saturating_sub(1);
        // Storage a factorization left, or a wrapped matrix with junk in its
        // strict upper triangle.
        let mut c = if g.flag() {
            Cholesky::factor_with_jitter(&draw_kind(g, n).1).unwrap_or_else(|_| {
                Cholesky::factor(&spd_from_coeffs(n, &g.vec_f64(n * n, -3.0, 3.0))).unwrap()
            })
        } else {
            let junk = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { g.f64_in(-9.0, 9.0) });
            Cholesky::from_factor(junk)
        };
        // Matrices of every kind in turn through the one factor, mostly at
        // one size, sometimes at another.
        for step in 0..4 {
            if g.usize_in(0, 3) == 0 {
                n = g.usize_in(0, g.size());
            }
            let (kind, a) = draw_kind(g, n);
            let fresh = Cholesky::factor_with_jitter(&a);
            let got = c.refactor_with_jitter(&a);
            let label = format!("n = {n}, step {step}, kind {kind}");
            match &fresh {
                Ok(want) => {
                    propcheck::prop_assert!(got.is_ok(), "{label}: {got:?}");
                    propcheck::prop_assert_eq!(c.jitter().to_bits(), want.jitter().to_bits());
                    propcheck::prop_assert_eq!((c.l().rows(), c.l().cols()), (n, n));
                    for i in 0..n {
                        for j in 0..n {
                            let (x, y) = (c.l()[(i, j)], want.l()[(i, j)]);
                            propcheck::prop_assert!(
                                x.to_bits() == y.to_bits(),
                                "{label}: entry ({i}, {j}) is {x} vs fresh {y}"
                            );
                        }
                    }
                }
                Err(e) => {
                    propcheck::prop_assert_eq!(
                        format!("{got:?}"),
                        format!("{:?}", Err::<(), _>(e))
                    );
                    propcheck::prop_assert_eq!(c.dim(), 0);
                }
            }
            propcheck::prop_assert!(fresh.is_ok() == (kind != 2), "{label}: {fresh:?}");
        }
        Ok(())
    });
}

#[test]
fn inverse_into_a_dirty_buffer_matches_inverse_bitwise() {
    let cfg = Config::default().cases(64).seed(0xC0DE_0008).max_size(25);
    check("inverse_into_a_dirty_buffer_matches_inverse_bitwise", cfg, |g| {
        let n = g.size().saturating_sub(1);
        let (kind, a) = draw_kind(g, n);
        if kind == 2 {
            return Ok(());
        }
        let c = Cholesky::factor_with_jitter(&a).unwrap();
        let want = c.inverse();
        // Junk of the same size, or of another.
        let m = if g.flag() { n } else { g.usize_in(0, 30) };
        let mut x = Matrix::from_fn(m, m, |_, _| g.f64_in(-9.0, 9.0));
        let len = g.usize_in(0, 30);
        let mut acc = g.vec_f64(len, -9.0, 9.0);
        c.inverse_into(&mut x, &mut acc);
        propcheck::prop_assert_eq!((x.rows(), x.cols()), (n, n));
        for i in 0..n {
            for j in 0..n {
                propcheck::prop_assert!(
                    x[(i, j)].to_bits() == want[(i, j)].to_bits(),
                    "n = {n}, m = {m}: entry ({i}, {j}) is {} vs inverse() {}",
                    x[(i, j)],
                    want[(i, j)]
                );
            }
        }
        Ok(())
    });
}

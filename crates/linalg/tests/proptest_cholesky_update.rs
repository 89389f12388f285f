//! Property-based tests for the rank-1 Cholesky append the incremental
//! GP-refit path builds on.
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

/// Draws a dimension in `2..8` and a matching SPD matrix.
fn draw_spd(g: &mut Gen) -> (usize, Matrix) {
    let n = g.usize_in(2, 7);
    let coeffs = g.vec_f64(n * n, -3.0, 3.0);
    (n, spd_from_coeffs(n, &coeffs))
}

#[test]
fn append_row_matches_from_scratch_factor_bitwise() {
    check(
        "append_row_matches_from_scratch_factor_bitwise",
        Config::default().cases(64).seed(0xC0DE_0013),
        |g| {
            // Draw an (n+1)-dimensional SPD matrix, factor its leading n x n
            // block, then append the final row/column. The grown factor must
            // be bit-identical to factoring the whole matrix from scratch —
            // the contract the incremental GP refit path relies on.
            let m = g.usize_in(3, 8);
            let coeffs = g.vec_f64(m * m, -3.0, 3.0);
            let a = spd_from_coeffs(m, &coeffs);
            let n = m - 1;
            let lead = Matrix::from_fn(n, n, |i, j| a[(i, j)]);
            let mut c = Cholesky::factor(&lead).unwrap();
            let cross: Vec<f64> = (0..n).map(|j| a[(n, j)]).collect();
            c.append_row(&cross, a[(n, n)]).unwrap();
            let full = Cholesky::factor(&a).unwrap();
            propcheck::prop_assert!(c.dim() == m);
            for i in 0..m {
                for j in 0..=i {
                    propcheck::prop_assert!(
                        c.l()[(i, j)].to_bits() == full.l()[(i, j)].to_bits()
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn append_keeps_solves_consistent() {
    check("append_keeps_solves_consistent", Config::default().cases(32).seed(0xC0DE_0015), |g| {
        // Append a diagonally dominant row, then verify solves against the
        // explicitly assembled matrix.
        let (n, a) = draw_spd(g);
        let mut c = Cholesky::factor(&a).unwrap();
        let cross = g.vec_f64(n, -0.5, 0.5);
        let diag = 2.0 * n as f64;
        c.append_row(&cross, diag).unwrap();
        let mut big = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                big[(i, j)] = a[(i, j)];
            }
            big[(i, n)] = cross[i];
            big[(n, i)] = cross[i];
        }
        big[(n, n)] = diag;
        let x = g.vec_f64(n + 1, -3.0, 3.0);
        let b = big.matvec(&x).unwrap();
        let solved = c.solve(&b).unwrap();
        for i in 0..=n {
            propcheck::prop_assert!((solved[i] - x[i]).abs() <= 1e-5 * (1.0 + x[i].abs()));
        }
        Ok(())
    });
}

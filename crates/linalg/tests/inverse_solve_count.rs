//! `Cholesky::inverse` counts as the `2n` triangular solves it stands in for.
//!
//! Its own test binary, because the trace collector is process-global: no
//! other test in this process may count solves while this one reads them.

use linalg::{Cholesky, Matrix};

#[test]
fn one_inverse_adds_two_solves_per_column() {
    trace::enable();
    for n in [0, 1, 7, 30] {
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 / 5.0 - 1.0);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(n as f64);
        let c = Cholesky::factor(&a).unwrap();
        trace::reset();
        let _ = c.inverse();
        assert_eq!(trace::snapshot().counter("linalg.cholesky.solve"), 2 * n as u64, "n = {n}");
    }
    trace::disable();
}

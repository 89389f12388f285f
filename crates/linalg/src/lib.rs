//! Minimal dense linear algebra for Gaussian-process surrogate models.
//!
//! The ResTune reproduction rebuilds all surrogate math from scratch (there is
//! no BoTorch equivalent available offline), so this crate provides exactly the
//! primitives the Gaussian-process stack needs:
//!
//! * a dense [`Matrix`] with row-major storage, owned or borrowed as a
//!   [`MatrixView`] of contiguous rows: also the block of points (one per
//!   row) every Gaussian-process input is,
//! * [`Cholesky`] factorization of symmetric positive-definite matrices with
//!   adaptive jitter, and its one rank-1 operation, `Cholesky::append_row`,
//!   which grows a factor by one row for the incremental GP refit,
//! * forward/backward triangular solves (the forward one also for a whole
//!   right-hand-side matrix), SPD solves, the SPD inverse and
//!   log-determinants,
//! * four slice helpers in the [`vector`] module: `dot`,
//!   `euclidean_distance`, `mean` and `std_dev`.
//!
//! Everything is `f64`; sizes in this project are small (a few hundred
//! observations, a few dozen dimensions), so clarity and numerical robustness
//! come first, and there are no SIMD kernels. Operations that matter for the
//! O(n^3) GP hot path (`Cholesky::factor`, the triangular solves, the
//! inverse) stream contiguous rows, and the blocked ones
//! (`Cholesky::solve_lower_matrix`, `Cholesky::inverse`) return the same
//! bits as their per-column counterparts. The factorization, the inverse and
//! the SPD solve each have one implementation that writes into caller-owned
//! storage (`Cholesky::refactor_with_jitter`, `Cholesky::inverse_into`,
//! `Cholesky::solve_into`), so a caller repeating them at one size, like a
//! hyperparameter fit, allocates once; the allocating forms wrap them.

// Indexed loops are intentional in the numeric kernels below: they mirror
// the textbook formulations and keep bounds explicit.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod matrix;
pub mod vector;

pub use cholesky::Cholesky;
pub use matrix::{Matrix, MatrixView};

/// Errors produced by factorizations and solves.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is not square where a square matrix is required.
    NotSquare { rows: usize, cols: usize },
    /// Dimension mismatch between operands.
    DimensionMismatch { expected: usize, found: usize },
    /// Cholesky failed even after the maximum jitter was added.
    NotPositiveDefinite { pivot: usize, value: f64 },
    /// A numeric argument was invalid (NaN/inf where finite required).
    NonFinite,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite at pivot {pivot} (value {value:.3e}) even with jitter"
            ),
            LinalgError::NonFinite => write!(f, "non-finite value encountered"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;

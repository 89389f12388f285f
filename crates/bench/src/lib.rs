//! Experiment harnesses regenerating every table and figure of the ResTune
//! paper's evaluation (§7).
//!
//! Each experiment lives in [`experiments`] as a function returning a
//! serializable result struct plus a text renderer printing the same
//! rows/series the paper reports. One binary per table/figure (see
//! `src/bin/`) calls into here; `reproduce_all` runs everything and dumps
//! JSON under `results/`.
//!
//! Scale: binaries default to a reduced budget (fewer iterations/seeds) so a
//! full reproduction pass finishes in minutes on a laptop; pass `--full` for
//! paper-scale budgets (200 iterations, 3 seeds).

pub mod context;
pub mod experiments;
pub mod gate;
pub mod microbench;
pub mod report;
pub mod view;

pub use context::{ExperimentContext, Scale};

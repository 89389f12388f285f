//! Experiment harnesses regenerating every table and figure of the ResTune
//! paper's evaluation (§7).
//!
//! Each experiment lives in [`experiments`] as a function returning a
//! serializable result struct plus a text renderer printing the same
//! rows/series the paper reports. [`paper::ARTIFACTS`] registers one entry
//! per generated EXPERIMENTS.md section; the `paper` binary runs one
//! (`paper <id>`) or all of them (`paper all`), saving JSON under
//! `results/`, and renders EXPERIMENTS.md's sections from that JSON
//! (`paper md`).
//!
//! Scale: runs default to a reduced budget (fewer iterations/seeds) so a
//! full reproduction pass finishes in minutes on a laptop; pass `--full` for
//! paper-scale budgets (200 iterations, 3 seeds).

pub mod context;
pub mod experiments;
pub mod gate;
pub mod microbench;
pub mod paper;
pub mod report;
pub mod view;

pub use context::{ExperimentContext, Scale};

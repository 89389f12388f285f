//! Experiment harnesses regenerating every table and figure of the ResTune
//! paper's evaluation (§7), and our own measurements beyond it.
//!
//! Each experiment lives in [`experiments`] as a function returning a
//! serializable result struct. [`paper::ARTIFACTS`] registers one entry per
//! EXPERIMENTS.md section; the `paper` binary runs one (`paper <id>`) or all
//! of them (`paper all`), saving JSON under `results/` and printing each
//! section rendered from it, and renders all of EXPERIMENTS.md from that
//! JSON (`paper md`). [`gate`] compares the saved `BENCH_*.json` against
//! the committed baselines.
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

pub use context::{ExperimentContext, Scale};

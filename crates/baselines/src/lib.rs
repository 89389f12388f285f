//! The baseline tuners of the paper's evaluation (§7), each adapted to the
//! resource-oriented problem exactly the way the paper describes:
//!
//! * **iTuned** ([`Method::ITuned`]) — ResTune's own GP loop with plain
//!   Expected Improvement in place of CEI: the objective swapped from
//!   throughput-maximization to resource-minimization, algorithm otherwise
//!   unmodified (so it happily recommends SLA-violating configs).
//! * **OtterTune-w-Con** ([`ottertune`]) — workload mapping by internal-
//!   metric distance to a single matched historical workload, matched data
//!   merged into one GP, acquisition replaced with ResTune's CEI.
//! * **CDBTune-w-Con** ([`cdbtune`]) — DDPG over internal-metric states with
//!   the reward rewritten for resource + SLA (positive-but-infeasible and
//!   negative-but-feasible rewards are zeroed).
//! * **Grid search** ([`grid`]) — the 8×8×8 ground-truth sweep of the §7.3
//!   case study, outside the tuning loop.
//!
//! [`method_driver`] builds every method's run, one
//! [`restune_core::driver::TuningDriver`] over the shared
//! [`restune_core::engine::EvalEngine`]: ResTune and iTuned as a
//! [`restune_core::tuner::TuningSession`], OtterTune and CDBTune
//! from [`OtterTuneProposer::driver`] and [`CdbTuneProposer::driver`]. So
//! replay retries, failure penalties, and incumbent/convergence bookkeeping
//! are identical across methods, and every baseline produces the same
//! [`restune_core::tuner::TuningOutcome`] the experiment harnesses overlay
//! directly.

pub mod cdbtune;
pub mod grid;
pub mod method;
pub mod ottertune;

pub use cdbtune::CdbTuneProposer;
pub use grid::grid_search;
pub use method::{method_driver, run_method, Method, MethodContext};
pub use ottertune::OtterTuneProposer;

//! # ResTune
//!
//! A from-scratch Rust reproduction of **ResTune: Resource Oriented Tuning
//! Boosted by Meta-Learning for Cloud Databases** (SIGMOD 2021).
//!
//! ResTune tunes DBMS configuration knobs to *minimize resource utilization*
//! (CPU, I/O, or memory) subject to SLA constraints on throughput and p99
//! latency, and accelerates tuning by transferring experience from historical
//! tuning tasks through a ranking-weighted Gaussian-process ensemble.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`linalg`] — dense linear algebra (Cholesky) for the GP stack
//! * [`gp`] — Matérn-5/2 ARD Gaussian processes
//! * [`dbsim`] — the simulated cloud DBMS under test (knobs, instances,
//!   workloads, internal metrics)
//! * [`workload`] — workload characterization (TF-IDF + random forest
//!   meta-features)
//! * [`nn`] — MLP/DDPG substrate for the CDBTune baseline
//! * [`core`] — the ResTune tuner: constrained Bayesian optimization,
//!   meta-learner, data repository, SHAP, TCO
//! * [`baselines`] — iTuned, OtterTune-w-Con, CDBTune-w-Con, grid/LHS search
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```no_run
//! use restune::prelude::*;
//!
//! // A simulated MySQL-like instance running a SYSBENCH-style workload.
//! let env = TuningEnvironment::builder()
//!     .instance(InstanceType::A)
//!     .workload(WorkloadSpec::sysbench())
//!     .resource(ResourceKind::Cpu)
//!     .seed(7)
//!     .build();
//!
//! // Tune with defaults: CEI acquisition, meta-learning disabled (no history).
//! let mut session = TuningSession::new(env, RestuneConfig::default());
//! let outcome = session.run(50);
//! println!("best feasible CPU: {:.1}%", outcome.best_objective.unwrap());
//! ```

pub use baselines;
pub use dbsim;
pub use gp;
pub use linalg;
pub use nn;
pub use restune_core as core;
pub use workload;

/// Convenience re-exports covering the common tuning workflow.
pub mod prelude {
    pub use crate::core::acquisition::{AcquisitionKind, ConstrainedExpectedImprovement};
    pub use crate::core::meta::MetaLearner;
    pub use crate::core::problem::{ResourceKind, SlaConstraints, TuningProblem};
    pub use crate::core::repository::{DataRepository, TaskRecord};
    pub use crate::core::tuner::{RestuneConfig, TuningEnvironment, TuningOutcome, TuningSession};
    pub use dbsim::{InstanceType, KnobRegistry, SimulatedDbms, WorkloadSpec};
    pub use workload::WorkloadCharacterizer;
}

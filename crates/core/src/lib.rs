//! The ResTune tuner: resource-oriented DBMS knob tuning as constrained
//! Bayesian optimization, boosted by meta-learning.
//!
//! Paper: *ResTune: Resource Oriented Tuning Boosted by Meta-Learning for
//! Cloud Databases*, SIGMOD 2021. Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §3 problem statement (Eq. 1) | [`problem`] |
//! | §5.1 multi-output GP surrogate | [`surrogate`] |
//! | §5.2 constrained expected improvement (Eqs. 2–5) | [`acquisition`] |
//! | §6.1 scale unification | [`scale`] |
//! | §6.3 meta-learner ensemble (Eqs. 6–7) | [`meta`] |
//! | §6.4.1 static weights (Eq. 8) | [`meta::static_weights`] |
//! | §6.4.2 dynamic ranking-loss weights (Eq. 9) | [`meta::dynamic_weights`] |
//! | §6.4.3 adaptive weight schema | [`tuner`] |
//! | §4 workflow, convergence, data repository | [`tuner`], [`repository`] |
//! | Fig. 5 apply-and-replay evaluator | [`engine`] |
//! | Fig. 5 iteration pipeline (strategy ↔ loop) | [`proposer`], [`driver`] |
//! | §4/§7.5 fleet-scale multi-tenant deployment | [`fleet`] |
//! | §7.3 SHAP knob attribution (Fig. 7) | [`shap`] |
//! | §7.6 TCO analysis (Tables 8–9) | [`tco`] |

// Indexed loops are intentional in the numeric kernels below: they mirror
// the textbook formulations and keep bounds explicit.
#![allow(clippy::needless_range_loop)]

pub mod acquisition;
pub mod advisor;
pub mod diag;
pub mod drift;
pub mod driver;
pub mod engine;
mod exec;
pub mod fleet;
pub mod lhs;
pub mod meta;
pub mod problem;
pub mod proposer;
pub mod repository;
pub mod resilience;
pub mod scale;
pub mod shap;
pub mod space;
pub mod surrogate;
pub mod tco;
pub mod tuner;
pub mod view;

pub use acquisition::{AcquisitionKind, ConstrainedExpectedImprovement};
pub use diag::{DriftDiag, FitPath, TunerHealth, HEALTH_EVENT};
pub use drift::{
    DriftConfig, DriftController, DriftEvent, FleetSealSink, LocalSealSink, RestartPolicy,
    SealSink,
};
pub use driver::{BoxProposer, Proposal, Proposer, TuningDriver};
pub use engine::{EvalEngine, HistoryView};
pub use fleet::{
    mix_seed, FleetConfig, FleetOutcome, FleetService, ShardedStore, StoreSnapshot, Tenant,
    TenantResult,
};
pub use meta::{BaseLearner, MetaLearner};
pub use problem::{ResourceKind, SlaConstraints, SpaceInfo, TuningProblem};
pub use proposer::RestuneProposer;
pub use repository::{DataRepository, TaskObservation, TaskRecord};
pub use resilience::{FailureCounts, FailureKind};
pub use scale::Standardizer;
pub use space::{IdentityTransform, Projection, RandomProjection, SpacePipeline, SpaceTransform};
pub use surrogate::SurrogatePrediction;
pub use tuner::{IterationRecord, RestuneConfig, TuningEnvironment, TuningOutcome, TuningSession};

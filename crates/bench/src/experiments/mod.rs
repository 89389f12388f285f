//! One module per paper artifact (or family of artifacts sharing a runner):
//! each returns a serializable result and prints it as text.
//! [`crate::paper::ARTIFACTS`] is the index: it maps every EXPERIMENTS.md
//! section to the module that produces it.

pub mod ablations;
pub mod case_study;
pub mod efficiency;
pub mod fault_sweep;
pub mod fig1;
pub mod resources;
pub mod sensitivity;
pub mod table3;
pub mod table4;
pub mod tco;

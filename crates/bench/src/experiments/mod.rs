//! One module per paper artifact (or family of artifacts sharing a runner):
//! each returns a serializable result. [`crate::paper::ARTIFACTS`] is the
//! index: it maps every EXPERIMENTS.md section to the module that produces
//! it and renders the section from the saved result.

pub mod ablations;
pub mod case_study;
pub mod drift_sweep;
pub mod efficiency;
pub mod fault_sweep;
pub mod fig1;
pub mod fleet_scaling;
pub mod gp_fit;
pub mod methods_health;
pub mod projection_sweep;
pub mod resources;
pub mod sensitivity;
pub mod table3;
pub mod table4;
pub mod tco;

/// An in-run check: `Err(message())` unless `ok`.
fn check(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

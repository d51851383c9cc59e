//! Facade crate re-exporting the CITROEN workspace public API.
pub mod fuzz;

pub use citroen_analyze as analyze;
pub use citroen_bo as bo;
pub use citroen_core as core;
pub use citroen_gp as gp;
pub use citroen_ir as ir;
pub use citroen_passes as passes;
pub use citroen_rt as rt;
pub use citroen_sim as sim;
pub use citroen_telemetry as telemetry;
pub use citroen_suite as suite;
pub use citroen_synthetic as synthetic;
pub use citroen_tuners as tuners;

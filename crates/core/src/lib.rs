//! # citroen-core
//!
//! CITROEN — the paper's primary contribution: compilation-statistics-guided
//! Bayesian optimisation for compiler phase ordering, plus the autotuning
//! [`task`] framework (compile/measure abstraction, differential testing,
//! budget accounting) and the adaptive [`multimodule`] budget allocator.

#![warn(missing_docs)]

pub mod cache;
pub mod citroen;
pub mod multimodule;
pub mod service;
pub mod task;

pub use cache::BoundedCache;
pub use citroen::{
    run_citroen, run_citroen_session, CitroenConfig, FeatureKind, GeneratorKind, ImpactReport,
};
pub use service::{
    trace_digest, SessionCtl, SessionEnv, SessionExit, SessionResult, SharedCacheStats,
    SharedCompileCache,
};
pub use multimodule::{run_multimodule, Allocation, MultiModuleConfig, MultiModuleResult};
pub use task::{Task, TaskConfig, TimeBreakdown, TuneError, TuneTrace};

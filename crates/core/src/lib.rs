//! # citroen-core
//!
//! CITROEN — the paper's primary contribution: compilation-statistics-guided
//! Bayesian optimisation for compiler phase ordering, plus the autotuning
//! [`task`] framework (compile/measure abstraction, differential testing,
//! budget accounting). One tuning loop serves every program: it tunes the
//! first hot module, or every hot module under an adaptive, round-robin or
//! uniform budget allocation ([`CitroenConfig::allocation`]).

#![warn(missing_docs)]

mod cache;
pub mod citroen;
pub mod service;
pub mod task;

pub use citroen::{
    run_citroen, run_citroen_session, Allocation, CitroenConfig, FeatureKind, GeneratorKind,
    ImpactReport,
};
pub use service::{
    trace_digest, SessionCtl, SessionEnv, SessionExit, SessionResult, SharedCacheStats,
    SharedCompileCache,
};
pub use task::{
    Execution, MemoStats, Task, TaskBase, TaskConfig, TimeBreakdown, TuneError, TuneTrace,
};

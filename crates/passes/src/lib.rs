//! # citroen-passes
//!
//! The optimiser substrate: ~32 transformation passes over `citroen-ir`, a
//! pass [`manager`] that applies arbitrary pass sequences and collects
//! per-pass compilation [`stats`] (LLVM `-stats-json` style), the reference
//! `-O3` pipeline, and the [`autophase`] static-feature extractor used as the
//! alternative-features baseline.

#![warn(missing_docs)]

pub mod autophase;
pub mod manager;
pub mod noop;
pub mod passes;
pub mod stats;
pub mod testing;
pub mod util;

pub use manager::{
    o1_pipeline, o3_pipeline, CompileError, CompileResult, Pass, PassId, PassManager, PassSeq,
    Prefix, Registry,
};
pub use noop::{MemoStats, NoopMemo, StateKey, NOOP_MEMO_CAP};
pub use stats::Stats;

//! Static analysis over the CITROEN IR: dataflow analyses, lints, the
//! per-pass translation-validation sanitizer, and delta-debugging reducers.
//!
//! The tuners in this repository explore millions of random pass orderings;
//! the whole experiment silently rots if any pass bug keeps the IR
//! *well-formed* but changes semantics. This crate is the enforcement layer
//! (DESIGN.md, "Correctness: static analysis and translation validation"):
//!
//! - [`intervals`] — constant-range abstract interpretation per SSA value,
//!   with a module-level callee-return fixpoint.
//! - [`liveness`] — backward SSA liveness (φ-operands as edge uses).
//! - [`alias`] — intraprocedural flow-sensitive must/may/no-alias queries:
//!   exact symbolic address decomposition plus root classification, the
//!   substrate for sanitizer rules S9–S11.
//! - [`depgraph`] — per-loop memory dependence graphs over the alias
//!   relation, separating loop-carried from loop-independent dependences
//!   with conservative call handling via [`memeffects`] summaries.
//! - [`memeffects`] — conservative alias/clobber summaries per function:
//!   may/must global read-write sets, stored-value ranges, and a
//!   must-terminate proof used to arm the sanitizer.
//! - [`lint`] — definite-by-construction diagnostics (dead stores,
//!   unreachable blocks, uninitialised loads, out-of-bounds indexing,
//!   trivially infinite loops).
//! - [`valmap`] — per-value dataflow fingerprints (fixpoint over φ-cycles)
//!   and the before/after value correspondence map that lets the sanitizer
//!   report miscompiles at the exact value.
//! - [`sanitize`] — cross-checks pre-/post-pass facts for semantic
//!   *contradictions* a structurally-valid miscompile cannot hide, at both
//!   function (S1–S5) and value (S6–S8) granularity.
//! - [`reduce`] — `ddmin` over pass sequences and a verifier-gated module
//!   reducer that shrinks failures to minimal parseable reproducers.
//!
//! Dependencies are `citroen-ir` and `citroen-rt`; the pass
//! manager plugs [`sanitize`] in behind `CITROEN_SANITIZE`, and the
//! `citroen-analyze` binary drives the fuzz-and-reduce loop.

#![warn(missing_docs)]

pub mod alias;
pub mod aliasoracle;
pub mod depgraph;
pub mod intervals;
pub mod lint;
pub mod liveness;
pub mod memeffects;
pub mod reduce;
pub mod sanitize;
pub mod valmap;

pub use alias::{AliasAnalysis, AliasResult, SymAddr};
pub use depgraph::{loop_dep_graphs, Dep, LoopDepGraph, MemRef, RefKind};
pub use intervals::{analyze_module as interval_analysis, Interval, ModuleIntervals};
pub use lint::{filter_severity, lint_module, Diagnostic, Severity};
pub use liveness::Liveness;
pub use memeffects::{MemEffects, ModuleEffects};
pub use reduce::{ddmin, reduce_module};
pub use sanitize::{check as sanitize_check, module_facts, ModuleFacts, Violation};
pub use valmap::{correspond, value_facts, ValueFacts};

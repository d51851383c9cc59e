//! # citroen-serve
//!
//! CITROEN-as-a-service: a multi-tenant tuning daemon. Tenants submit
//! tuning jobs (benchmark + budget + seed) as newline-delimited JSON over
//! stdio or a Unix socket; the daemon runs up to `max_concurrent` sessions
//! concurrently and shares state across them:
//!
//! 1. a global bounded LRU compile cache keyed by (source-module
//!    fingerprint, canonical genome) — tenants tuning the same program reuse
//!    each other's compilations bit-identically;
//! 2. a persisted `citroen-analyze oracle` interaction graph + work model,
//!    loaded once and warm-starting every session's canonicalizer;
//! 3. GRACE-style transfer warm-starts: completed sessions deposit their
//!    best genome keyed by an O3 compilation-statistics descriptor, and new
//!    jobs may seed their initial design from statistics-space nearest
//!    neighbours (`warm > 0`).
//!
//! See `DESIGN.md` §11 for the protocol, shared-state invariants, and the
//! determinism argument.

#![warn(missing_docs)]

pub mod metrics;
pub mod protocol;
pub mod server;
pub mod state;
pub mod telemetry_route;

pub use metrics::{JobSummary, ServeMetrics, SloConfig, SpanSample};
pub use protocol::{codes, JobOutcome, JobSpec, JobState, ProtoError, Request};
pub use server::{job_citroen_config, job_task, Server, ServeSummary};
pub use state::{ServeConfig, ServeState};
pub use telemetry_route::{RoutingSink, SessionTable};

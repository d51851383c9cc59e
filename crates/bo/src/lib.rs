//! # citroen-bo
//!
//! The Bayesian-optimisation stack of the reproduction: box [`space`]s,
//! [`acquisition`] functions (UCB/EI/PI + Monte-Carlo batch forms),
//! [`heuristics`] (GA, CMA-ES, discrete 1+λ ES), the AF [`maximizer`] with
//! its initialisation strategies, and [`aibo`] — the heuristic
//! acquisition-function-maximiser-initialisation algorithm of thesis Ch. 4
//! (Algorithm 1) that CITROEN extends to phase ordering.

#![warn(missing_docs)]

pub mod acquisition;
pub mod baselines;
pub mod aibo;
pub mod heuristics;
pub mod maximizer;
pub mod space;
pub mod transfer;

pub use acquisition::Acquisition;
pub use aibo::{run_aibo, run_heuristic, run_random_search, AiboConfig, BoResult, IterationRecord, StrategyKind};
pub use baselines::{run_hesbo, run_turbo, TurboConfig};
pub use heuristics::{AskTell, CmaEs, DiscreteOneLambda, GaOpt, RandomOpt};
pub use maximizer::{draw_mc_eps, greedy_batch, GradMaximizer};
pub use space::Bounds;
pub use transfer::{nearest, stats_distance, warm_seeds, TransferEntry};

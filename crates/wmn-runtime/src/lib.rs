//! Deterministic parallel execution of experiment grids.
//!
//! The paper's evaluation is an embarrassingly parallel grid — scenarios ×
//! ad hoc methods × optimizers × seeds — and this crate is the engine that
//! executes such grids on every available core **without changing a single
//! output bit** relative to a serial run. It is std-only: a scoped worker
//! pool over a shared job queue ([`pool::Runtime`]) and a job-coordinate
//! abstraction with deterministic per-cell seed derivation ([`grid::Cell`]).
//!
//! # The determinism guarantee
//!
//! Parallel execution is bit-identical to serial execution, for any thread
//! count and any job completion order, because of two structural rules:
//!
//! 1. **Seeds come from coordinates, not from shared state.** Every cell's
//!    RNG seed is derived as
//!    [`stream_seed(root, coords)`](wmn_model::rng::stream_seed) — a
//!    SplitMix64 walk over the cell's integer coordinates. No job ever
//!    draws from an RNG another job also touches, so scheduling cannot
//!    perturb a stream.
//! 2. **Results are collected by job index, not by arrival.**
//!    [`pool::Runtime::run`] returns results in submission order
//!    regardless of which worker finished first.
//!
//! Combined with run functions that are pure in `(instance, config, seed)`,
//! this makes `--threads 8` byte-identical to `--threads 1` — verified by
//! integration tests here and in `wmn-experiments`.
//!
//! # Example
//!
//! ```
//! use wmn_obs::RobustnessStats;
//! use wmn_runtime::grid::Cell;
//! use wmn_runtime::pool::{JobPolicy, Runtime};
//!
//! // Four cells of a toy grid, each seeded from its own coordinates.
//! let seeds = |runtime: Runtime| {
//!     let cells: Vec<Cell> = (0..4).map(|i| Cell::new(format!("cell{i}"), &[i])).collect();
//!     let policy = JobPolicy::default();
//!     let mut stats = RobustnessStats::default();
//!     runtime.run(cells, &policy, &mut stats, None, |cell, _| {
//!         Ok::<_, String>(cell.seed(42))
//!     })
//! };
//! // Two threads and one thread: identical results in identical order.
//! assert_eq!(seeds(Runtime::new(2)), seeds(Runtime::new(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod grid;
pub mod pool;

pub use fault::{FaultKind, FaultPlan, FaultRule, FaultSite};
pub use grid::Cell;
pub use pool::{FailureKind, JobFailure, JobPolicy, Runtime};

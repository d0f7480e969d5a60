//! Objectives and fitness evaluation for WMN router placement.
//!
//! The paper optimizes two objectives — the **size of the giant component**
//! (network connectivity) and **user coverage** — with connectivity
//! weighted as more important. This crate provides:
//!
//! * [`measurement`] — [`NetworkMeasurement`], the raw summary of an
//!   evaluated network.
//! * [`fitness`] — the lexicographic fitness (connectivity first,
//!   coverage breaks ties).
//! * [`evaluator`] — [`Evaluator`], the single evaluation entry point used
//!   by every search algorithm in the workspace.
//! * [`stats`] — progress samples and trace series for experiments.
//!
//! # Quick start
//!
//! ```
//! use wmn_metrics::Evaluator;
//! use wmn_model::prelude::*;
//!
//! let instance = InstanceSpec::paper_normal()?.generate(11)?;
//! let evaluator = Evaluator::paper_default(&instance);
//! let mut rng = rng_from_seed(0);
//! let eval = evaluator.evaluate(&instance.random_placement(&mut rng))?;
//! println!("giant = {}, covered = {}", eval.giant_size(), eval.covered_clients());
//! # Ok::<(), wmn_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod evaluator;
pub mod fitness;
pub mod measurement;
pub mod stats;

pub use evaluator::{EvalWorkspace, Evaluation, Evaluator};
pub use measurement::NetworkMeasurement;
pub use stats::{ProgressPoint, Trace};

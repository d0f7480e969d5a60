//! Genetic algorithm for WMN router placement.
//!
//! The paper's second evaluation scenario (Tables 1–3, Figures 1–3) runs a
//! GA whose **initial population is produced by each ad hoc method**,
//! measuring how initialization quality drives convergence of the giant
//! component size. This crate provides that machinery:
//!
//! * [`chromosome`] / [`population`] — individuals (placement + cached
//!   evaluation), populations with diversity measures, and per-child
//!   [`Lineage`] reproduction metadata.
//! * [`crossover`] — single-point crossover (parents are picked by
//!   3-tournament selection).
//! * [`mutation`] — Gaussian jitter, uniform reset and anchor-attach (the
//!   paper stack); every operator plans its perturbation as `wmn-search`
//!   [`MoveAction`] deltas.
//! * [`init`] — ad-hoc-seeded population initialization
//!   ([`PopulationInit`]).
//! * [`engine`] — the elitist generational [`GaEngine`] with per-generation
//!   [`trace`] recording (the Figures 1–3 data). Evaluation is
//!   **topology-backed**: each individual owns a live `WmnTopology`, and
//!   children evaluate as "parent state copy + batch repair of the
//!   placement diff" — incremental by default
//!   ([`ConnectivityMode::Dynamic`]), bit-identical to the full-rebuild
//!   reference ([`ConnectivityMode::FullRebuild`]) at a fraction of the
//!   cost (see the `ablation_ga_eval` bench).
//! * [`parallel`] — threaded evaluation over the slot pool.
//!
//! [`MoveAction`]: wmn_search::movement::MoveAction
//! [`ConnectivityMode::Dynamic`]: wmn_graph::topology::ConnectivityMode::Dynamic
//! [`ConnectivityMode::FullRebuild`]: wmn_graph::topology::ConnectivityMode::FullRebuild
//!
//! # Quick start
//!
//! ```
//! use wmn_ga::prelude::*;
//! use wmn_metrics::Evaluator;
//! use wmn_model::prelude::*;
//! use wmn_placement::registry::AdHocMethod;
//!
//! let instance = InstanceSpec::paper_normal()?.generate(0)?;
//! let evaluator = Evaluator::paper_default(&instance);
//! let config = GaConfig::builder()
//!     .population_size(16)
//!     .generations(10)
//!     .build()
//!     .expect("valid config");
//! let engine = GaEngine::new(&evaluator, config);
//! let mut rng = rng_from_seed(1);
//! let init = PopulationInit::AdHoc(AdHocMethod::HotSpot);
//! let outcome = engine.run(&init, &mut rng, &mut NoopRecorder)?;
//! println!("best giant component: {}", outcome.best_evaluation.giant_size());
//! # Ok::<(), wmn_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chromosome;
pub mod crossover;
pub mod engine;
pub mod init;
pub mod mutation;
pub mod parallel;
pub mod population;
mod selection;
pub mod trace;

pub use chromosome::Individual;
pub use engine::{GaConfig, GaConfigBuilder, GaEngine, GaOutcome};
pub use init::PopulationInit;
pub use mutation::MutationOp;
pub use population::{Lineage, Population};
pub use trace::{GaTrace, GenerationRecord};
pub use wmn_metrics::stats::ProgressPoint;

/// Convenient glob import of the GA toolkit.
pub mod prelude {
    pub use crate::chromosome::Individual;
    pub use crate::engine::{GaConfig, GaConfigBuilder, GaEngine, GaOutcome};
    pub use crate::init::PopulationInit;
    pub use crate::mutation::MutationOp;
    pub use crate::population::{Lineage, Population};
    pub use crate::trace::{GaTrace, GenerationRecord};
    pub use wmn_metrics::stats::ProgressPoint;
    pub use wmn_obs::NoopRecorder;
}

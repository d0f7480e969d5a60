//! Neighborhood search for WMN router placement (paper §4).
//!
//! * [`movement`] — the paper's movement types: [`SwapMovement`]
//!   (Algorithm 3: weakest router of the densest zone ⟷ strongest router of
//!   the sparsest zone) and the [`RandomMovement`] baseline.
//! * [`neighborhood`] — best-neighbor selection (Algorithm 2) under a
//!   sampled exploration budget.
//! * [`search`] — the phase-loop driver (Algorithm 1), run for a fixed
//!   number of phases (Figure 4).
//! * [`trace`] — per-phase history (the data behind Figure 4).
//!
//! # Quick start
//!
//! ```
//! use wmn_metrics::Evaluator;
//! use wmn_model::prelude::*;
//! use wmn_search::prelude::*;
//!
//! let instance = InstanceSpec::paper_normal()?.generate(1)?;
//! let evaluator = Evaluator::paper_default(&instance);
//!
//! let movement = SwapMovement::new(&instance, SwapConfig::default());
//! let config = SearchConfig {
//!     budget: ExplorationBudget::sampled(16),
//!     phases: 10,
//! };
//! let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), config);
//!
//! let mut rng = rng_from_seed(7);
//! let initial = instance.random_placement(&mut rng);
//! let mut topo = evaluator.topology(&initial)?;
//! let outcome = search.run(&mut topo, &mut rng, &mut NoopRecorder);
//! println!(
//!     "giant component: {} -> {}",
//!     outcome.initial_evaluation.giant_size(),
//!     outcome.best_evaluation.giant_size()
//! );
//! # Ok::<(), wmn_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod movement;
pub mod neighborhood;
pub mod search;
pub mod trace;

pub use movement::{MoveAction, Movement, RandomMovement, SwapConfig, SwapMovement, UndoAction};
pub use neighborhood::{best_neighbor, BestNeighbor, ExplorationBudget};
pub use search::{NeighborhoodSearch, SearchConfig, SearchOutcome};
pub use trace::{PhaseRecord, SearchTrace};
pub use wmn_metrics::stats::ProgressPoint;

/// Convenient glob import of the search toolkit.
pub mod prelude {
    pub use crate::movement::{
        MoveAction, Movement, RandomMovement, SwapConfig, SwapMovement, UndoAction,
    };
    pub use crate::neighborhood::{best_neighbor, BestNeighbor, ExplorationBudget};
    pub use crate::search::{NeighborhoodSearch, SearchConfig, SearchOutcome};
    pub use crate::trace::{PhaseRecord, SearchTrace};
    pub use wmn_metrics::stats::ProgressPoint;
    pub use wmn_obs::NoopRecorder;
}

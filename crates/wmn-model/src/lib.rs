//! Domain model for mesh router placement in Wireless Mesh Networks.
//!
//! This crate is the foundation of the `wmn` workspace, a reproduction of
//! *"Ad Hoc and Neighborhood Search Methods for Placement of Mesh Routers in
//! Wireless Mesh Networks"* (Xhafa, Sánchez, Barolli — ICDCS Workshops
//! 2009). It defines the problem's vocabulary:
//!
//! * [`geometry`] — points, rectangles, and the `W × H` deployment [`Area`].
//! * [`radio`] — the oscillating radio-coverage model ([`RadioProfile`]).
//! * [`node`] — mesh [`Router`]s (relocatable, radius-bearing) and mesh
//!   [`Client`]s (fixed), with typed ids.
//! * [`distribution`] — the client position distributions evaluated by the
//!   paper (Uniform, Normal, Exponential, Weibull) plus a hotspot mixture,
//!   all sampled from scratch.
//! * [`instance`] — [`ProblemInstance`], its declarative [`InstanceSpec`]
//!   (including the paper's evaluation presets) and an [`InstanceBuilder`].
//! * [`placement`] — [`Placement`], the candidate-solution position vector.
//! * [`format`](mod@format) — a plain-text `.wmn` file format for instances and
//!   placements.
//! * [`rng`] — deterministic seed plumbing ([`SeedSequence`]).
//!
//! # Quick start
//!
//! ```
//! use wmn_model::prelude::*;
//!
//! // The paper's Table 1 instance family: 64 routers with radii in [2, 8],
//! // 192 Normal-distributed clients on a 128 x 128 area.
//! let spec = InstanceSpec::paper_normal()?;
//! let instance = spec.generate(42)?;
//!
//! // Draw a uniform random placement and validate it.
//! let mut rng = rng_from_seed(7);
//! let placement = instance.random_placement(&mut rng);
//! instance.validate_placement(&placement)?;
//! # Ok::<(), wmn_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distribution;
pub mod error;
pub mod format;
pub mod geometry;
pub mod instance;
pub mod node;
pub mod placement;
pub mod radio;
pub mod rng;

pub use distribution::ClientDistribution;
pub use error::ModelError;
pub use geometry::{Area, Point, Rect};
pub use instance::{InstanceBuilder, InstanceSpec, ProblemInstance};
pub use node::{Client, ClientId, Router, RouterId};
pub use placement::Placement;
pub use radio::RadioProfile;
pub use rng::SeedSequence;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::distribution::{ClientDistribution, Hotspot};
    pub use crate::error::ModelError;
    pub use crate::geometry::{Area, Point, Rect};
    pub use crate::instance::{InstanceBuilder, InstanceSpec, ProblemInstance};
    pub use crate::node::{Client, ClientId, Router, RouterId};
    pub use crate::placement::Placement;
    pub use crate::radio::RadioProfile;
    pub use crate::rng::{rng_from_seed, stream_seed, Rng, SeedSequence};
}

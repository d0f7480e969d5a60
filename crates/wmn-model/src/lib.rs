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
//!   paper (Uniform, Normal, Exponential, Weibull), sampled from scratch.
//! * [`instance`] — [`ProblemInstance`] (which indexes its clients once,
//!   [`ProblemInstance::client_index`]), its declarative [`InstanceSpec`]
//!   (including the paper's evaluation presets) and an [`InstanceBuilder`].
//! * [`spatial`] — the uniform-grid indexes [`GridIndex`] (clients) and
//!   [`DynamicGrid`] (a topology's routers).
//! * [`placement`] — [`Placement`], the candidate-solution position vector.
//! * [`rng`] — deterministic seed plumbing ([`rng::stream_seed`]).
//!
//! Instances and grids estimate their bytes from their counts and refuse to
//! be built above [`MEMORY_LIMIT_BYTES`].
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
pub mod geometry;
pub mod instance;
pub mod node;
pub mod placement;
pub mod radio;
pub mod rng;
pub mod spatial;

pub use distribution::ClientDistribution;
pub use error::ModelError;
pub use geometry::{Area, Point, Rect};
pub use instance::{InstanceBuilder, InstanceSpec, ProblemInstance};
pub use node::{Client, ClientId, Router, RouterId};
pub use placement::Placement;
pub use radio::RadioProfile;
pub use spatial::{DynamicGrid, GridIndex};

/// The most memory, in bytes, that one instance or one spatial grid may
/// ask for: 2 GiB, 4,096 times the largest grid a committed run builds
/// (the 512 KiB client grid of `--scale 256`). Instances and grids
/// estimate their bytes from their counts before anything is allocated
/// ([`InstanceSpec::new`], [`ProblemInstance::new`] and
/// [`spatial::check_cell_space`]) and refuse above it, so an oversized
/// `--scale` is an error, not an out-of-memory kill.
pub const MEMORY_LIMIT_BYTES: u64 = 2 << 30;

/// Refuses `what` (a phrase naming it) when its estimated `bytes` exceed
/// [`MEMORY_LIMIT_BYTES`], with the estimate in the message.
fn check_memory(bytes: u128, what: impl FnOnce() -> String) -> Result<(), ModelError> {
    if bytes <= u128::from(MEMORY_LIMIT_BYTES) {
        return Ok(());
    }
    Err(ModelError::InvalidSpec {
        reason: format!(
            "{} would need an estimated {bytes} bytes, above the \
             {MEMORY_LIMIT_BYTES}-byte memory limit",
            what()
        ),
    })
}

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::distribution::ClientDistribution;
    pub use crate::error::ModelError;
    pub use crate::geometry::{Area, Point, Rect};
    pub use crate::instance::{InstanceBuilder, InstanceSpec, ProblemInstance};
    pub use crate::node::{Client, ClientId, Router, RouterId};
    pub use crate::placement::Placement;
    pub use crate::radio::RadioProfile;
    pub use crate::rng::{rng_from_seed, stream_seed, Rng};
}

//! Graph and geometry substrate for WMN router placement.
//!
//! Everything the placement algorithms need to turn a candidate
//! [`Placement`](wmn_model::Placement) into a measurable network:
//!
//! * [`arena`] — [`NeighborSlab`], the struct-of-arrays slab arena behind
//!   adjacency lists and disk-client caches: per-node spans over one flat
//!   `u32` buffer with power-of-two size-class free lists, cloneable with
//!   a handful of bulk copies.
//! * [`dsu`] — union–find with rank + path compression, the test oracle
//!   for the BFS component builds.
//! * [`adjacency`] — the mutual-range link rule and mesh adjacency
//!   construction, one cell-ordered walk over the near router pairs of a
//!   router [`DynamicGrid`](wmn_model::spatial::DynamicGrid) (the grid a
//!   topology keeps), with per-node edge replacement
//!   (`replace_node_edges`, a merge-diff of old vs new neighbor lists that
//!   also reports the edge diff) and whole-graph rebuild in place.
//! * [`components`] — connected components and the giant component (the
//!   paper's connectivity objective), rebuildable in place by BFS.
//! * [`connectivity`] — [`DynamicConnectivity`], component-local repair of
//!   the component structure under an edge diff: one BFS relabels the
//!   components holding an endpoint of a changed edge — the engine behind
//!   per-move connectivity, counting its work into the topology's one
//!   [`EngineStats`].
//! * [`density`] — client-density cell grids and their window sums
//!   (HotSpot's zone ranking and the swap movement's dense/sparse areas),
//!   [`ZoneBins`] for point → zone lookup, and [`ZoneCensus`], the
//!   per-zone routers of one placement.
//! * [`topology`] — [`WmnTopology`], the materialized network with the
//!   **delta-evaluation engine**: one incremental, allocation-free repair
//!   of edges, connectivity, and coverage after every position write (see
//!   the [`topology`] module docs for the invariants and the coverage
//!   choice), and a placement stamp that caches of position-derived data
//!   key on. Every topology of an instance shares the instance's client
//!   index ([`ProblemInstance::client_index`](wmn_model::ProblemInstance::client_index)),
//!   and `build`, `reset_placement` and `rebuild_full` derive the network
//!   through one routine.
//!
//! # Quick start
//!
//! ```
//! use wmn_graph::topology::WmnTopology;
//! use wmn_model::prelude::*;
//!
//! let instance = InstanceSpec::paper_normal()?.generate(7)?;
//! let mut rng = rng_from_seed(1);
//! let placement = instance.random_placement(&mut rng);
//! let topo = WmnTopology::build(&instance, &placement)?;
//! println!("giant = {}, covered = {}", topo.giant_size(), topo.covered_count());
//! # Ok::<(), wmn_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adjacency;
pub mod arena;
pub mod components;
pub mod connectivity;
pub mod density;
pub mod dsu;
pub mod topology;

pub use adjacency::MeshAdjacency;
pub use arena::NeighborSlab;
pub use components::Components;
pub use connectivity::DynamicConnectivity;
pub use density::{CellWindow, DensityMap, ZoneBins, ZoneCensus};
pub use dsu::UnionFind;
pub use topology::{ConnectivityMode, WmnTopology};
pub use wmn_obs::EngineStats;

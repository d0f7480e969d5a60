//! Graph and geometry substrate for WMN router placement.
//!
//! Everything the placement algorithms need to turn a candidate
//! [`Placement`](wmn_model::Placement) into a measurable network:
//!
//! * [`arena`] — [`NeighborSlab`], the struct-of-arrays slab arena behind
//!   adjacency lists and disk-client caches: per-node spans over one flat
//!   `u32` buffer with power-of-two size-class free lists, cloneable with
//!   a handful of bulk copies.
//! * [`dsu`] — union–find with rank + path compression, resettable in
//!   place for the allocation-free per-move connectivity rebuild.
//! * [`spatial`] — a uniform-grid index for radius/rectangle queries
//!   (lazy, allocation-free iteration) plus the mutable
//!   [`DynamicGrid`] the topology keeps in sync across router moves.
//! * [`adjacency`] — geometric link models and mesh adjacency construction,
//!   with per-node edge replacement (`replace_node_edges`, a merge-diff
//!   of old vs new neighbor lists) and whole-graph rebuild.
//! * [`components`] — connected components and the giant component (the
//!   paper's connectivity objective), rebuildable through reusable scratch.
//! * [`connectivity`] — [`DynamicConnectivity`], component-local repair of
//!   the component structure under edge insertions (pure DSU unions) and
//!   deletions (bounded bidirectional BFS with a whole-graph-rescan
//!   fallback) — the sub-linear engine behind per-move connectivity.
//! * [`density`] — client-density cell grids with summed-area tables
//!   (HotSpot's zone ranking and the swap movement's dense/sparse areas).
//! * [`topology`] — [`WmnTopology`], the materialized network with the
//!   **delta-evaluation engine**: incremental, allocation-free repair of
//!   edges, connectivity, and coverage after every router move (see the
//!   [`topology`] module docs for the invariants and fallback rules).
//!
//! # Quick start
//!
//! ```
//! use wmn_graph::topology::{TopologyConfig, WmnTopology};
//! use wmn_model::prelude::*;
//!
//! let instance = InstanceSpec::paper_normal()?.generate(7)?;
//! let mut rng = rng_from_seed(1);
//! let placement = instance.random_placement(&mut rng);
//! let topo = WmnTopology::build(&instance, &placement, TopologyConfig::paper_default())?;
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
pub mod spatial;
pub mod topology;

pub use adjacency::{LinkModel, MeshAdjacency};
pub use arena::NeighborSlab;
pub use components::Components;
pub use connectivity::{ConnectivityStats, DynamicConnectivity, RepairOutcome};
pub use density::{CellWindow, DensityMap, ZoneBins};
pub use dsu::UnionFind;
pub use spatial::{DynamicGrid, GridIndex};
pub use topology::{ConnectivityMode, CoverageRule, TopologyConfig, WmnTopology};
pub use wmn_obs::{ApplyPhases, EngineStats, TopologyStats};

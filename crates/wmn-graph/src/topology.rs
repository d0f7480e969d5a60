//! The WMN topology: router mesh plus client attachment.
//!
//! [`WmnTopology`] is the evaluated "network state" behind every fitness
//! computation: given an instance and a placement it derives the
//! router–router mesh (under a [`LinkModel`]), its connected components,
//! and which clients are covered (under a [`CoverageRule`]).
//!
//! # The delta-evaluation engine
//!
//! The paper's Algorithm 3 ends with *"re-establish mesh nodes network
//! connections"* after swapping two routers. The neighborhood-search hot
//! loop is `propose → apply → evaluate → undo`, so [`move_router`] and
//! [`swap_routers`] repair the network **incrementally** and — once the
//! internal scratch buffers are warm — without heap allocation:
//!
//! 1. **Edges.** A router-side [`DynamicGrid`] is kept in sync with every
//!    move (one bucket relocation), so re-deriving the moved router's edges
//!    queries only nearby routers instead of scanning all *n*.
//! 2. **Connectivity.** When the moved router's sorted neighbor set is
//!    unchanged, the graph is identical and component/coverage work is
//!    skipped entirely (the *no-op early-out*; only the moved disk is
//!    re-counted). Otherwise the old-vs-new neighbor diffs become an edge
//!    insert/delete stream for the **dynamic connectivity engine**
//!    ([`DynamicConnectivity`], the default [`ConnectivityMode::Dynamic`]):
//!    insertions union component ids, deletions run a bounded
//!    component-local bidirectional BFS, and a whole-graph
//!    [`Components::rebuild_incremental`] rescan remains only as the
//!    engine's cost-cap fallback. Labels stay canonically equal to the BFS
//!    labeling of a fresh build.
//! 3. **Coverage.** Per-client *cover counts* (how many counting routers
//!    reach each client) are maintained so a move only increments and
//!    decrements the moved router's old and new disks, flipping `covered`
//!    bits — and the covered total — exactly at 0↔1 transitions.
//!
//! Population-based methods (the GA) perturb **many** genes at once, so
//! [`apply_moves`] generalizes the same three steps to a batch: all
//! positions and grid buckets update first, then *one* repair pass — one
//! grid-local edge re-derivation per moved router, one connectivity
//! rebuild, one coverage delta over the moved disks (or one full in-place
//! pass when the fallback below triggers). Combined with the
//! buffer-reusing [`Clone::clone_from`], a GA child evaluates as "copy
//! parent state + apply the placement diff" instead of a full rebuild.
//!
//! ## Invariants
//!
//! * `positions`/`radii`/`router_index` agree at all times (the grid is
//!   relocated *before* edge repair).
//! * `adjacency` equals `MeshAdjacency::build` of the current positions;
//!   `components` equals `Components::from_adjacency(adjacency)`
//!   (canonical labels); `giant_mask[i] == components.in_giant(i)`.
//! * `cover_count[c]` equals the number of counting routers whose disk
//!   holds client `c`; `covered[c] == (cover_count[c] > 0)`;
//!   `covered_count` equals the number of set bits.
//!
//! ## When the full-rebuild fallback triggers
//!
//! Under [`CoverageRule::GiantComponentOnly`], a changed edge set can flip
//! the giant-component membership of routers that did not move; their disks
//! would all need re-counting, so when any **non-moved** router's
//! membership changes, coverage falls back to the one full
//! [`recompute`](WmnTopology::rebuild_full)-style pass (still in place, no
//! allocation). Under [`CoverageRule::AnyRouter`] membership is irrelevant
//! and the delta path always applies. [`set_connectivity_mode`] with
//! [`ConnectivityMode::FullRebuild`] disables the incremental engine
//! wholesale — every move then runs
//! [`rebuild_full`](WmnTopology::rebuild_full) — which is the reference
//! baseline the equivalence tests and the `ablation_move_eval` bench
//! compare against.
//!
//! [`move_router`]: WmnTopology::move_router
//! [`swap_routers`]: WmnTopology::swap_routers
//! [`apply_moves`]: WmnTopology::apply_moves
//! [`set_connectivity_mode`]: WmnTopology::set_connectivity_mode
//! [`DynamicConnectivity`]: crate::connectivity::DynamicConnectivity
//! [`DynamicGrid`]: crate::spatial::DynamicGrid

use crate::adjacency::{LinkModel, MeshAdjacency};
use crate::arena::NeighborSlab;
use crate::components::Components;
use crate::connectivity::{ConnectivityStats, DynamicConnectivity, RepairOutcome};
use crate::dsu::UnionFind;
use crate::spatial::{DynamicGrid, GridIndex};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

use wmn_model::geometry::{Area, Point};
use wmn_model::instance::ProblemInstance;
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;
use wmn_obs::{ApplyPhases, EngineStats, TopologyStats};

/// Which routers count for client coverage.
///
/// The paper defines user coverage as clients "connected to the WMN"; the
/// operational mesh is the giant component, hence the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum CoverageRule {
    /// A client is covered iff it lies within the radius of at least one
    /// router belonging to the **giant component**.
    #[default]
    GiantComponentOnly,
    /// A client is covered iff it lies within the radius of **any** router.
    AnyRouter,
}

impl fmt::Display for CoverageRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageRule::GiantComponentOnly => write!(f, "giant-component-only"),
            CoverageRule::AnyRouter => write!(f, "any-router"),
        }
    }
}

/// How a topology repairs connectivity (components + giant) after each
/// move, swap, or batch application. Both strategies produce
/// **bit-identical** state (pinned by the equivalence and proptest
/// suites); they differ only in cost, and the non-default one exists as
/// the reference oracle and bench baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ConnectivityMode {
    /// Component-local dynamic repair (the default): the edge diff of the
    /// grid-local edge repair drives [`DynamicConnectivity`] — insertions
    /// are pure DSU unions over component ids, deletions run a bounded
    /// bidirectional component-local BFS, and the whole-graph rescan
    /// ([`Components::rebuild_incremental`]) remains only as the engine's
    /// cost-cap fallback.
    #[default]
    Dynamic,
    /// Full rebuild of grid, adjacency, components, and coverage on every
    /// move ([`WmnTopology::rebuild_full`]) — the reference baseline.
    FullRebuild,
}

impl fmt::Display for ConnectivityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectivityMode::Dynamic => write!(f, "dynamic"),
            ConnectivityMode::FullRebuild => write!(f, "full-rebuild"),
        }
    }
}

/// Link model + coverage rule: everything configurable about how a
/// placement is turned into a network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TopologyConfig {
    /// Router–router link rule.
    pub link_model: LinkModel,
    /// Client coverage rule.
    pub coverage_rule: CoverageRule,
}

impl TopologyConfig {
    /// The calibrated reproduction configuration: **mutual-range** links
    /// (`d <= min(r_i, r_j)` — a bidirectional link needs both endpoints in
    /// range) and giant-component-only client coverage.
    ///
    /// Mutual range, not disk overlap, is what reproduces the paper's
    /// regime: its standalone giant components are small for *every* ad hoc
    /// method (3–26 of 64), which only holds under a link rule strict
    /// enough that regular patterns at 3–9 unit spacing do not trivially
    /// chain together.
    pub fn paper_default() -> Self {
        TopologyConfig {
            link_model: LinkModel::MutualRange,
            coverage_rule: CoverageRule::GiantComponentOnly,
        }
    }
}

/// A materialized network: mesh adjacency, components, and client coverage
/// for one (instance, placement) pair.
///
/// # Examples
///
/// ```
/// use wmn_graph::topology::{TopologyConfig, WmnTopology};
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let mut rng = rng_from_seed(2);
/// let placement = instance.random_placement(&mut rng);
///
/// let topo = WmnTopology::build(&instance, &placement, TopologyConfig::paper_default())?;
/// assert!(topo.giant_size() >= 1);
/// assert!(topo.covered_count() <= instance.client_count());
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct WmnTopology {
    area: Area,
    config: TopologyConfig,
    positions: Vec<Point>,
    radii: Vec<f64>,
    max_radius: f64,
    /// Client-side spatial index. Clients never move, so the index is
    /// shared (`Arc`) between topologies of the same instance — state
    /// copies between population-pool members are a pointer clone.
    client_index: Arc<GridIndex>,
    /// Router-side mutable grid, kept in sync with `positions` on every
    /// move/swap so edge repair queries only nearby routers.
    router_index: DynamicGrid,
    adjacency: MeshAdjacency,
    components: Components,
    /// `giant_mask[i] == components.in_giant(i)`, maintained so the
    /// coverage delta can see *previous* membership during a move.
    giant_mask: Vec<bool>,
    /// Per-client count of counting routers whose disk holds the client.
    cover_count: Vec<u32>,
    covered: Vec<bool>,
    covered_count: usize,
    /// Per-router disk cache: the clients inside router `i`'s disk. Two
    /// invariants make coverage repair mostly query-free:
    ///
    /// * if router `i` is currently *counted* (its disk contributes to
    ///   `cover_count`), `disk_clients[i]` holds exactly the counted set —
    ///   so removals never re-query the client grid;
    /// * if `disk_cached[i]` is set, `disk_clients[i]` equals the clients
    ///   within `radii[i]` of the *current* `positions[i]` — so re-adding
    ///   an unmoved router's disk (a giant-membership flip) is free. The
    ///   bit is cleared whenever the router's position changes.
    ///
    /// The per-router client lists live in a [`NeighborSlab`] arena (u32
    /// client ids, one flat element array — see the
    /// [`arena`](crate::arena) module docs), so the population-pool state
    /// copy is a handful of bulk copies instead of one `Vec` clone per
    /// router.
    disk_clients: NeighborSlab,
    disk_cached: Vec<bool>,
    /// Connectivity repair strategy (see [`ConnectivityMode`]).
    connectivity_mode: ConnectivityMode,
    scratch: MoveScratch,
}

/// Reusable per-move scratch state; all buffers reach steady-state capacity
/// after a handful of moves, making the hot loop allocation-free.
#[derive(Debug, Clone, Default)]
struct MoveScratch {
    uf: UnionFind,
    label_of_root: Vec<u32>,
    old_a: Vec<u32>,
    new_a: Vec<u32>,
    old_b: Vec<u32>,
    new_b: Vec<u32>,
    mask: Vec<bool>,
    batch: Vec<BatchEntry>,
    /// Epoch-stamped batch-membership marks: router `i` belongs to the
    /// current batch iff `moved_stamp[i] == move_epoch`. Starting a batch
    /// bumps the epoch instead of clearing the array (an O(n) fill only on
    /// the u32 wrap, every ~4 billion batches).
    moved_stamp: Vec<u32>,
    move_epoch: u32,
    /// Reusable disk-query buffer for cache-miss fills of the disk slab.
    disk_buf: Vec<u32>,
    /// The dynamic connectivity engine (pure scratch: component state
    /// lives in `components`, so copies never need to synchronize it).
    conn: DynamicConnectivity,
    /// Edge insert/delete streams of the current repair, produced by the
    /// old-vs-new neighbor diffs of the grid-local edge repair.
    ins_events: Vec<(u32, u32)>,
    del_events: Vec<(u32, u32)>,
    /// Always-on work counters of the delta-evaluation engine. Scratch,
    /// like the connectivity engine's: zeroed by `clone`, kept running by
    /// `clone_from` (so per-slot totals accumulate across a GA run).
    counters: TopologyStats,
    /// Per-phase buckets partitioning the batch-repair engine work
    /// (edge repair / component repair / coverage, see [`ApplyPhases`]);
    /// scratch like `counters`, and always-on for the same reason: the
    /// buckets are snapshots of counters the engine maintains anyway.
    phases: ApplyPhases,
}

/// One unique moved router of a batch application
/// ([`WmnTopology::apply_moves`]): whether its disk counted toward
/// coverage before and after the repair (its pre-batch counted client set
/// survives in the disk cache, so no pre-batch position is needed).
#[derive(Debug, Clone, Copy)]
struct BatchEntry {
    router: u32,
    counted_before: bool,
    counted_after: bool,
}

impl Clone for WmnTopology {
    fn clone(&self) -> Self {
        // Scratch state is not copied.
        WmnTopology {
            area: self.area,
            config: self.config,
            positions: self.positions.clone(),
            radii: self.radii.clone(),
            max_radius: self.max_radius,
            client_index: self.client_index.clone(),
            router_index: self.router_index.clone(),
            adjacency: self.adjacency.clone(),
            components: self.components.clone(),
            giant_mask: self.giant_mask.clone(),
            cover_count: self.cover_count.clone(),
            covered: self.covered.clone(),
            covered_count: self.covered_count,
            disk_clients: self.disk_clients.clone(),
            disk_cached: self.disk_cached.clone(),
            connectivity_mode: self.connectivity_mode,
            scratch: MoveScratch::default(),
        }
    }

    /// Buffer-reusing state copy: `self` becomes an exact copy of `src`
    /// (scratch buffers are kept, they carry no observable state), reusing
    /// every allocation already held. This is the population-pool hot path:
    /// a GA child leases a topology, `clone_from`s its parent's, and
    /// repairs the placement delta through [`WmnTopology::apply_moves`] —
    /// no per-child topology allocation once the pool is warm.
    fn clone_from(&mut self, src: &Self) {
        self.scratch.counters.clone_from_reuses += 1;
        self.area = src.area;
        self.config = src.config;
        self.positions.clone_from(&src.positions);
        self.radii.clone_from(&src.radii);
        self.max_radius = src.max_radius;
        // Pointer copy: the client index is immutable and shared.
        self.client_index = Arc::clone(&src.client_index);
        self.router_index.clone_from(&src.router_index);
        self.adjacency.clone_from(&src.adjacency);
        self.components.clone_from(&src.components);
        self.giant_mask.clone_from(&src.giant_mask);
        self.cover_count.clone_from(&src.cover_count);
        self.covered.clone_from(&src.covered);
        self.covered_count = src.covered_count;
        self.disk_clients.clone_from(&src.disk_clients);
        self.disk_cached.clone_from(&src.disk_cached);
        self.connectivity_mode = src.connectivity_mode;
    }
}

impl WmnTopology {
    /// Builds the topology for `instance` with routers at `placement`.
    ///
    /// # Errors
    ///
    /// Propagates placement validation
    /// ([`ModelError`](wmn_model::ModelError)) — length mismatch or
    /// out-of-area positions.
    pub fn build(
        instance: &ProblemInstance,
        placement: &Placement,
        config: TopologyConfig,
    ) -> Result<WmnTopology, wmn_model::ModelError> {
        instance.validate_placement(placement)?;
        let area = instance.area();
        let positions: Vec<Point> = placement.as_slice().to_vec();
        let positions_len = positions.len();
        let radii: Vec<f64> = instance
            .routers()
            .iter()
            .map(|r| r.current_radius())
            .collect();
        let clients = instance.client_positions();
        // The id-width invariant: router and client ids are u32 throughout
        // the arena-backed storage (adjacency, disk caches, edge streams).
        if positions_len >= u32::MAX as usize || clients.len() >= u32::MAX as usize {
            return Err(wmn_model::ModelError::InvalidSpec {
                reason: format!(
                    "instance exceeds the u32 id space: {} routers / {} clients \
                     (at most {} of each supported)",
                    positions_len,
                    clients.len(),
                    u32::MAX - 1
                ),
            });
        }
        let max_radius = radii.iter().copied().fold(1.0_f64, f64::max);
        let client_index = Arc::new(GridIndex::build(&area, &clients, max_radius));
        let mut router_index =
            DynamicGrid::new(&area, config.link_model.grid_cell_size(max_radius));
        router_index.rebuild(&positions);
        let adjacency = MeshAdjacency::build(&area, &positions, &radii, config.link_model);
        let components = Components::from_adjacency(&adjacency);
        let mut topo = WmnTopology {
            area,
            config,
            positions,
            radii,
            max_radius,
            client_index,
            router_index,
            adjacency,
            components,
            giant_mask: Vec::new(),
            cover_count: vec![0; clients.len()],
            covered: vec![false; clients.len()],
            covered_count: 0,
            disk_clients: NeighborSlab::with_nodes(positions_len),
            disk_cached: vec![false; positions_len],
            connectivity_mode: ConnectivityMode::default(),
            scratch: MoveScratch::default(),
        };
        topo.refresh_giant_mask();
        topo.recompute_coverage();
        Ok(topo)
    }

    /// Repositions every router according to `placement` (which must have
    /// the right length and lie inside the area — callers validate against
    /// the instance) and rebuilds all derived state **in place**, reusing
    /// every buffer. This is the workspace path behind
    /// `Evaluator::evaluate_with`: evaluating a stream of unrelated
    /// placements without re-allocating a topology per candidate.
    ///
    /// # Panics
    ///
    /// Panics if `placement.len()` differs from the router count.
    pub fn reset_placement(&mut self, placement: &Placement) {
        assert_eq!(
            placement.len(),
            self.positions.len(),
            "placement length must match router count"
        );
        self.scratch.counters.full_rebuilds += 1;
        self.positions.copy_from_slice(placement.as_slice());
        self.disk_cached.fill(false);
        self.router_index.rebuild(&self.positions);
        self.adjacency.rebuild_in_place(
            &self.positions,
            &self.radii,
            self.config.link_model,
            &self.router_index,
        );
        self.components.rebuild_incremental(
            &self.adjacency,
            &mut self.scratch.uf,
            &mut self.scratch.label_of_root,
        );
        self.refresh_giant_mask();
        self.recompute_coverage();
    }

    /// The active configuration.
    pub fn config(&self) -> TopologyConfig {
        self.config
    }

    /// The deployment area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.covered.len()
    }

    /// Current position of router `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn position(&self, id: RouterId) -> Point {
        self.positions[id.index()]
    }

    /// Current radius of router `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn radius(&self, id: RouterId) -> f64 {
        self.radii[id.index()]
    }

    /// All current router positions, as a [`Placement`].
    pub fn placement(&self) -> Placement {
        Placement::from_points(self.positions.clone())
    }

    /// The router mesh adjacency.
    pub fn adjacency(&self) -> &MeshAdjacency {
        &self.adjacency
    }

    /// The component structure.
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// Size of the giant component — the paper's connectivity objective.
    pub fn giant_size(&self) -> usize {
        self.components.giant_size()
    }

    /// Number of covered clients — the paper's user-coverage objective.
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Per-client coverage mask.
    pub fn covered_mask(&self) -> &[bool] {
        &self.covered
    }

    /// The client positions this topology was built against (fixed per
    /// instance). Lets workspace reuse verify a topology still matches an
    /// instance without rebuilding.
    pub fn client_points(&self) -> &[Point] {
        self.client_index.points()
    }

    /// Returns `true` if router `id` is in the giant component.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn in_giant(&self, id: RouterId) -> bool {
        self.components.in_giant(id.index())
    }

    /// Selects the connectivity repair strategy (see [`ConnectivityMode`]):
    /// under [`ConnectivityMode::FullRebuild`] every
    /// [`move_router`](WmnTopology::move_router) /
    /// [`swap_routers`](WmnTopology::swap_routers) /
    /// [`apply_moves`](WmnTopology::apply_moves) runs
    /// [`rebuild_full`](WmnTopology::rebuild_full) instead of the delta
    /// path. Results are bit-identical in every mode (verified by the
    /// equivalence suites); the `ablation_move_eval` bench measures the
    /// gap. The mode travels with state copies ([`Clone::clone_from`]), so
    /// a population pool seeded from pinned parents stays pinned.
    pub fn set_connectivity_mode(&mut self, mode: ConnectivityMode) {
        self.connectivity_mode = mode;
    }

    /// The active connectivity repair strategy.
    pub fn connectivity_mode(&self) -> ConnectivityMode {
        self.connectivity_mode
    }

    /// Cumulative counters of this topology's dynamic connectivity engine
    /// (zeroed on construction and on `clone`; scratch state, so
    /// `clone_from` leaves them running).
    pub fn connectivity_stats(&self) -> ConnectivityStats {
        self.scratch.conn.stats()
    }

    /// The unified work profile of this topology's evaluation engine:
    /// topology-level counters (moves, coverage strategy, disk caches)
    /// plus the connectivity engine's. Like
    /// [`connectivity_stats`](WmnTopology::connectivity_stats), the
    /// counters are scratch state — zeroed on construction and `clone`,
    /// kept running by `clone_from` — and deterministic for a fixed seed
    /// at any thread count.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats::new(self.scratch.counters, self.scratch.conn.stats())
    }

    /// The per-phase buckets partitioning the engine work done *inside*
    /// batch repairs ([`apply_moves`](WmnTopology::apply_moves) with ≥ 2
    /// distinct routers): edge repair, component repair, coverage, and
    /// the `FullRebuild`-mode escape hatch. Buckets are scratch state
    /// with the same lifecycle as
    /// [`engine_stats`](WmnTopology::engine_stats) — zeroed on
    /// construction and `clone`, kept running by `clone_from` — and
    /// always sum to at most the engine-stats totals; the difference is
    /// work done outside batch repairs (single moves, `clone_from` copies,
    /// `reset_placement`).
    pub fn apply_phases(&self) -> ApplyPhases {
        self.scratch.phases
    }

    /// Zeroes every engine counter (topology and connectivity) and the
    /// per-phase batch-repair buckets, starting a fresh measurement
    /// window — per-generation or per-phase deltas without lifetime
    /// bookkeeping.
    pub fn reset_engine_stats(&mut self) {
        self.scratch.counters.reset();
        self.scratch.conn.reset_stats();
        self.scratch.phases.reset();
    }

    /// Test hook: overrides the dynamic engine's per-deletion edge-visit
    /// budget (`None` restores the default; `Some(0)` forces the
    /// whole-graph rescan fallback on every deletion that requires a
    /// search — see [`DynamicConnectivity::set_cost_cap`]). The override
    /// is scratch state: `clone` starts without it and `clone_from` does
    /// not copy it.
    #[doc(hidden)]
    pub fn set_fallback_cap_for_tests(&mut self, cap: Option<usize>) {
        self.scratch.conn.set_cost_cap(cap);
    }

    /// Whether router `i`'s disk currently counts toward client coverage,
    /// per the *current* `giant_mask`.
    #[inline]
    fn is_counted(&self, i: usize) -> bool {
        match self.config.coverage_rule {
            CoverageRule::GiantComponentOnly => self.giant_mask[i],
            CoverageRule::AnyRouter => true,
        }
    }

    fn refresh_giant_mask(&mut self) {
        let n = self.positions.len();
        self.giant_mask.clear();
        self.giant_mask
            .extend((0..n).map(|i| self.components.in_giant(i)));
    }

    /// Adds router `i`'s disk (at its **current** position) to the
    /// per-client cover counts, flipping `covered` bits and the covered
    /// total at 0→1 transitions. Uses the positionally-valid disk cache
    /// when available and (re)fills it otherwise, so re-adding an unmoved
    /// router's disk — a giant-membership flip — performs no grid query.
    fn disk_add(&mut self, i: usize) {
        self.disk_add_from(i, None);
    }

    /// [`disk_add`](WmnTopology::disk_add) with a donor: on a cache miss,
    /// a donor topology holding router `i` at the **same position** (same
    /// instance — the caller verifies the shared client index) donates its
    /// cached disk instead of a grid query. This is the crossover-child
    /// path: a moved gene's target position is verbatim the other parent's,
    /// whose cache holds exactly the right client set.
    fn disk_add_from(&mut self, i: usize, donor: Option<&WmnTopology>) {
        let WmnTopology {
            client_index,
            cover_count,
            covered,
            covered_count,
            positions,
            radii,
            disk_clients,
            disk_cached,
            scratch,
            ..
        } = self;
        if !disk_cached[i] {
            match donor.filter(|d| d.disk_cached[i] && d.positions[i] == positions[i]) {
                Some(d) => {
                    scratch.counters.disk_cache_grafts += 1;
                    disk_clients.assign(i, d.disk_clients.get(i));
                }
                None => {
                    scratch.counters.disk_grid_queries += 1;
                    client_index.within_radius_into(positions[i], radii[i], &mut scratch.disk_buf);
                    disk_clients.assign(i, &scratch.disk_buf);
                }
            }
            disk_cached[i] = true;
        } else {
            scratch.counters.disk_cache_hits += 1;
        }
        for &c in disk_clients.get(i) {
            let c = c as usize;
            cover_count[c] += 1;
            if cover_count[c] == 1 {
                covered[c] = true;
                *covered_count += 1;
            }
        }
    }

    /// Removes router `i`'s **counted** disk from the per-client cover
    /// counts through the disk cache — no grid query, no distance checks
    /// (the counted-disk invariant guarantees the cache holds exactly the
    /// counted set, even after the router has moved).
    fn disk_remove(&mut self, i: usize) {
        let WmnTopology {
            cover_count,
            covered,
            covered_count,
            disk_clients,
            ..
        } = self;
        for &c in disk_clients.get(i) {
            let c = c as usize;
            debug_assert!(cover_count[c] > 0, "cover count underflow");
            cover_count[c] -= 1;
            if cover_count[c] == 0 {
                covered[c] = false;
                *covered_count -= 1;
            }
        }
    }

    /// Full coverage recomputation, in place: rebuilds cover counts, the
    /// covered mask, and the covered total (maintained incrementally as
    /// bits flip — no trailing count scan) from the current `giant_mask`,
    /// re-querying only routers whose disk cache is positionally stale.
    fn recompute_coverage(&mut self) {
        self.recompute_coverage_from(None);
    }

    /// [`recompute_coverage`](WmnTopology::recompute_coverage) with an
    /// optional disk-cache donor (see
    /// [`apply_moves_from`](WmnTopology::apply_moves_from)).
    fn recompute_coverage_from(&mut self, donor: Option<&WmnTopology>) {
        self.scratch.counters.coverage_full_recomputes += 1;
        self.cover_count.fill(0);
        self.covered.fill(false);
        self.covered_count = 0;
        for i in 0..self.positions.len() {
            if self.is_counted(i) {
                self.disk_add_from(i, donor);
            }
        }
    }

    /// Re-derives router `i`'s edges from the router-side grid, writing the
    /// previous (sorted) neighbor set into `old` and the new one into
    /// `new`. Allocation-free once the buffers are warm.
    fn recompute_router_edges_into(&mut self, i: usize, old: &mut Vec<u32>, new: &mut Vec<u32>) {
        old.clear();
        old.extend_from_slice(self.adjacency.neighbors(i));
        new.clear();
        let model = self.config.link_model;
        let pi = self.positions[i];
        let ri = self.radii[i];
        let query_r = model.max_link_range(ri, self.max_radius);
        let positions = &self.positions;
        let radii = &self.radii;
        self.router_index.for_each_candidate(pi, query_r, |j| {
            if j == i {
                return;
            }
            let d2 = pi.distance_squared(positions[j]);
            if model.links(d2, ri, radii[j]) {
                new.push(j as u32);
            }
        });
        new.sort_unstable();
        // Unchanged lists skip the slab entirely; changed ones pay only for
        // the edge delta (the merge-diff inside `replace_node_edges`).
        if old != new {
            self.adjacency.replace_node_edges(i, old, new);
        }
    }

    /// Resets the per-repair edge-event streams; every mutation entry
    /// point calls this before its first edge repair so stale events can
    /// never leak across operations (or across mode switches).
    fn begin_edge_recording(&mut self) {
        self.scratch.ins_events.clear();
        self.scratch.del_events.clear();
    }

    /// Records the edge insert/delete events implied by one router's
    /// old-vs-new sorted neighbor lists (a linear merge-diff), feeding the
    /// dynamic connectivity engine.
    fn record_edge_diff(&mut self, i: usize, old: &[u32], new: &[u32]) {
        let MoveScratch {
            ins_events,
            del_events,
            ..
        } = &mut self.scratch;
        let i = i as u32;
        let (mut a, mut b) = (0usize, 0usize);
        loop {
            match (old.get(a), new.get(b)) {
                (Some(&x), Some(&y)) if x == y => {
                    a += 1;
                    b += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    del_events.push((i, x));
                    a += 1;
                }
                (Some(_), Some(&y)) => {
                    ins_events.push((i, y));
                    b += 1;
                }
                (Some(&x), None) => {
                    del_events.push((i, x));
                    a += 1;
                }
                (None, Some(&y)) => {
                    ins_events.push((i, y));
                    b += 1;
                }
                (None, None) => break,
            }
        }
    }

    /// Repairs `components` for the current adjacency component-locally
    /// through the dynamic engine, consuming the recorded edge events.
    /// Returns `true` when the component partition is **provably
    /// unchanged** (the engine's [`RepairOutcome::Unchanged`]) — the giant
    /// mask is then current as-is and the membership-diff pass can be
    /// skipped.
    fn repair_components(&mut self) -> bool {
        let MoveScratch {
            uf,
            label_of_root,
            conn,
            ins_events,
            del_events,
            ..
        } = &mut self.scratch;
        conn.apply_edge_diff(
            &self.adjacency,
            &mut self.components,
            ins_events,
            del_events,
            uf,
            label_of_root,
        ) == RepairOutcome::Unchanged
    }

    /// Repairs components and writes the fresh giant mask into
    /// `scratch.mask`. Returns `true` when any router
    /// **other than** `moved_a`/`moved_b` changed giant membership — the
    /// coverage fallback trigger.
    fn rebuild_components_incremental(&mut self, moved_a: usize, moved_b: usize) -> bool {
        let unchanged = self.repair_components();
        let mask = &mut self.scratch.mask;
        if unchanged {
            // Partition untouched: the mask is the current one, no
            // membership diff to scan for.
            mask.clone_from(&self.giant_mask);
            return false;
        }
        let n = self.positions.len();
        mask.clear();
        let mut others_changed = false;
        for (j, &was) in self.giant_mask.iter().enumerate().take(n) {
            let is = self.components.in_giant(j);
            mask.push(is);
            if is != was && j != moved_a && j != moved_b {
                others_changed = true;
            }
        }
        others_changed
    }

    /// Moves router `id` to `new_position` and repairs the network
    /// incrementally ("re-establish mesh nodes network connections"):
    /// grid-local edge repair, scratch-buffer connectivity, and delta
    /// coverage — see the module docs for the invariants and when the full
    /// fallback triggers.
    ///
    /// Returns the previous position, so callers can undo the move by
    /// moving back.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range. The position is clamped into the
    /// deployment area.
    pub fn move_router(&mut self, id: RouterId, new_position: Point) -> Point {
        self.scratch.counters.single_moves += 1;
        let i = id.index();
        let old = self.positions[i];
        let new = self.area.clamp_point(new_position);
        self.positions[i] = new;
        self.disk_cached[i] = false;
        self.router_index.relocate(i, old, new);
        if self.connectivity_mode == ConnectivityMode::FullRebuild {
            self.rebuild_full();
            return old;
        }

        self.begin_edge_recording();
        let mut old_n = std::mem::take(&mut self.scratch.old_a);
        let mut new_n = std::mem::take(&mut self.scratch.new_a);
        self.recompute_router_edges_into(i, &mut old_n, &mut new_n);
        self.record_edge_diff(i, &old_n, &new_n);
        let links_changed = old_n != new_n;
        self.scratch.old_a = old_n;
        self.scratch.new_a = new_n;

        if !links_changed {
            // Identical graph ⇒ identical components and membership; only
            // the moved disk needs re-counting.
            self.scratch.counters.link_noop_repairs += 1;
            if self.is_counted(i) {
                self.disk_remove(i);
                self.disk_add(i);
            }
            return old;
        }

        let counted_before = self.is_counted(i);
        let others_changed = self.rebuild_components_incremental(i, i);
        match self.config.coverage_rule {
            CoverageRule::AnyRouter => {
                self.scratch.counters.coverage_delta_repairs += 1;
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                self.disk_remove(i);
                self.disk_add(i);
            }
            CoverageRule::GiantComponentOnly if others_changed => {
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                self.recompute_coverage();
            }
            CoverageRule::GiantComponentOnly => {
                self.scratch.counters.coverage_delta_repairs += 1;
                let counted_after = self.scratch.mask[i];
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                if counted_before {
                    self.disk_remove(i);
                }
                if counted_after {
                    self.disk_add(i);
                }
            }
        }
        old
    }

    /// Exchanges the positions of two routers (the paper's swap movement)
    /// and repairs the network incrementally, exactly like
    /// [`move_router`](WmnTopology::move_router) but with two moved disks.
    /// Swapping a router with itself is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap_routers(&mut self, a: RouterId, b: RouterId) {
        if a == b {
            return;
        }
        self.scratch.counters.swaps += 1;
        let (ia, ib) = (a.index(), b.index());
        let (pa, pb) = (self.positions[ia], self.positions[ib]);
        self.positions.swap(ia, ib);
        self.disk_cached[ia] = false;
        self.disk_cached[ib] = false;
        self.router_index.relocate(ia, pa, pb);
        self.router_index.relocate(ib, pb, pa);
        if self.connectivity_mode == ConnectivityMode::FullRebuild {
            self.rebuild_full();
            return;
        }

        self.begin_edge_recording();
        let mut old_a = std::mem::take(&mut self.scratch.old_a);
        let mut new_a = std::mem::take(&mut self.scratch.new_a);
        let mut old_b = std::mem::take(&mut self.scratch.old_b);
        let mut new_b = std::mem::take(&mut self.scratch.new_b);
        self.recompute_router_edges_into(ia, &mut old_a, &mut new_a);
        self.record_edge_diff(ia, &old_a, &new_a);
        self.recompute_router_edges_into(ib, &mut old_b, &mut new_b);
        self.record_edge_diff(ib, &old_b, &new_b);
        // If `ia`'s repair was a no-op, `old_b` reflects the pre-swap graph,
        // so both comparisons together certify the graph is unchanged.
        let links_changed = old_a != new_a || old_b != new_b;
        self.scratch.old_a = old_a;
        self.scratch.new_a = new_a;
        self.scratch.old_b = old_b;
        self.scratch.new_b = new_b;

        // Radii travel with the router id: `a` now sits at `pb`, `b` at
        // `pa`; each disk cache still holds its router's pre-swap counted
        // set, so removals stay query-free.
        if !links_changed {
            self.scratch.counters.link_noop_repairs += 1;
            if self.is_counted(ia) {
                self.disk_remove(ia);
                self.disk_add(ia);
            }
            if self.is_counted(ib) {
                self.disk_remove(ib);
                self.disk_add(ib);
            }
            return;
        }

        let counted_before_a = self.is_counted(ia);
        let counted_before_b = self.is_counted(ib);
        let others_changed = self.rebuild_components_incremental(ia, ib);
        match self.config.coverage_rule {
            CoverageRule::AnyRouter => {
                self.scratch.counters.coverage_delta_repairs += 1;
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                self.disk_remove(ia);
                self.disk_add(ia);
                self.disk_remove(ib);
                self.disk_add(ib);
            }
            CoverageRule::GiantComponentOnly if others_changed => {
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                self.recompute_coverage();
            }
            CoverageRule::GiantComponentOnly => {
                self.scratch.counters.coverage_delta_repairs += 1;
                let counted_after_a = self.scratch.mask[ia];
                let counted_after_b = self.scratch.mask[ib];
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                if counted_before_a {
                    self.disk_remove(ia);
                }
                if counted_after_a {
                    self.disk_add(ia);
                }
                if counted_before_b {
                    self.disk_remove(ib);
                }
                if counted_after_b {
                    self.disk_add(ib);
                }
            }
        }
    }

    /// Writes the per-router relocations that morph this topology's current
    /// placement into `target` — one `(router, target position)` entry per
    /// router whose position differs — into `out` (cleared first). Feeding
    /// the result to [`apply_moves`](WmnTopology::apply_moves) is the
    /// delta-evaluation path for population-based search: a GA child is
    /// evaluated as "parent topology + diff" instead of a full rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the router count.
    pub fn diff_placement_into(&self, target: &Placement, out: &mut Vec<(RouterId, Point)>) {
        assert_eq!(
            target.len(),
            self.positions.len(),
            "target placement length must match router count"
        );
        out.clear();
        for (i, (cur, want)) in self.positions.iter().zip(target.as_slice()).enumerate() {
            if cur != want {
                out.push((RouterId(i), *want));
            }
        }
    }

    /// Applies a batch of router relocations with a **single** repair pass:
    /// all positions (clamped into the area) and grid buckets are updated
    /// first, then each unique moved router's edges are re-derived
    /// grid-locally, and connectivity + coverage are repaired **once** —
    /// instead of once per move as a [`move_router`](WmnTopology::move_router)
    /// loop would. This is the batch path population-based methods use for
    /// multi-gene deltas (GA crossover/mutation diffs).
    ///
    /// Semantics are exactly "set each listed router to its target
    /// position": later entries for the same router win, an empty batch is
    /// a no-op, and a single-entry batch delegates to `move_router` (so it
    /// keeps that path's early-outs). The resulting state is identical to a
    /// full rebuild at the final positions (pinned by tests); undoing is
    /// applying the inverse batch of previous positions.
    ///
    /// # Panics
    ///
    /// Panics if any router id is out of range.
    pub fn apply_moves(&mut self, moves: &[(RouterId, Point)]) {
        self.apply_moves_from(moves, None);
    }

    /// [`apply_moves`](WmnTopology::apply_moves) with a coverage **donor**:
    /// when a moved router's target position matches the donor's current
    /// position for the same router, the donor's cached disk is copied
    /// instead of re-queried from the client grid. This is the
    /// crossover-child evaluation path — the recombined genes' targets are
    /// verbatim the other parent's positions, so their disks come for
    /// free. A donor of a different instance (different client index or
    /// router count) is ignored; results are identical with or without a
    /// donor (pinned by tests), only the query count differs.
    ///
    /// # Panics
    ///
    /// Panics if any router id is out of range.
    pub fn apply_moves_from(&mut self, moves: &[(RouterId, Point)], donor: Option<&WmnTopology>) {
        let donor = donor.filter(|d| {
            // Same instance: the shared-Arc check catches topologies related
            // by adoption (the steady-state GA population); the structural
            // fallback admits independently built topologies of the same
            // instance (a first generation after `evaluate_initial`, or any
            // caller-assembled population), whose grafts are just as valid.
            (Arc::ptr_eq(&d.client_index, &self.client_index)
                || d.client_index == self.client_index)
                && d.positions.len() == self.positions.len()
                && d.radii == self.radii
        });
        match moves {
            [] => return,
            [(id, to)] => {
                self.move_router(*id, *to);
                return;
            }
            _ => {}
        }
        // Section boundaries of the phase buckets: every engine counter
        // incremented between two snapshots is attributed to the section
        // that ran in between (`scratch.phases`). The snapshots are Copy
        // struct reads, amortized over the whole batch repair.
        let section_start = self.engine_stats();
        // Record each unique moved router with its pre-batch position while
        // updating positions and grid buckets in order; the epoch-stamped
        // `moved_stamp` array is both the O(1) dedup test here and the
        // batch-membership mask the component rebuild reads later — a new
        // batch bumps `move_epoch` instead of clearing the stamps.
        let mut batch = std::mem::take(&mut self.scratch.batch);
        batch.clear();
        if self.scratch.moved_stamp.len() != self.positions.len() {
            self.scratch.moved_stamp.clear();
            self.scratch.moved_stamp.resize(self.positions.len(), 0);
            self.scratch.move_epoch = 0;
        }
        if self.scratch.move_epoch == u32::MAX {
            self.scratch.moved_stamp.fill(0);
            self.scratch.move_epoch = 0;
        }
        self.scratch.move_epoch += 1;
        let epoch = self.scratch.move_epoch;
        for &(id, to) in moves {
            let i = id.index();
            let old = self.positions[i];
            let new = self.area.clamp_point(to);
            self.positions[i] = new;
            self.disk_cached[i] = false;
            self.router_index.relocate(i, old, new);
            if self.scratch.moved_stamp[i] != epoch {
                self.scratch.moved_stamp[i] = epoch;
                batch.push(BatchEntry {
                    router: i as u32,
                    counted_before: false,
                    counted_after: false,
                });
            }
        }
        self.scratch.counters.batch_repairs += 1;
        self.scratch.counters.batch_moved_routers += batch.len() as u64;
        if self.connectivity_mode == ConnectivityMode::FullRebuild {
            self.scratch.batch = batch;
            self.rebuild_full();
            let delta = self.engine_stats().delta_since(&section_start);
            self.scratch.phases.full_rebuild.merge(&delta);
            return;
        }

        // One grid-local edge repair per unique moved router, against the
        // final positions. Any edge change is incident to a moved router
        // and shows up in at least one old-vs-new comparison (a repair by
        // an earlier-processed moved router that alters a later one's list
        // is caught by the earlier router's own comparison) — so the
        // recorded insert/delete streams carry each changed edge exactly
        // once.
        self.begin_edge_recording();
        let mut old_n = std::mem::take(&mut self.scratch.old_a);
        let mut new_n = std::mem::take(&mut self.scratch.new_a);
        let mut links_changed = false;
        for e in &batch {
            self.recompute_router_edges_into(e.router as usize, &mut old_n, &mut new_n);
            self.record_edge_diff(e.router as usize, &old_n, &new_n);
            links_changed |= old_n != new_n;
        }
        self.scratch.old_a = old_n;
        self.scratch.new_a = new_n;
        let after_edges = self.engine_stats();
        let edge_delta = after_edges.delta_since(&section_start);
        self.scratch.phases.edge_repair.merge(&edge_delta);

        if !links_changed {
            // Identical graph ⇒ identical components and membership; only
            // the moved disks need re-counting.
            self.scratch.counters.link_noop_repairs += 1;
            for &BatchEntry { router: i, .. } in &batch {
                let i = i as usize;
                if self.is_counted(i) {
                    self.disk_remove(i);
                    self.disk_add_from(i, donor);
                }
            }
            self.scratch.batch = batch;
            let delta = self.engine_stats().delta_since(&after_edges);
            self.scratch.phases.coverage.merge(&delta);
            return;
        }

        for e in &mut batch {
            e.counted_before = self.is_counted(e.router as usize);
        }
        let flipped_others = self.rebuild_components_incremental_batch();
        let after_components = self.engine_stats();
        let component_delta = after_components.delta_since(&after_edges);
        self.scratch.phases.component_repair.merge(&component_delta);
        match self.config.coverage_rule {
            CoverageRule::AnyRouter => {
                // Membership is irrelevant: only the moved disks changed.
                self.scratch.counters.coverage_delta_repairs += 1;
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                for &BatchEntry { router: i, .. } in &batch {
                    self.disk_remove(i as usize);
                    self.disk_add_from(i as usize, donor);
                }
            }
            CoverageRule::GiantComponentOnly => {
                for e in &mut batch {
                    e.counted_after = self.scratch.mask[e.router as usize];
                }
                // Disk-op budget of the exact delta repair (moved disks
                // plus the non-moved routers whose membership flipped) vs
                // the one full in-place pass (every counting router's
                // disk). Cover counts commute, so both paths land the
                // identical state; pick the cheaper one.
                let moved_ops: usize = batch
                    .iter()
                    .map(|e| usize::from(e.counted_before) + usize::from(e.counted_after))
                    .sum();
                let full_ops = self.components.giant_size();
                std::mem::swap(&mut self.giant_mask, &mut self.scratch.mask);
                if flipped_others + moved_ops <= full_ops {
                    self.scratch.counters.coverage_delta_repairs += 1;
                    // Exact delta: removals first, then additions (grouped
                    // passes; order is irrelevant for counts).
                    // `scratch.mask` holds the *previous* membership,
                    // `giant_mask` the new one. Removals and flip-offs run
                    // off the disk caches; flip-ons of never-moved routers
                    // usually hit a positionally-valid cache too.
                    for &e in &batch {
                        if e.counted_before {
                            self.disk_remove(e.router as usize);
                        }
                    }
                    if flipped_others > 0 {
                        let old_mask = std::mem::take(&mut self.scratch.mask);
                        let stamps = std::mem::take(&mut self.scratch.moved_stamp);
                        let epoch = self.scratch.move_epoch;
                        for j in 0..self.positions.len() {
                            if stamps[j] != epoch && old_mask[j] && !self.giant_mask[j] {
                                self.disk_remove(j);
                            }
                        }
                        for j in 0..self.positions.len() {
                            if stamps[j] != epoch && !old_mask[j] && self.giant_mask[j] {
                                self.disk_add(j);
                            }
                        }
                        self.scratch.mask = old_mask;
                        self.scratch.moved_stamp = stamps;
                    }
                    for &e in &batch {
                        if e.counted_after {
                            self.disk_add_from(e.router as usize, donor);
                        }
                    }
                } else {
                    self.recompute_coverage_from(donor);
                }
            }
        }
        self.scratch.batch = batch;
        let delta = self.engine_stats().delta_since(&after_components);
        self.scratch.phases.coverage.merge(&delta);
    }

    /// Like [`rebuild_components_incremental`]
    /// (WmnTopology::rebuild_components_incremental) but for a batch:
    /// returns how many routers **outside** the batch changed giant
    /// membership (the flip count steering the coverage-repair choice).
    /// Expects `scratch.moved_stamp` to carry the current `move_epoch` on
    /// exactly the batch's routers — the membership mask
    /// [`apply_moves`](WmnTopology::apply_moves) stamped while deduplicating.
    fn rebuild_components_incremental_batch(&mut self) -> usize {
        let unchanged = self.repair_components();
        let n = self.positions.len();
        let MoveScratch {
            mask,
            moved_stamp,
            move_epoch,
            ..
        } = &mut self.scratch;
        if unchanged {
            mask.clone_from(&self.giant_mask);
            return 0;
        }
        mask.clear();
        let mut flipped_others = 0;
        for (j, &was) in self.giant_mask.iter().enumerate().take(n) {
            let is = self.components.in_giant(j);
            mask.push(is);
            if is != was && moved_stamp[j] != *move_epoch {
                flipped_others += 1;
            }
        }
        flipped_others
    }

    /// Rebuilds the router grid, adjacency, components, and coverage from
    /// scratch. The reference path: tests, the `FullRebuild` baseline, and
    /// the `ablation_move_eval` bench run it to pin the incremental engine.
    pub fn rebuild_full(&mut self) {
        self.scratch.counters.full_rebuilds += 1;
        self.router_index.rebuild(&self.positions);
        self.adjacency = MeshAdjacency::build(
            &self.area,
            &self.positions,
            &self.radii,
            self.config.link_model,
        );
        self.components = Components::from_adjacency(&self.adjacency);
        self.refresh_giant_mask();
        self.recompute_coverage();
    }

    /// Debug helper: asserts the incremental state — adjacency, components,
    /// giant mask, cover counts, covered mask, covered total, and the
    /// router-side grid — equals a fresh rebuild.
    ///
    /// # Panics
    ///
    /// Panics when the incremental state has drifted from the ground truth.
    pub fn assert_consistent(&self) {
        self.router_index.assert_in_sync(&self.positions);
        // Arena invariants: span bounds, free-list integrity, and exact
        // tiling of the slab data for both neighbor storage arenas.
        self.adjacency.assert_arena_invariants();
        self.disk_clients.assert_invariants();
        // Disk-cache invariants: a positionally-valid cache — and any
        // counted router's cache — must hold exactly the clients of the
        // router's current disk.
        for i in 0..self.positions.len() {
            if !self.disk_cached[i] && !self.is_counted(i) {
                continue;
            }
            let mut expect: Vec<u32> = self
                .client_index
                .within_radius(self.positions[i], self.radii[i])
                .map(|c| c as u32)
                .collect();
            expect.sort_unstable();
            let mut got = self.disk_clients.get(i).to_vec();
            got.sort_unstable();
            assert_eq!(
                got, expect,
                "disk cache for router {i} drifted from its current disk"
            );
        }
        let mut fresh = self.clone();
        // Ground truth must not trust the caches it just copied.
        fresh.disk_cached.fill(false);
        fresh.rebuild_full();
        assert_eq!(
            self.adjacency, fresh.adjacency,
            "incremental adjacency drifted from full rebuild"
        );
        assert_eq!(
            self.components, fresh.components,
            "components drifted from full rebuild"
        );
        assert_eq!(
            self.giant_mask, fresh.giant_mask,
            "giant mask drifted from components"
        );
        assert_eq!(
            self.cover_count, fresh.cover_count,
            "cover counts drifted from full recompute"
        );
        assert_eq!(
            self.covered, fresh.covered,
            "covered mask drifted from full recompute"
        );
        assert_eq!(
            self.covered_count, fresh.covered_count,
            "covered total drifted from full recompute"
        );
    }
}

impl fmt::Display for WmnTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology[{} routers, {} links, giant {}, covered {}/{}]",
            self.router_count(),
            self.adjacency.edge_count(),
            self.giant_size(),
            self.covered_count,
            self.client_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wmn_model::instance::{InstanceBuilder, InstanceSpec};
    use wmn_model::radio::RadioProfile;
    use wmn_model::rng::rng_from_seed;

    fn paper_topology(seed: u64) -> (ProblemInstance, WmnTopology) {
        let instance = InstanceSpec::paper_normal()
            .unwrap()
            .generate(seed)
            .unwrap();
        let mut rng = rng_from_seed(seed ^ 0xABCD);
        let placement = instance.random_placement(&mut rng);
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        (instance, topo)
    }

    #[test]
    fn build_validates_placement() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let bad = Placement::from_points(vec![Point::new(1.0, 1.0)]);
        assert!(WmnTopology::build(&instance, &bad, TopologyConfig::default()).is_err());
    }

    #[test]
    fn counts_are_bounded() {
        let (instance, topo) = paper_topology(3);
        assert!(topo.giant_size() >= 1);
        assert!(topo.giant_size() <= instance.router_count());
        assert!(topo.covered_count() <= instance.client_count());
        assert_eq!(topo.router_count(), 64);
        assert_eq!(topo.client_count(), 192);
    }

    #[test]
    fn line_of_routers_is_fully_connected() {
        // 8 routers spaced 9 apart with radius 10: under the mutual-range
        // paper default a link needs d <= min(r_i, r_j) = 10 >= 9.
        let area = Area::square(100.0).unwrap();
        let prof = RadioProfile::fixed(10.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .routers(prof, 8)
            .client(Point::new(50.0, 4.0))
            .build()
            .unwrap();
        let placement: Placement = (0..8)
            .map(|i| Point::new(10.0 + 9.0 * i as f64, 5.0))
            .collect();
        let topo =
            WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
        assert_eq!(topo.giant_size(), 8);
        // The client at (50, 4) sits within 5 of the router at (46, 5).
        assert_eq!(topo.covered_count(), 1);
    }

    #[test]
    fn giant_only_rule_ignores_isolated_coverage() {
        // Two router clusters: a pair near origin (giant) and one isolated
        // router next to the only client.
        let area = Area::square(100.0).unwrap();
        let prof = RadioProfile::fixed(5.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .routers(prof, 3)
            .client(Point::new(90.0, 90.0))
            .build()
            .unwrap();
        let placement = Placement::from_points(vec![
            Point::new(10.0, 10.0),
            Point::new(15.0, 10.0),
            Point::new(88.0, 90.0),
        ]);
        let giant_only = WmnTopology::build(
            &instance,
            &placement,
            TopologyConfig {
                coverage_rule: CoverageRule::GiantComponentOnly,
                ..TopologyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(giant_only.giant_size(), 2);
        assert_eq!(
            giant_only.covered_count(),
            0,
            "isolated router's client must not count under giant-only"
        );

        let any = WmnTopology::build(
            &instance,
            &placement,
            TopologyConfig {
                coverage_rule: CoverageRule::AnyRouter,
                ..TopologyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(any.covered_count(), 1);
    }

    #[test]
    fn move_router_matches_full_rebuild() {
        let (_instance, mut topo) = paper_topology(7);
        let mut rng = rng_from_seed(99);
        for step in 0..25 {
            let id = RouterId(rng.gen_range(0..topo.router_count()));
            let p = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            topo.move_router(id, p);
            topo.assert_consistent();
            let incr = (topo.giant_size(), topo.covered_count());
            let mut fresh = topo.clone();
            fresh.rebuild_full();
            assert_eq!(
                incr,
                (fresh.giant_size(), fresh.covered_count()),
                "drift after step {step}"
            );
        }
    }

    #[test]
    fn move_router_returns_old_position_for_undo() {
        let (_instance, mut topo) = paper_topology(11);
        let before_giant = topo.giant_size();
        let before_cov = topo.covered_count();
        let before_pos = topo.position(RouterId(5));
        let old = topo.move_router(RouterId(5), Point::new(1.0, 1.0));
        assert_eq!(old, before_pos);
        topo.move_router(RouterId(5), old);
        assert_eq!(topo.giant_size(), before_giant);
        assert_eq!(topo.covered_count(), before_cov);
        assert_eq!(topo.position(RouterId(5)), before_pos);
    }

    #[test]
    fn move_router_clamps_into_area() {
        let (_instance, mut topo) = paper_topology(13);
        topo.move_router(RouterId(0), Point::new(-50.0, 500.0));
        let p = topo.position(RouterId(0));
        assert!(topo.area().contains(p));
        topo.assert_consistent();
    }

    #[test]
    fn swap_routers_matches_full_rebuild() {
        let (_instance, mut topo) = paper_topology(17);
        let mut rng = rng_from_seed(5);
        for _ in 0..20 {
            let a = RouterId(rng.gen_range(0..topo.router_count()));
            let b = RouterId(rng.gen_range(0..topo.router_count()));
            topo.swap_routers(a, b);
            topo.assert_consistent();
        }
    }

    #[test]
    fn swap_is_involutive_on_state() {
        let (_instance, mut topo) = paper_topology(19);
        let snapshot = (topo.giant_size(), topo.covered_count(), topo.placement());
        topo.swap_routers(RouterId(3), RouterId(40));
        topo.swap_routers(RouterId(3), RouterId(40));
        assert_eq!(
            (topo.giant_size(), topo.covered_count(), topo.placement()),
            snapshot
        );
    }

    #[test]
    fn swap_with_self_is_noop() {
        let (_instance, mut topo) = paper_topology(23);
        let snapshot = (topo.giant_size(), topo.covered_count());
        topo.swap_routers(RouterId(8), RouterId(8));
        assert_eq!((topo.giant_size(), topo.covered_count()), snapshot);
    }

    #[test]
    fn swap_exchanges_positions_not_radii() {
        // Radii stay with the router id; positions are exchanged.
        let (_instance, mut topo) = paper_topology(29);
        let (pa, pb) = (topo.position(RouterId(1)), topo.position(RouterId(2)));
        let (ra, rb) = (topo.radius(RouterId(1)), topo.radius(RouterId(2)));
        topo.swap_routers(RouterId(1), RouterId(2));
        assert_eq!(topo.position(RouterId(1)), pb);
        assert_eq!(topo.position(RouterId(2)), pa);
        assert_eq!(topo.radius(RouterId(1)), ra);
        assert_eq!(topo.radius(RouterId(2)), rb);
    }

    #[test]
    fn clustering_routers_improves_connectivity() {
        // Moving all routers into a tight cluster must yield a single
        // component of size N.
        let (instance, mut topo) = paper_topology(31);
        for i in 0..instance.router_count() {
            let angle = i as f64 * 0.7;
            // Circle of radius 1: every pairwise distance is at most the
            // diameter 2 <= min radius of the paper profile, so even under
            // the mutual-range rule the cluster is a clique.
            let p = Point::new(64.0 + angle.cos(), 64.0 + angle.sin());
            topo.move_router(RouterId(i), p);
        }
        assert_eq!(topo.giant_size(), instance.router_count());
    }

    #[test]
    fn display_summarizes_state() {
        let (_instance, topo) = paper_topology(37);
        let s = topo.to_string();
        assert!(s.contains("routers") && s.contains("giant"));
    }

    #[test]
    fn apply_moves_matches_full_rebuild() {
        let (_instance, mut topo) = paper_topology(41);
        let mut rng = rng_from_seed(7);
        for step in 0..20 {
            let k = rng.gen_range(2..20);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..topo.router_count())),
                        Point::new(rng.gen_range(-5.0..=133.0), rng.gen_range(-5.0..=133.0)),
                    )
                })
                .collect();
            topo.apply_moves(&moves);
            topo.assert_consistent();
            let mut fresh = topo.clone();
            fresh.rebuild_full();
            assert_eq!(
                (topo.giant_size(), topo.covered_count()),
                (fresh.giant_size(), fresh.covered_count()),
                "drift after batch {step}"
            );
        }
    }

    #[test]
    fn apply_moves_equals_sequential_single_moves() {
        let (_instance, mut batch) = paper_topology(43);
        let mut single = batch.clone();
        let mut rng = rng_from_seed(11);
        for _ in 0..10 {
            let k = rng.gen_range(2..12);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..batch.router_count())),
                        Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0)),
                    )
                })
                .collect();
            batch.apply_moves(&moves);
            for &(id, to) in &moves {
                single.move_router(id, to);
            }
            assert_eq!(batch.placement(), single.placement());
            assert_eq!(batch.giant_size(), single.giant_size());
            assert_eq!(batch.covered_count(), single.covered_count());
            assert_eq!(batch.covered_mask(), single.covered_mask());
        }
    }

    #[test]
    fn apply_moves_empty_is_noop_and_inverse_batch_undoes() {
        let (_instance, mut topo) = paper_topology(47);
        let before = (topo.giant_size(), topo.covered_count(), topo.placement());
        topo.apply_moves(&[]);
        assert_eq!(
            (topo.giant_size(), topo.covered_count(), topo.placement()),
            before
        );
        // Duplicate entries: later ones win; the inverse batch (unique
        // routers back to their pre-batch positions) restores the state.
        let undo: Vec<(RouterId, Point)> = [3usize, 9, 9, 21]
            .iter()
            .map(|&i| (RouterId(i), topo.position(RouterId(i))))
            .collect();
        let moves = vec![
            (RouterId(3), Point::new(1.0, 1.0)),
            (RouterId(9), Point::new(2.0, 2.0)),
            (RouterId(9), Point::new(100.0, 100.0)),
            (RouterId(21), Point::new(64.0, 64.0)),
        ];
        topo.apply_moves(&moves);
        topo.assert_consistent();
        assert_eq!(topo.position(RouterId(9)), Point::new(100.0, 100.0));
        topo.apply_moves(&undo);
        topo.assert_consistent();
        assert_eq!(
            (topo.giant_size(), topo.covered_count(), topo.placement()),
            before
        );
    }

    #[test]
    fn diff_then_apply_morphs_to_target() {
        let (instance, mut topo) = paper_topology(53);
        let mut rng = rng_from_seed(13);
        let mut moves = Vec::new();
        for _ in 0..5 {
            let target = instance.random_placement(&mut rng);
            topo.diff_placement_into(&target, &mut moves);
            topo.apply_moves(&moves);
            topo.assert_consistent();
            assert_eq!(topo.placement(), target);
            // A second diff against the reached target is empty.
            topo.diff_placement_into(&target, &mut moves);
            assert!(moves.is_empty());
        }
    }

    #[test]
    fn clone_from_copies_state_and_reuses_buffers() {
        let (instance, mut a) = paper_topology(59);
        let mut rng = rng_from_seed(17);
        // `b` starts from a different placement, then adopts `a`'s state.
        let other = instance.random_placement(&mut rng);
        let mut b = WmnTopology::build(&instance, &other, TopologyConfig::paper_default()).unwrap();
        a.move_router(RouterId(0), Point::new(64.0, 64.0));
        b.clone_from(&a);
        b.assert_consistent();
        assert_eq!(b.placement(), a.placement());
        assert_eq!(b.giant_size(), a.giant_size());
        assert_eq!(b.covered_count(), a.covered_count());
        // The copy is live: further moves keep it consistent independently.
        b.move_router(RouterId(5), Point::new(10.0, 10.0));
        b.assert_consistent();
        assert_ne!(b.placement(), a.placement());
        a.assert_consistent();
    }

    #[test]
    fn apply_moves_from_donor_matches_plain_apply() {
        // The crossover-child shape: move a block of routers onto another
        // live topology's exact positions, once with that topology as the
        // disk-cache donor and once without. State must be identical.
        let (instance, base) = paper_topology(67);
        let mut rng = rng_from_seed(23);
        let other_placement = instance.random_placement(&mut rng);
        let donor =
            WmnTopology::build(&instance, &other_placement, TopologyConfig::paper_default())
                .unwrap();
        let moves: Vec<(RouterId, Point)> = (0..24)
            .map(|i| (RouterId(i), donor.position(RouterId(i))))
            .collect();
        let mut with_donor = base.clone();
        with_donor.apply_moves_from(&moves, Some(&donor));
        with_donor.assert_consistent();
        let mut without = base.clone();
        without.apply_moves(&moves);
        assert_eq!(with_donor.placement(), without.placement());
        assert_eq!(with_donor.giant_size(), without.giant_size());
        assert_eq!(with_donor.covered_count(), without.covered_count());
        assert_eq!(with_donor.covered_mask(), without.covered_mask());
        // A donor from a different instance is ignored, not trusted.
        let foreign_instance = InstanceSpec::paper_normal().unwrap().generate(999).unwrap();
        let foreign_placement = foreign_instance.random_placement(&mut rng);
        let foreign = WmnTopology::build(
            &foreign_instance,
            &foreign_placement,
            TopologyConfig::paper_default(),
        )
        .unwrap();
        let mut guarded = base.clone();
        guarded.apply_moves_from(&moves, Some(&foreign));
        guarded.assert_consistent();
        assert_eq!(guarded.covered_count(), without.covered_count());
    }

    #[test]
    fn apply_moves_in_rebuild_mode_matches_incremental() {
        let (_instance, mut inc) = paper_topology(61);
        let mut reb = inc.clone();
        reb.set_connectivity_mode(ConnectivityMode::FullRebuild);
        let mut rng = rng_from_seed(19);
        for _ in 0..10 {
            let k = rng.gen_range(2..10);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..inc.router_count())),
                        Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0)),
                    )
                })
                .collect();
            inc.apply_moves(&moves);
            reb.apply_moves(&moves);
            assert_eq!(inc.placement(), reb.placement());
            assert_eq!(inc.giant_size(), reb.giant_size());
            assert_eq!(inc.covered_count(), reb.covered_count());
            assert_eq!(inc.covered_mask(), reb.covered_mask());
        }
    }

    #[test]
    fn engine_stats_count_the_work_actually_done() {
        let (_instance, mut topo) = paper_topology(23);
        let built = topo.engine_stats();
        // Construction recomputed coverage once, querying exactly the
        // counted (giant-member) routers' disks from the client grid.
        assert_eq!(built.topology.coverage_full_recomputes, 1);
        assert_eq!(built.topology.disk_grid_queries, topo.giant_size() as u64);
        assert_eq!(built.topology.single_moves, 0);

        let mut rng = rng_from_seed(5);
        for _ in 0..10 {
            let id = RouterId(rng.gen_range(0..topo.router_count()));
            let p = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            topo.move_router(id, p);
        }
        topo.swap_routers(RouterId(0), RouterId(1));
        let after = topo.engine_stats();
        assert_eq!(after.topology.single_moves, 10);
        assert_eq!(after.topology.swaps, 1);
        assert!(
            after.connectivity.repairs > 0,
            "dynamic mode must route repairs through the engine"
        );

        // `clone` starts a zeroed window; `clone_from` keeps counting and
        // records the buffer reuse.
        let mut copy = topo.clone();
        assert_eq!(copy.engine_stats(), EngineStats::default());
        copy.clone_from(&topo);
        assert_eq!(copy.engine_stats().topology.clone_from_reuses, 1);

        // A reset opens a fresh delta window on a live topology.
        topo.reset_engine_stats();
        assert_eq!(topo.engine_stats(), EngineStats::default());
        topo.move_router(RouterId(2), Point::new(64.0, 64.0));
        assert_eq!(topo.engine_stats().topology.single_moves, 1);
    }

    #[test]
    fn full_rebuild_mode_shows_up_in_the_counters() {
        let (_instance, mut topo) = paper_topology(29);
        topo.reset_engine_stats();
        topo.set_connectivity_mode(ConnectivityMode::FullRebuild);
        topo.move_router(RouterId(3), Point::new(10.0, 10.0));
        let stats = topo.engine_stats();
        assert_eq!(stats.topology.full_rebuilds, 1);
        assert_eq!(
            stats.connectivity.repairs, 0,
            "full rebuild must bypass the dynamic engine"
        );
    }

    #[test]
    fn apply_phases_partition_the_batch_repair_work() {
        let (_instance, mut topo) = paper_topology(41);
        topo.reset_engine_stats();
        let mut rng = rng_from_seed(11);
        for _ in 0..12 {
            let k = rng.gen_range(2..8);
            let moves: Vec<(RouterId, Point)> = (0..k)
                .map(|_| {
                    (
                        RouterId(rng.gen_range(0..topo.router_count())),
                        Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0)),
                    )
                })
                .collect();
            topo.apply_moves(&moves);
        }
        let totals = topo.engine_stats();
        let phases = topo.apply_phases();
        // Every move went through the batch path, so the buckets account
        // for all engine work; generally they only lower-bound it.
        assert_eq!(phases.attributed(), totals);
        assert_eq!(
            phases.edge_repair.topology.batch_repairs, 12,
            "batch bookkeeping lands in the edge-repair section"
        );
        assert!(phases.component_repair.connectivity.repairs > 0);
        assert!(
            phases.coverage.topology.disk_grid_queries > 0
                || phases.coverage.topology.disk_cache_hits > 0
        );
        assert_eq!(phases.full_rebuild, EngineStats::default());
        // Single moves bypass the batch pipeline: totals grow, buckets
        // don't — the residual is the caller's to attribute.
        topo.move_router(RouterId(0), Point::new(5.0, 5.0));
        assert_eq!(topo.apply_phases(), phases);
        assert_ne!(topo.engine_stats(), totals);
        // `reset_engine_stats` opens a fresh window for the buckets too.
        topo.reset_engine_stats();
        assert_eq!(topo.apply_phases(), ApplyPhases::default());
        // `FullRebuild` mode routes batch work into its escape bucket.
        topo.set_connectivity_mode(ConnectivityMode::FullRebuild);
        topo.apply_moves(&[
            (RouterId(1), Point::new(20.0, 20.0)),
            (RouterId(2), Point::new(30.0, 30.0)),
        ]);
        let phases = topo.apply_phases();
        assert_eq!(phases.full_rebuild.topology.full_rebuilds, 1);
        assert_eq!(phases.attributed(), topo.engine_stats());
    }
}

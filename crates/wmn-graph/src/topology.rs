//! The WMN topology: router mesh plus client attachment.
//!
//! [`WmnTopology`] is the evaluated "network state" behind every fitness
//! computation: given an instance and a placement it derives the
//! router–router mesh (mutual-range links, see [`adjacency::links`]),
//! its connected components, and which clients are covered — a client
//! counts when it lies within the radius of a router of the **giant
//! component**, the paper's operational mesh.
//!
//! # The delta-evaluation engine
//!
//! The paper's Algorithm 3 ends with *"re-establish mesh nodes network
//! connections"* after swapping two routers. Every position write —
//! [`move_router`] and [`swap_routers`] (the neighborhood-search hot loop
//! `propose → apply → evaluate → undo`) and [`apply_moves`] (the GA's
//! placement diffs, many routers at once) — first updates the moved
//! routers' positions and grid buckets, then runs **one repair pass**,
//! which is allocation-free once the calling thread's write scratch is
//! warm (see *Write scratch* below):
//!
//! 1. **Edges.** A router-side [`DynamicGrid`] is kept in sync with every
//!    write (one bucket relocation per moved router), so re-deriving a
//!    moved router's edges queries only nearby routers instead of scanning
//!    all *n*. Any changed edge is incident to a moved router, so one
//!    grid-local re-derivation per moved router finds every change.
//! 2. **Connectivity.** When no moved router's sorted neighbor set
//!    changed, the graph is identical and component work is skipped
//!    entirely (the *no-op early-out*; only the moved disks are
//!    re-counted). Otherwise the old-vs-new neighbor diffs become one edge
//!    insert/delete stream for the **dynamic connectivity engine**
//!    ([`DynamicConnectivity`], the default [`ConnectivityMode::Dynamic`]):
//!    one BFS over the new adjacency relabels the components holding an
//!    endpoint of a changed edge, and every other component is provably
//!    unchanged. Each component is labeled by its smallest router index,
//!    so the labels still equal a fresh build's. The engine reports the
//!    routers whose giant membership flipped, and coverage visits that
//!    list alone.
//! 3. **Coverage.** Per-client *cover counts* (how many giant routers
//!    reach each client) let a repair decrement and increment only the
//!    disks that changed: the moved routers' old and new disks, and the
//!    disks of unmoved routers whose giant membership flipped. Each repair
//!    picks the cheaper of that delta and one full in-place pass over
//!    every giant router's disk, by counting the disk operations each
//!    would take; cover counts commute, so both land the identical state.
//!
//! Combined with the buffer-reusing [`Clone::clone_from`], a GA child
//! evaluates as "copy parent state + apply the placement diff" instead of
//! a full rebuild.
//!
//! ## Invariants
//!
//! * `client_index` is the instance's own client index
//!   ([`ProblemInstance::client_index`]), one per instance and shared by
//!   every topology of it, and `radii` are that instance's radii. An
//!   instance never changes once built, so two topologies holding the same
//!   index `Arc` index the same clients with the same radii, and one may
//!   lend the other its disk caches.
//! * `positions`/`radii`/`router_index` agree at all times (the grid is
//!   relocated *before* edge repair).
//! * `adjacency` equals `MeshAdjacency::build` of the current positions;
//!   `components` equals `Components::from_adjacency(adjacency)` (every
//!   component labeled by its smallest router index), and holds the one
//!   record of giant membership.
//! * `cover_count[c]` equals the number of giant routers whose disk
//!   holds client `c`, and is the one record of coverage: client `c` is
//!   covered iff `cover_count[c] > 0`; `covered_count` equals the number
//!   of covered clients.
//! * Equal [`placement_stamp`]s mean bit-identical `positions`: every
//!   position write takes a fresh stamp, except that a `move_router` or
//!   `swap_routers` that exactly undoes the previous one restores the
//!   stamp from before it. Every [`apply_moves`] takes a fresh stamp.
//!
//! ## Write scratch
//!
//! A topology holds only its own state: positions, the router grid,
//! adjacency, components, cover counts and disk caches. The instance's
//! radii and client index are shared `Arc`s
//! ([`ProblemInstance::radii`], [`ProblemInstance::client_index`]), and
//! the buffers a write needs only while it runs — the moved-router list
//! and its epoch marks, neighbor lists under repair, edge-event streams,
//! the [`DynamicConnectivity`] engine and the disk-query buffer — live in
//! one scratch per thread, which every write borrows once. None of them
//! carries state from one write to the next, so one set serves every
//! topology on the thread, whatever its router count: the arrays indexed
//! by router grow to the largest router count the thread has written and
//! are epoch-stamped, so a smaller topology uses their prefix without
//! clearing them. The allocation-free promise is per thread: a write
//! allocates nothing once the thread's scratch is warm. The GA evaluates
//! on fresh scoped threads each generation when it runs on more than one
//! thread, so each such worker warms its scratch once per generation.
//!
//! ## The full-rebuild reference
//!
//! [`set_connectivity_mode`] with [`ConnectivityMode::FullRebuild`]
//! disables the incremental repair wholesale — every write then runs
//! [`rebuild_full`](WmnTopology::rebuild_full) — which is the reference
//! baseline the equivalence tests and the `move_eval` bench compare
//! against. It derives the network through the same routine as
//! [`build`](WmnTopology::build) and
//! [`reset_placement`](WmnTopology::reset_placement): the router grid, the
//! adjacency on it, components, and coverage, all rebuilt in place.
//!
//! [`move_router`]: WmnTopology::move_router
//! [`swap_routers`]: WmnTopology::swap_routers
//! [`apply_moves`]: WmnTopology::apply_moves
//! [`set_connectivity_mode`]: WmnTopology::set_connectivity_mode
//! [`placement_stamp`]: WmnTopology::placement_stamp
//! [`DynamicConnectivity`]: crate::connectivity::DynamicConnectivity
//! [`DynamicGrid`]: wmn_model::spatial::DynamicGrid

use crate::adjacency::{self, MeshAdjacency};
use crate::arena::NeighborSlab;
use crate::components::Components;
use crate::connectivity::DynamicConnectivity;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wmn_model::geometry::{Area, Point};
use wmn_model::instance::ProblemInstance;
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;
use wmn_model::spatial::{check_cell_space, DynamicGrid, GridIndex};
use wmn_obs::EngineStats;

/// How a topology repairs connectivity (components + giant) after each
/// move, swap, or batch application. Both strategies produce
/// **bit-identical** state (pinned by the equivalence and proptest
/// suites); they differ only in cost, and the non-default one exists as
/// the reference oracle and bench baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ConnectivityMode {
    /// Component-local dynamic repair (the default): the edge diff of the
    /// grid-local edge repair drives [`DynamicConnectivity`], which
    /// relabels only the components holding an endpoint of a changed
    /// edge.
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

/// A materialized network: mesh adjacency, components, and client coverage
/// for one (instance, placement) pair.
///
/// # Examples
///
/// ```
/// use wmn_graph::topology::WmnTopology;
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let mut rng = rng_from_seed(2);
/// let placement = instance.random_placement(&mut rng);
///
/// let topo = WmnTopology::build(&instance, &placement)?;
/// assert!(topo.giant_size() >= 1);
/// assert!(topo.covered_count() <= instance.client_count());
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct WmnTopology {
    area: Area,
    positions: Vec<Point>,
    /// The instance's radii ([`ProblemInstance::radii`]), shared like the
    /// client index: a build and a state copy take a pointer.
    radii: Arc<[f64]>,
    /// The instance's client index ([`ProblemInstance::client_index`]).
    /// Clients never move, so every topology of the instance shares this
    /// one `Arc`: a build takes it with a pointer clone instead of
    /// indexing the clients, and so does every state copy.
    client_index: Arc<GridIndex>,
    /// Router-side mutable grid, kept in sync with `positions` on every
    /// move/swap so edge repair queries only nearby routers; whole-mesh
    /// builds run on it too.
    router_index: DynamicGrid,
    adjacency: MeshAdjacency,
    components: Components,
    /// Per-client count of giant routers whose disk holds the client.
    cover_count: Vec<u32>,
    /// Clients with a nonzero `cover_count`.
    covered_count: usize,
    /// Per-router disk cache: the clients inside router `i`'s disk. Two
    /// invariants make coverage repair mostly query-free:
    ///
    /// * if router `i` is currently *counted* (in the giant, so its disk
    ///   contributes to `cover_count`), `disk_clients[i]` holds exactly the
    ///   counted set — so removals never re-query the client grid;
    /// * if `disk_cached[i]` is set, `disk_clients[i]` equals the clients
    ///   within `radii[i]` of the *current* `positions[i]` — so re-adding
    ///   an unmoved router's disk (a giant-membership flip) is free. The
    ///   bit is cleared whenever the router's position changes;
    /// * outside a write, a router whose bit is clear has an empty list, so
    ///   the slab holds blocks for valid caches alone.
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
    /// See [`placement_stamp`](WmnTopology::placement_stamp).
    placement_stamp: u64,
    /// The last position write, if a later `move_router` or
    /// `swap_routers` may still revert it exactly, with the stamp from
    /// before it.
    last_write: Option<(PositionWrite, u64)>,
    /// Always-on work counters of the delta-evaluation engine and its
    /// connectivity repairs. Zeroed by `clone`, kept running by
    /// `clone_from` (so per-slot totals accumulate across a GA run).
    stats: EngineStats,
}

/// The next [`WmnTopology::placement_stamp`] value. One counter for the
/// whole process, so no two position writes anywhere take the same value.
static NEXT_PLACEMENT_STAMP: AtomicU64 = AtomicU64::new(0);

fn fresh_placement_stamp() -> u64 {
    NEXT_PLACEMENT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A position write that a later one can revert exactly.
#[derive(Debug, Clone, Copy)]
enum PositionWrite {
    /// `router` moved from `from` to `to` (positions as stored, clamped).
    Move {
        router: usize,
        from: Point,
        to: Point,
    },
    /// Routers `a < b` exchanged positions.
    Swap { a: usize, b: usize },
}

impl PositionWrite {
    /// Whether this write, made right after `prev`, puts every position
    /// back bit for bit: the same router moved back to where it came from,
    /// or the same pair swapped again.
    fn reverts(&self, prev: &PositionWrite) -> bool {
        match (*self, *prev) {
            (
                PositionWrite::Move { router, to, .. },
                PositionWrite::Move {
                    router: prev_router,
                    from,
                    ..
                },
            ) => {
                router == prev_router
                    && to.x.to_bits() == from.x.to_bits()
                    && to.y.to_bits() == from.y.to_bits()
            }
            (PositionWrite::Swap { a, b }, PositionWrite::Swap { a: pa, b: pb }) => {
                (a, b) == (pa, pb)
            }
            _ => false,
        }
    }
}

thread_local! {
    /// The write scratch of every topology written on this thread.
    static SCRATCH: RefCell<WriteScratch> = const { RefCell::new(WriteScratch::new()) };
}

/// Runs `f` with this thread's write scratch. Each public write borrows it
/// once; no write runs inside another, so the borrow never nests.
fn with_scratch<R>(f: impl FnOnce(&mut WriteScratch) -> R) -> R {
    SCRATCH.with_borrow_mut(f)
}

/// The reusable buffers of one write (see *Write scratch* in the module
/// docs): shared by every topology on a thread, they reach steady-state
/// capacity after a handful of writes, making the hot loop
/// allocation-free.
#[derive(Debug)]
struct WriteScratch {
    /// BFS queue of the in-place component rebuild.
    bfs_queue: Vec<u32>,
    /// The previous and the re-derived sorted neighbor list of the router
    /// whose edges are being repaired.
    old_n: Vec<u32>,
    new_n: Vec<u32>,
    /// The routers the current write moved, each once, in first-move
    /// order.
    batch: Vec<BatchEntry>,
    /// The routers outside the current write whose giant membership its
    /// repair flipped.
    flipped_others: Vec<u32>,
    /// Epoch-stamped write-membership marks: router `i` belongs to the
    /// current write iff `moved_stamp[i] == move_epoch`. Starting a write
    /// bumps the epoch instead of clearing the array, which is as long as
    /// the largest topology written on this thread.
    moved_stamp: Vec<u32>,
    move_epoch: u32,
    /// Reusable disk-query buffer for cache-miss fills of the disk slab.
    disk_buf: Vec<u32>,
    /// The dynamic connectivity engine (pure scratch: component state
    /// lives in each topology's `components`).
    conn: DynamicConnectivity,
    /// Edge insert/delete streams of the current repair, reported by the
    /// old-vs-new neighbor merge of the grid-local edge repair
    /// ([`MeshAdjacency::replace_node_edges`]).
    ins_events: Vec<(u32, u32)>,
    del_events: Vec<(u32, u32)>,
}

impl WriteScratch {
    const fn new() -> Self {
        WriteScratch {
            bfs_queue: Vec::new(),
            old_n: Vec::new(),
            new_n: Vec::new(),
            batch: Vec::new(),
            flipped_others: Vec::new(),
            moved_stamp: Vec::new(),
            move_epoch: 0,
            disk_buf: Vec::new(),
            conn: DynamicConnectivity::new(),
            ins_events: Vec::new(),
            del_events: Vec::new(),
        }
    }

    /// Starts a position write on a topology of `routers` routers: empties
    /// the list of moved routers and bumps `move_epoch`, which unmarks
    /// every router at once (an O(n) fill only on the u32 wrap, every ~4
    /// billion writes). The marks grow to `routers` when they are shorter;
    /// new marks are 0, which no current epoch equals.
    fn begin_write(&mut self, routers: usize) {
        self.batch.clear();
        if self.moved_stamp.len() < routers {
            self.moved_stamp.resize(routers, 0);
        }
        if self.move_epoch == u32::MAX {
            self.moved_stamp.fill(0);
            self.move_epoch = 0;
        }
        self.move_epoch += 1;
    }
}

/// One router moved by the current write: whether its disk counted
/// toward coverage before and after the repair (its pre-write counted
/// client set survives in the disk cache, so no pre-write position is
/// needed).
#[derive(Debug, Clone, Copy)]
struct BatchEntry {
    router: u32,
    counted_before: bool,
    counted_after: bool,
}

impl Clone for WmnTopology {
    fn clone(&self) -> Self {
        WmnTopology {
            area: self.area,
            positions: self.positions.clone(),
            radii: Arc::clone(&self.radii),
            client_index: self.client_index.clone(),
            router_index: self.router_index.clone(),
            adjacency: self.adjacency.clone(),
            components: self.components.clone(),
            cover_count: self.cover_count.clone(),
            covered_count: self.covered_count,
            disk_clients: self.disk_clients.clone(),
            disk_cached: self.disk_cached.clone(),
            connectivity_mode: self.connectivity_mode,
            placement_stamp: self.placement_stamp,
            last_write: None,
            stats: EngineStats::default(),
        }
    }

    /// Buffer-reusing state copy: `self` becomes an exact copy of `src`
    /// (its work counters keep running), reusing every allocation already
    /// held. This is the population-pool hot path: a GA child leases a
    /// topology, `clone_from`s its parent's, and repairs the placement
    /// delta through [`WmnTopology::apply_moves`] — no per-child topology
    /// allocation once the pool is warm. The radii and the client index
    /// are shared, so they cost a pointer compare; the slabs copy their
    /// blocks, which non-empty lists alone own.
    fn clone_from(&mut self, src: &Self) {
        self.stats.clone_from_reuses += 1;
        self.area = src.area;
        self.positions.clone_from(&src.positions);
        share(&mut self.radii, &src.radii);
        share(&mut self.client_index, &src.client_index);
        self.router_index.clone_from(&src.router_index);
        self.adjacency.clone_from(&src.adjacency);
        self.components.clone_from(&src.components);
        self.cover_count.clone_from(&src.cover_count);
        self.covered_count = src.covered_count;
        self.disk_clients.clone_from(&src.disk_clients);
        self.disk_cached.clone_from(&src.disk_cached);
        self.connectivity_mode = src.connectivity_mode;
        self.placement_stamp = src.placement_stamp;
        self.last_write = None;
    }
}

/// Points `dst` at `src`'s shared value, unless it already does.
fn share<T: ?Sized>(dst: &mut Arc<T>, src: &Arc<T>) {
    if !Arc::ptr_eq(dst, src) {
        *dst = Arc::clone(src);
    }
}

impl WmnTopology {
    /// Builds the topology for `instance` with routers at `placement`.
    ///
    /// # Errors
    ///
    /// Propagates placement validation
    /// ([`ModelError`](wmn_model::ModelError)) — length mismatch or
    /// out-of-area positions — and the refusal of
    /// [`ProblemInstance::client_index`]: a client grid with more cells
    /// than u32 ids can number (an area far larger than the radio range,
    /// such as `--scale-area 1000000`), or one whose estimated bytes exceed
    /// the [`MEMORY_LIMIT_BYTES`](wmn_model::MEMORY_LIMIT_BYTES) (such as
    /// `--scale-area 3000`). Refuses the router grid the same way. Router
    /// and client ids fit u32, because [`ProblemInstance::new`] refuses any
    /// instance whose ids would not.
    pub fn build(
        instance: &ProblemInstance,
        placement: &Placement,
    ) -> Result<WmnTopology, wmn_model::ModelError> {
        instance.validate_placement(placement)?;
        let client_index = Arc::clone(instance.client_index()?);
        let area = instance.area();
        let router_cell = adjacency::grid_cell_size(client_index.cell_size());
        check_cell_space(&area, router_cell, "router", DynamicGrid::BYTES_PER_CELL)?;
        let (routers, clients) = (placement.len(), client_index.len());
        let mut topo = WmnTopology {
            area,
            positions: placement.as_slice().to_vec(),
            radii: Arc::clone(instance.radii()),
            client_index,
            router_index: DynamicGrid::new(&area, router_cell),
            adjacency: MeshAdjacency::default(),
            components: Components::empty(),
            cover_count: vec![0; clients],
            covered_count: 0,
            disk_clients: NeighborSlab::with_nodes(routers),
            disk_cached: vec![false; routers],
            connectivity_mode: ConnectivityMode::default(),
            placement_stamp: fresh_placement_stamp(),
            last_write: None,
            stats: EngineStats::default(),
        };
        with_scratch(|s| topo.rebuild_network(s));
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
        self.stats.full_rebuilds += 1;
        self.positions.copy_from_slice(placement.as_slice());
        self.stamp_fresh();
        // Every disk cache is stale now, so the disk slab starts empty.
        self.disk_cached.fill(false);
        self.disk_clients.reset(self.positions.len());
        with_scratch(|s| self.rebuild_network(s));
    }

    /// Derives the whole network from the current positions, in place:
    /// the router grid, the adjacency on it, components, and coverage
    /// (re-querying only routers whose disk cache is stale).
    /// [`build`](WmnTopology::build),
    /// [`reset_placement`](WmnTopology::reset_placement) and
    /// [`rebuild_full`](WmnTopology::rebuild_full) all end here.
    fn rebuild_network(&mut self, s: &mut WriteScratch) {
        self.router_index.rebuild(&self.positions);
        self.adjacency
            .rebuild_in_place(&self.positions, &self.radii, &self.router_index);
        self.components
            .rebuild_in_place(&self.adjacency, &mut s.bfs_queue);
        self.recompute_coverage_from(s, None);
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
        self.cover_count.len()
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

    /// Per-client coverage mask, built from the cover counts.
    pub fn covered_mask(&self) -> Vec<bool> {
        self.cover_count.iter().map(|&n| n > 0).collect()
    }

    /// The instance's client index this topology was built on
    /// ([`ProblemInstance::client_index`]). `Arc::ptr_eq` against another
    /// topology's, or against the instance's, tells whether both index the
    /// same clients with the same radii.
    pub fn client_index(&self) -> &Arc<GridIndex> {
        &self.client_index
    }

    /// Returns `true` if router `id` is in the giant component.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn in_giant(&self, id: RouterId) -> bool {
        self.components.in_giant(id.index())
    }

    /// An identity for the current router positions. **Invariant:** two
    /// equal stamps — of this topology or of any other, read at any two
    /// times in one process — mean bit-identical positions, so a cache of
    /// anything derived from positions alone can be keyed by the stamp
    /// (the swap movement keys its zone census this way).
    ///
    /// * Every position write takes a fresh value from one process-wide
    ///   counter: [`build`](WmnTopology::build),
    ///   [`reset_placement`](WmnTopology::reset_placement),
    ///   [`move_router`](WmnTopology::move_router),
    ///   [`swap_routers`](WmnTopology::swap_routers) and every non-empty
    ///   [`apply_moves`](WmnTopology::apply_moves).
    /// * A `move_router` or `swap_routers` that exactly reverts this
    ///   topology's previous write — the same router back to its
    ///   bit-identical previous position, or the same pair swapped again —
    ///   restores the stamp from before that write. Undoing a move this
    ///   way gives back the stamp it started from.
    /// * `clone` and `clone_from` copy the stamp and forget the previous
    ///   write: the first write after a copy never restores a stamp.
    ///
    /// A write that leaves the positions unchanged may still take a fresh
    /// stamp: equal positions do not imply equal stamps. Stamp values
    /// depend on how many topologies the process wrote before, so they
    /// differ between runs and thread counts: no artifact may contain one.
    pub fn placement_stamp(&self) -> u64 {
        self.placement_stamp
    }

    /// The routers that the last position write moved, each with its
    /// position before that write, when the write was a
    /// [`move_router`](WmnTopology::move_router) or
    /// [`swap_routers`](WmnTopology::swap_routers) made at stamp `stamp`;
    /// otherwise `None`. Moving the reported routers of the placement
    /// stamped `stamp` to their current positions gives the current
    /// placement, so a cache keyed by the stamp can be brought up to date
    /// at the cost of one or two routers rather than all of them.
    pub fn moves_since(&self, stamp: u64) -> Option<impl Iterator<Item = (RouterId, Point)>> {
        let (write, before) = self.last_write?;
        if before != stamp {
            return None;
        }
        let moves = match write {
            PositionWrite::Move { router, from, .. } => [Some((router, from)), None],
            PositionWrite::Swap { a, b } => {
                [Some((a, self.positions[b])), Some((b, self.positions[a]))]
            }
        };
        Some(moves.into_iter().flatten().map(|(i, p)| (RouterId(i), p)))
    }

    /// Stamps a write that no later one reverts (see
    /// [`placement_stamp`](WmnTopology::placement_stamp)).
    fn stamp_fresh(&mut self) {
        self.placement_stamp = fresh_placement_stamp();
        self.last_write = None;
    }

    /// Stamps `write`, just made: it restores the stamp from before the
    /// previous write when it exactly reverts that write, and takes a fresh
    /// one otherwise.
    fn stamp_write(&mut self, write: PositionWrite) {
        let before = self.placement_stamp;
        self.placement_stamp = match self.last_write {
            Some((prev, stamp)) if write.reverts(&prev) => stamp,
            _ => fresh_placement_stamp(),
        };
        self.last_write = Some((write, before));
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

    /// The work profile of this topology's evaluation engine:
    /// topology-level counters (moves, coverage strategy, disk caches)
    /// plus its connectivity repairs'. The counters are zeroed on
    /// construction and `clone`, kept running by `clone_from`, and
    /// deterministic for a fixed seed at any thread count.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Adds router `i`'s disk (at its **current** position) to the
    /// per-client cover counts, bumping the covered total at 0→1
    /// transitions. Uses the positionally-valid disk cache
    /// when available, so re-adding an unmoved router's disk — a
    /// giant-membership flip — performs no grid query. On a cache miss, a
    /// `donor` topology holding router `i` at the **same position** (on
    /// the same client index — the caller verifies it) donates its cached
    /// disk; without one, the disk is queried from the client grid. The
    /// donor is the crossover-child path: a moved gene's target position
    /// is verbatim the other parent's, whose cache holds exactly the right
    /// client set.
    fn disk_add_from(&mut self, s: &mut WriteScratch, i: usize, donor: Option<&WmnTopology>) {
        let WmnTopology {
            client_index,
            cover_count,
            covered_count,
            positions,
            radii,
            disk_clients,
            disk_cached,
            stats,
            ..
        } = self;
        if !disk_cached[i] {
            match donor.filter(|d| d.disk_cached[i] && d.positions[i] == positions[i]) {
                Some(d) => {
                    stats.disk_cache_grafts += 1;
                    disk_clients.assign(i, d.disk_clients.get(i));
                }
                None => {
                    stats.disk_grid_queries += 1;
                    client_index.within_radius_into(positions[i], radii[i], &mut s.disk_buf);
                    disk_clients.assign(i, &s.disk_buf);
                }
            }
            disk_cached[i] = true;
        } else {
            stats.disk_cache_hits += 1;
        }
        for &c in disk_clients.get(i) {
            let c = c as usize;
            cover_count[c] += 1;
            if cover_count[c] == 1 {
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
            covered_count,
            disk_clients,
            ..
        } = self;
        for &c in disk_clients.get(i) {
            let c = c as usize;
            debug_assert!(cover_count[c] > 0, "cover count underflow");
            cover_count[c] -= 1;
            if cover_count[c] == 0 {
                *covered_count -= 1;
            }
        }
    }

    /// Full coverage recomputation, in place: rebuilds cover counts and the
    /// covered total (maintained incrementally as counts leave zero — no
    /// trailing count scan) from the current giant membership,
    /// re-querying only routers whose disk cache is positionally stale and
    /// that an optional `donor` cannot fill (see
    /// [`apply_moves`](WmnTopology::apply_moves)).
    fn recompute_coverage_from(&mut self, s: &mut WriteScratch, donor: Option<&WmnTopology>) {
        self.stats.coverage_full_recomputes += 1;
        self.cover_count.fill(0);
        self.covered_count = 0;
        for i in 0..self.positions.len() {
            if self.components.in_giant(i) {
                self.disk_add_from(s, i, donor);
            }
        }
    }

    /// Re-derives router `i`'s edges from the router-side grid (its
    /// previous and new sorted neighbor sets go to `s.old_n` and
    /// `s.new_n`) and appends the changed edges to the current write's
    /// insert/delete streams. Allocation-free once the buffers are warm.
    fn recompute_router_edges(&mut self, s: &mut WriteScratch, i: usize) {
        let WriteScratch {
            old_n: old,
            new_n: new,
            ins_events,
            del_events,
            ..
        } = s;
        old.clear();
        old.extend_from_slice(self.adjacency.neighbors(i));
        new.clear();
        let pi = self.positions[i];
        let ri = self.radii[i];
        let positions = &self.positions;
        let radii = &self.radii;
        self.router_index.for_each_candidate(pi, ri, |j| {
            if j == i {
                return;
            }
            let d2 = pi.distance_squared(positions[j]);
            if adjacency::links(d2, ri, radii[j]) {
                new.push(j as u32);
            }
        });
        new.sort_unstable();
        // Unchanged lists skip the slab entirely; changed ones pay only for
        // the edge delta (the merge-diff inside `replace_node_edges`, which
        // reports each changed edge as it goes).
        if old != new {
            self.adjacency
                .replace_node_edges(i, old, new, ins_events, del_events);
        }
    }

    /// Repairs `components` for the current adjacency component-locally
    /// through the dynamic engine, consuming the recorded edge events, and
    /// collects the routers whose giant membership flipped
    /// ([`DynamicConnectivity::giant_flips`]) **outside** the current
    /// write into `s.flipped_others`.
    /// Returns how many there are, the count steering the coverage-repair
    /// choice. Expects `s.moved_stamp` to carry the current `move_epoch`
    /// on exactly the written routers.
    fn repair_components(&mut self, s: &mut WriteScratch) -> usize {
        let WriteScratch {
            conn,
            ins_events,
            del_events,
            moved_stamp,
            move_epoch,
            flipped_others,
            ..
        } = s;
        conn.apply_edge_diff(
            &self.adjacency,
            &mut self.components,
            ins_events,
            del_events,
            &mut self.stats,
        );
        flipped_others.clear();
        flipped_others.extend(
            conn.giant_flips()
                .iter()
                .filter(|&&j| moved_stamp[j as usize] != *move_epoch),
        );
        flipped_others.len()
    }

    /// Moves router `id` to `new_position` and repairs the network
    /// incrementally ("re-establish mesh nodes network connections") —
    /// the one repair pass of the module docs.
    ///
    /// Returns the previous position, so callers can undo the move by
    /// moving back.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range. The position is clamped into the
    /// deployment area.
    pub fn move_router(&mut self, id: RouterId, new_position: Point) -> Point {
        self.stats.single_moves += 1;
        let i = id.index();
        let new = self.area.clamp_point(new_position);
        with_scratch(|s| {
            s.begin_write(self.positions.len());
            let old = self.write_position(s, i, new);
            self.stamp_write(PositionWrite::Move {
                router: i,
                from: old,
                to: new,
            });
            self.repair(s, None);
            old
        })
    }

    /// Exchanges the positions of two routers (the paper's swap movement)
    /// and repairs the network incrementally, exactly like
    /// [`move_router`](WmnTopology::move_router) but with two moved routers.
    /// Radii travel with the router id. Swapping a router with itself is a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap_routers(&mut self, a: RouterId, b: RouterId) {
        if a == b {
            return;
        }
        self.stats.swaps += 1;
        let (ia, ib) = (a.index(), b.index());
        let (pa, pb) = (self.positions[ia], self.positions[ib]);
        with_scratch(|s| {
            s.begin_write(self.positions.len());
            self.write_position(s, ia, pb);
            self.write_position(s, ib, pa);
            self.stamp_write(PositionWrite::Swap {
                a: ia.min(ib),
                b: ia.max(ib),
            });
            self.repair(s, None);
        });
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
    /// loop would. This is the path population-based methods use for
    /// placement diffs (GA crossover/mutation children).
    ///
    /// Semantics are exactly "set each listed router to its target
    /// position": later entries for the same router win, and an empty
    /// batch is a no-op. The resulting state is identical to a full
    /// rebuild at the final positions (pinned by tests); undoing is
    /// applying the inverse batch of previous positions. Every non-empty
    /// batch takes a fresh [`placement_stamp`](WmnTopology::placement_stamp).
    ///
    /// With a coverage **donor**, when a moved router's target position
    /// matches the donor's current position for the same router, the
    /// donor's cached disk is copied instead of re-queried from the client
    /// grid. This is the crossover-child evaluation path — the recombined
    /// genes' targets are verbatim the other parent's positions, so their
    /// disks come for free. A donor on another client index `Arc` (another
    /// instance) or with another router count is ignored; results are
    /// identical with or without a donor (pinned by tests), only the query
    /// count differs.
    ///
    /// # Panics
    ///
    /// Panics if any router id is out of range.
    pub fn apply_moves(&mut self, moves: &[(RouterId, Point)], donor: Option<&WmnTopology>) {
        if moves.is_empty() {
            return;
        }
        // The shared index means the same clients and radii, so the donor's
        // disk caches hold the right client sets.
        let donor = donor.filter(|d| {
            Arc::ptr_eq(&d.client_index, &self.client_index)
                && d.positions.len() == self.positions.len()
        });
        with_scratch(|s| {
            s.begin_write(self.positions.len());
            for &(id, to) in moves {
                let new = self.area.clamp_point(to);
                self.write_position(s, id.index(), new);
            }
            self.stamp_fresh();
            self.stats.batch_repairs += 1;
            self.stats.batch_moved_routers += s.batch.len() as u64;
            self.repair(s, donor);
        });
    }

    /// Moves router `i` to `new` (already clamped) within the current
    /// write: position, grid bucket, and — the first time the write moves
    /// `i` — its entry in the moved-router list and its epoch mark.
    /// Returns the previous position.
    fn write_position(&mut self, s: &mut WriteScratch, i: usize, new: Point) -> Point {
        let old = self.positions[i];
        self.positions[i] = new;
        self.disk_cached[i] = false;
        self.router_index.relocate(i, old, new);
        let WriteScratch {
            batch,
            moved_stamp,
            move_epoch,
            ..
        } = s;
        if moved_stamp[i] != *move_epoch {
            moved_stamp[i] = *move_epoch;
            batch.push(BatchEntry {
                router: i as u32,
                counted_before: false,
                counted_after: false,
            });
        }
        old
    }

    /// The repair behind every position write, over the routers the
    /// write moved (`s.batch`): the incremental pass, or a full rebuild
    /// under [`ConnectivityMode::FullRebuild`]. A moved router whose disk
    /// is not cached afterwards is out of the giant, and nothing reads its
    /// list until a fill replaces it, so the list is dropped.
    fn repair(&mut self, s: &mut WriteScratch, donor: Option<&WmnTopology>) {
        match self.connectivity_mode {
            ConnectivityMode::Dynamic => self.repair_incremental(s, donor),
            ConnectivityMode::FullRebuild => self.full_rebuild(s),
        }
        for e in &s.batch {
            let i = e.router as usize;
            if !self.disk_cached[i] {
                self.disk_clients.clear_node(i);
            }
        }
    }

    /// The one incremental repair pass (see the module docs): edges, the
    /// no-op early-out, one component repair, and the cheaper of the two
    /// coverage repairs. `donor` grafts disk caches as in
    /// [`apply_moves`](WmnTopology::apply_moves).
    fn repair_incremental(&mut self, s: &mut WriteScratch, donor: Option<&WmnTopology>) {
        // One grid-local edge repair per moved router, against the final
        // positions. Any edge change is incident to a moved router and
        // shows up in at least one old-vs-new comparison (a repair by an
        // earlier-processed moved router that alters a later one's list is
        // caught by the earlier router's own comparison) — so the recorded
        // insert/delete streams carry each changed edge exactly once.
        let mut batch = std::mem::take(&mut s.batch);
        s.ins_events.clear();
        s.del_events.clear();
        for e in &batch {
            self.recompute_router_edges(s, e.router as usize);
        }

        let links_changed = !s.ins_events.is_empty() || !s.del_events.is_empty();
        if !links_changed {
            // Identical graph ⇒ identical components and membership; only
            // the moved disks need re-counting. Each disk cache still holds
            // its router's counted set from before the write, so removals
            // stay query-free.
            self.stats.link_noop_repairs += 1;
            for &BatchEntry { router: i, .. } in &batch {
                let i = i as usize;
                if self.components.in_giant(i) {
                    self.disk_remove(i);
                    self.disk_add_from(s, i, donor);
                }
            }
            s.batch = batch;
            return;
        }

        for e in &mut batch {
            e.counted_before = self.components.in_giant(e.router as usize);
        }
        let flipped_others = self.repair_components(s);
        for e in &mut batch {
            e.counted_after = self.components.in_giant(e.router as usize);
        }
        // Disk-op budget of the exact delta repair (moved disks plus the
        // unmoved routers whose membership flipped) vs the one full
        // in-place pass (every giant router's disk). Cover counts commute,
        // so both paths land the identical state; pick the cheaper one.
        let moved_ops: usize = batch
            .iter()
            .map(|e| usize::from(e.counted_before) + usize::from(e.counted_after))
            .sum();
        if flipped_others + moved_ops <= self.components.giant_size() {
            self.stats.coverage_delta_repairs += 1;
            // Exact delta: removals first, then additions (grouped passes;
            // order is irrelevant for counts). `components` holds the new
            // membership, so a flipped router that is out now was in
            // before. Removals and flip-offs run off the disk caches;
            // flip-ons of unmoved routers usually hit a positionally-valid
            // cache too.
            for &e in &batch {
                if e.counted_before {
                    self.disk_remove(e.router as usize);
                }
            }
            let flipped = std::mem::take(&mut s.flipped_others);
            for &j in &flipped {
                if !self.components.in_giant(j as usize) {
                    self.disk_remove(j as usize);
                }
            }
            for &j in &flipped {
                if self.components.in_giant(j as usize) {
                    self.disk_add_from(s, j as usize, None);
                }
            }
            s.flipped_others = flipped;
            for &e in &batch {
                if e.counted_after {
                    self.disk_add_from(s, e.router as usize, donor);
                }
            }
        } else {
            self.recompute_coverage_from(s, donor);
        }
        s.batch = batch;
    }

    /// Rebuilds the router grid, adjacency, components, and coverage from
    /// the current positions, in place, through the routine behind
    /// [`build`](WmnTopology::build); disk caches still valid for their
    /// router's position are kept. The reference path: tests, the
    /// `FullRebuild` baseline, and the `ablation_move_eval` bench run it to
    /// pin the incremental engine.
    pub fn rebuild_full(&mut self) {
        with_scratch(|s| self.full_rebuild(s));
    }

    /// [`rebuild_full`](WmnTopology::rebuild_full) on the borrowed scratch.
    fn full_rebuild(&mut self, s: &mut WriteScratch) {
        self.stats.full_rebuilds += 1;
        self.rebuild_network(s);
    }

    /// Debug helper: asserts the incremental state — adjacency, components,
    /// cover counts, covered total, and the router-side grid — equals a
    /// fresh rebuild.
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
            if !self.disk_cached[i] && !self.components.in_giant(i) {
                continue;
            }
            let mut expect = Vec::new();
            self.client_index
                .within_radius_into(self.positions[i], self.radii[i], &mut expect);
            expect.sort_unstable();
            let mut got = self.disk_clients.get(i).to_vec();
            got.sort_unstable();
            assert_eq!(
                got, expect,
                "disk cache for router {i} drifted from its current disk"
            );
        }
        for i in 0..self.positions.len() {
            assert!(
                self.disk_cached[i] || self.disk_clients.get(i).is_empty(),
                "router {i} keeps a stale disk list"
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
            self.cover_count, fresh.cover_count,
            "cover counts drifted from full recompute"
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
        let topo = WmnTopology::build(&instance, &placement).unwrap();
        (instance, topo)
    }

    #[test]
    fn build_validates_placement() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let bad = Placement::from_points(vec![Point::new(1.0, 1.0)]);
        assert!(WmnTopology::build(&instance, &bad).is_err());
    }

    #[test]
    fn build_refuses_grids_beyond_the_u32_cell_space() {
        let refusal = |side: f64, radius: f64| {
            let instance = InstanceBuilder::new(Area::square(side).unwrap())
                .routers(RadioProfile::fixed(radius).unwrap(), 1)
                .client(Point::new(2.0, 2.0))
                .build()
                .unwrap();
            let placement = Placement::from_points(vec![Point::new(1.0, 1.0)]);
            match WmnTopology::build(&instance, &placement) {
                Err(wmn_model::ModelError::InvalidSpec { reason }) => reason,
                other => panic!("expected a grid-size refusal, got {other:?}"),
            }
        };
        // Client cells of side 8: 125,000² cells. The router grid's cells
        // are twice as wide, so it fits whenever the client grid does.
        let reason = refusal(1e6, 8.0);
        assert!(
            reason.contains("client grid would need 125000 x 125000 = 15625000000 cells"),
            "{reason}"
        );
        // Radius 0.25: client cells of side 1, 40,000² of them. They fit the
        // u32 ids, but their 8 bytes each do not fit the memory limit, so
        // the refusal comes from the estimate, before any allocation.
        let reason = refusal(40_000.0, 0.25);
        assert!(
            reason.contains(
                "client grid of 40000 x 40000 = 1600000000 cells would need an estimated \
                 12800000000 bytes"
            ),
            "{reason}"
        );
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
        let topo = WmnTopology::build(&instance, &placement).unwrap();
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
        let topo = WmnTopology::build(&instance, &placement).unwrap();
        assert_eq!(topo.giant_size(), 2);
        assert_eq!(
            topo.covered_count(),
            0,
            "isolated router's client must not count"
        );
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
            topo.apply_moves(&moves, None);
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
            batch.apply_moves(&moves, None);
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
        topo.apply_moves(&[], None);
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
        topo.apply_moves(&moves, None);
        topo.assert_consistent();
        assert_eq!(topo.position(RouterId(9)), Point::new(100.0, 100.0));
        topo.apply_moves(&undo, None);
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
            topo.apply_moves(&moves, None);
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
        let mut b = WmnTopology::build(&instance, &other).unwrap();
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
        let donor = WmnTopology::build(&instance, &other_placement).unwrap();
        let moves: Vec<(RouterId, Point)> = (0..24)
            .map(|i| (RouterId(i), donor.position(RouterId(i))))
            .collect();
        let mut with_donor = base.clone();
        with_donor.apply_moves(&moves, Some(&donor));
        with_donor.assert_consistent();
        let mut without = base.clone();
        without.apply_moves(&moves, None);
        assert_eq!(with_donor.placement(), without.placement());
        assert_eq!(with_donor.giant_size(), without.giant_size());
        assert_eq!(with_donor.covered_count(), without.covered_count());
        assert_eq!(with_donor.covered_mask(), without.covered_mask());
        // A donor from a different instance is ignored, not trusted.
        let foreign_instance = InstanceSpec::paper_normal().unwrap().generate(999).unwrap();
        let foreign_placement = foreign_instance.random_placement(&mut rng);
        let foreign = WmnTopology::build(&foreign_instance, &foreign_placement).unwrap();
        let mut guarded = base.clone();
        guarded.apply_moves(&moves, Some(&foreign));
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
            inc.apply_moves(&moves, None);
            reb.apply_moves(&moves, None);
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
        assert_eq!(built.coverage_full_recomputes, 1);
        assert_eq!(built.disk_grid_queries, topo.giant_size() as u64);
        assert_eq!(built.single_moves, 0);

        let mut rng = rng_from_seed(5);
        for _ in 0..10 {
            let id = RouterId(rng.gen_range(0..topo.router_count()));
            let p = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            topo.move_router(id, p);
        }
        topo.swap_routers(RouterId(0), RouterId(1));
        let after = topo.engine_stats();
        assert_eq!(after.single_moves, 10);
        assert_eq!(after.swaps, 1);
        assert!(
            after.repairs > 0,
            "dynamic mode must route repairs through the engine"
        );

        // `clone` starts a zeroed window; `clone_from` keeps counting and
        // records the buffer reuse.
        let mut copy = topo.clone();
        assert_eq!(copy.engine_stats(), EngineStats::default());
        copy.clone_from(&topo);
        assert_eq!(copy.engine_stats().clone_from_reuses, 1);

        // A snapshot opens a delta window on a live topology.
        let window = topo.engine_stats();
        topo.move_router(RouterId(2), Point::new(64.0, 64.0));
        let delta = topo.engine_stats().delta_since(&window);
        assert_eq!(delta.single_moves, 1);
        assert_eq!(delta.swaps, 0);
    }

    #[test]
    fn full_rebuild_mode_shows_up_in_the_counters() {
        let (_instance, mut topo) = paper_topology(29);
        let window = topo.engine_stats();
        topo.set_connectivity_mode(ConnectivityMode::FullRebuild);
        topo.move_router(RouterId(3), Point::new(10.0, 10.0));
        let stats = topo.engine_stats().delta_since(&window);
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(
            stats.repairs, 0,
            "full rebuild must bypass the dynamic engine"
        );
    }

    /// A test-only byte count of the heap bytes `t` retains, at capacity:
    /// `(fixed, slabs)`. `fixed` covers positions, the router grid (its
    /// head per cell and three links per router), the two slabs' span
    /// tables, components, cover counts and disk flags; `slabs` covers the
    /// two slabs' element buffers.
    fn retained_bytes(t: &WmnTopology) -> (usize, usize) {
        use std::mem::size_of;
        let (cols, rows) = t.router_index.shape();
        let (adj_spans, adj_data) = t.adjacency.slab().heap_bytes();
        let (disk_spans, disk_data) = t.disk_clients.heap_bytes();
        let fixed = t.positions.capacity() * size_of::<Point>()
            + (cols * rows + 3 * t.positions.len()) * size_of::<u32>()
            + adj_spans
            + disk_spans
            + t.components.heap_bytes()
            + t.cover_count.capacity() * size_of::<u32>()
            + t.disk_cached.capacity() * size_of::<bool>();
        (fixed, adj_data + disk_data)
    }

    /// A GA slot pool as `wmn_ga::parallel::evaluate_generation` runs it —
    /// one slot per individual plus the recycled slots of the last
    /// generation; each child copies its lineage parent's topology into a
    /// spare slot (`clone_from`) and repairs its crossover-plus-mutation
    /// diff with the other parent donating disk caches — leaves every slot
    /// holding only its own state: positions, router grid, span tables,
    /// components, cover counts and disk flags at exactly their sizes (no
    /// radii and no write scratch), and slab elements for live lists
    /// alone, with at most as much again in free blocks awaiting reuse and
    /// growth room.
    #[test]
    fn ga_slot_pool_retains_only_its_own_state() {
        use std::mem::size_of;
        use wmn_model::distribution::ClientDistribution;
        // The paper's density at four times its routers and clients.
        let spec = InstanceSpec::new(
            Area::square(256.0).unwrap(),
            256,
            768,
            ClientDistribution::Uniform,
            RadioProfile::paper_default(),
        )
        .unwrap();
        let instance = spec.generate(77).unwrap();
        let (n, m) = (instance.router_count(), instance.client_count());
        let side = instance.area().width();
        let mut rng = rng_from_seed(5);
        let mut slots: Vec<WmnTopology> = (0..8)
            .map(|_| WmnTopology::build(&instance, &instance.random_placement(&mut rng)).unwrap())
            .collect();
        let mut spare: Vec<WmnTopology> = Vec::new();
        let mut moves = Vec::new();
        for _ in 0..10 {
            let mut children = Vec::with_capacity(slots.len());
            for _ in 0..slots.len() {
                let (a, b) = (rng.gen_range(0..slots.len()), rng.gen_range(0..slots.len()));
                let cut = rng.gen_range(0..n);
                let mut genes = slots[a].placement().as_slice().to_vec();
                genes[cut..].copy_from_slice(&slots[b].placement().as_slice()[cut..]);
                for _ in 0..4 {
                    genes[rng.gen_range(0..n)] =
                        Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side));
                }
                let mut child = match spare.pop() {
                    Some(mut t) => {
                        t.clone_from(&slots[a]);
                        t
                    }
                    None => slots[a].clone(),
                };
                child.diff_placement_into(&Placement::from_points(genes), &mut moves);
                child.apply_moves(&moves, Some(&slots[b]));
                children.push(child);
            }
            spare = std::mem::replace(&mut slots, children);
        }
        let (cols, rows) = slots[0].router_index.shape();
        // A span is three u32s; components keep a label and a size per
        // router.
        let own_fixed = n * size_of::<Point>()
            + (cols * rows + 3 * n) * size_of::<u32>()
            + 2 * n * 3 * size_of::<u32>()
            + 2 * n * size_of::<u32>()
            + m * size_of::<u32>()
            + n * size_of::<bool>();
        for (k, t) in slots.iter().chain(&spare).enumerate() {
            t.assert_consistent();
            let (fixed, slabs) = retained_bytes(t);
            let live = t.adjacency.slab().live_block_bytes() + t.disk_clients.live_block_bytes();
            assert_eq!(fixed, own_fixed, "slot {k}: fixed buffers");
            assert!(
                slabs <= 2 * live,
                "slot {k}: {slabs} slab bytes for {live} bytes of live blocks"
            );
        }
    }

    #[test]
    fn moves_swaps_and_batches_share_one_repair() {
        let (_instance, mut topo) = paper_topology(41);
        let window = topo.engine_stats();
        let mut rng = rng_from_seed(11);
        let n = topo.router_count();
        for step in 0..60 {
            let id = RouterId(rng.gen_range(0..n));
            let p = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            match step % 3 {
                0 => {
                    topo.move_router(id, p);
                }
                1 => topo.swap_routers(id, RouterId((id.index() + 1) % n)),
                _ => topo.apply_moves(&[(id, p)], None),
            }
        }
        topo.assert_consistent();
        let stats = topo.engine_stats().delta_since(&window);
        let t = stats;
        // Each entry point keeps its own counter; a one-entry batch is a
        // batch of one router.
        assert_eq!((t.single_moves, t.swaps, t.batch_repairs), (20, 20, 20));
        assert_eq!(t.batch_moved_routers, 20);
        // Every write ends in exactly one of the no-op early-out, the
        // coverage delta and the full coverage pass, and every other
        // write repairs components once.
        assert_eq!(
            t.link_noop_repairs + t.coverage_delta_repairs + t.coverage_full_recomputes,
            60
        );
        assert_eq!(stats.repairs, 60 - t.link_noop_repairs);
        assert!(t.coverage_delta_repairs > 0 && t.link_noop_repairs > 0);

        // A batch takes a fresh stamp even when it undoes the previous one.
        let (id, home) = (RouterId(0), topo.position(RouterId(0)));
        let stamp = topo.placement_stamp();
        topo.apply_moves(&[(id, Point::new(5.0, 5.0))], None);
        topo.apply_moves(&[(id, home)], None);
        assert_eq!(topo.position(id), home);
        assert_ne!(topo.placement_stamp(), stamp);
        assert!(topo.moves_since(stamp).is_none());

        // Under the reference every write is one full rebuild.
        let window = topo.engine_stats();
        topo.set_connectivity_mode(ConnectivityMode::FullRebuild);
        topo.move_router(RouterId(1), Point::new(20.0, 20.0));
        topo.swap_routers(RouterId(1), RouterId(2));
        topo.apply_moves(&[(RouterId(3), Point::new(30.0, 30.0))], None);
        let stats = topo.engine_stats().delta_since(&window);
        assert_eq!(stats.full_rebuilds, 3);
        assert_eq!(stats.coverage_full_recomputes, 3);
        assert_eq!(stats.coverage_delta_repairs, 0);
        assert_eq!(stats.repairs, 0);
        topo.assert_consistent();
    }
}

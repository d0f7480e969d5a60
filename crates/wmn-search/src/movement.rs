//! Movement types: local perturbations of a placement.
//!
//! Paper §4 defines neighborhood structure through a **movement type**. Two
//! are evaluated: a purely random relocation ([`RandomMovement`]) and the
//! **swap movement** of Algorithm 3 ([`SwapMovement`]) — "the worst router
//! (that of smallest radio coverage) in the most dense area is exchanged
//! with the best router (that of largest radio coverage) of the sparsest
//! area", promoting the best routers into the densest client zones.
//!
//! The paper leaves one case unspecified: the densest client area may
//! contain **no router at all** (common early in a search). Following the
//! movement's stated intent, [`SwapMovement`] then relocates the sparse
//! area's strongest router into the dense area ("swap with an empty slot").
//! The tests below exercise this gap-fill.

use rand::{Rng, RngCore};
use std::cell::RefCell;
use std::fmt;
use wmn_graph::density::{DensityMap, ZoneBins, ZoneCensus};
use wmn_graph::topology::WmnTopology;
use wmn_model::geometry::Point;
use wmn_model::instance::ProblemInstance;
use wmn_model::node::{Client, RouterId};
use wmn_model::placement::Placement;

/// A concrete, applicable local perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveAction {
    /// Move one router to a new position.
    Relocate {
        /// The router to move.
        router: RouterId,
        /// Destination (clamped into the area on application).
        to: Point,
    },
    /// Exchange the positions of two routers (radii stay with their
    /// routers).
    Swap {
        /// First router.
        a: RouterId,
        /// Second router.
        b: RouterId,
    },
}

/// Token to revert an applied [`MoveAction`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UndoAction(MoveAction);

impl MoveAction {
    /// Applies the move to a topology, returning the undo token.
    pub fn apply(&self, topo: &mut WmnTopology) -> UndoAction {
        match *self {
            MoveAction::Relocate { router, to } => {
                let old = topo.move_router(router, to);
                UndoAction(MoveAction::Relocate { router, to: old })
            }
            MoveAction::Swap { a, b } => {
                topo.swap_routers(a, b);
                UndoAction(MoveAction::Swap { a, b })
            }
        }
    }

    /// Applies the move to a bare placement vector, without any network
    /// repair: a relocation sets the router's gene **verbatim** (no area
    /// clamping — producers of placement-level moves, e.g. the GA's
    /// mutation planner, clamp at proposal time) and a swap exchanges two
    /// genes. This is the chromosome-side counterpart of
    /// [`MoveAction::apply`], shared by the GA so mutation and search
    /// speak the same move vocabulary.
    ///
    /// # Panics
    ///
    /// Panics if a router id is out of range for `placement`.
    pub fn apply_to_placement(&self, placement: &mut Placement) {
        match *self {
            MoveAction::Relocate { router, to } => placement[router] = to,
            MoveAction::Swap { a, b } => placement.swap(a, b),
        }
    }
}

impl UndoAction {
    /// Reverts the move this token was produced by.
    pub fn undo(self, topo: &mut WmnTopology) {
        let _ = self.0.apply(topo);
    }
}

/// A movement type: proposes candidate perturbations of the current state.
///
/// Movements are constructed against a fixed instance (client positions
/// never change), then propose moves against evolving topologies.
pub trait Movement: fmt::Debug {
    /// Short stable name (used by figure legends): `"Swap"`, `"Random"`.
    fn name(&self) -> &'static str;

    /// Proposes one candidate move for the current topology.
    fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction;
}

/// Purely random relocation: a uniformly chosen router moves to a uniformly
/// chosen position (the paper's random-movement baseline of Figure 4).
#[derive(Debug, Clone)]
pub struct RandomMovement {
    width: f64,
    height: f64,
}

impl RandomMovement {
    /// Creates the movement for `instance`'s area.
    pub fn new(instance: &ProblemInstance) -> Self {
        RandomMovement {
            width: instance.area().width(),
            height: instance.area().height(),
        }
    }
}

impl Movement for RandomMovement {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
        let router = RouterId(rng.gen_range(0..topo.router_count()));
        let to = Point::new(
            rng.gen_range(0.0..=self.width),
            rng.gen_range(0.0..=self.height),
        );
        MoveAction::Relocate { router, to }
    }
}

/// Configuration for [`SwapMovement`] (paper Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapConfig {
    /// Density grid resolution (`cells × cells` over the area).
    pub cells: usize,
    /// Dense/sparse window size in cells (`Hg = Wg = window_cells`).
    pub window_cells: usize,
    /// How many of the top dense windows to sample among (randomizing the
    /// neighborhood so Algorithm 2 has distinct candidates to examine).
    pub dense_candidates: usize,
    /// How many of the bottom sparse windows to sample among.
    pub sparse_candidates: usize,
    /// Minimum client count for a window to qualify as "dense" (the
    /// paper's dense threshold).
    pub dense_threshold: u64,
    /// Maximum client count for a window to qualify as "sparse" (the
    /// paper's sparse threshold).
    pub sparse_threshold: u64,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            cells: 16,
            window_cells: 2,
            dense_candidates: 4,
            sparse_candidates: 4,
            dense_threshold: 1,
            sparse_threshold: u64::MAX,
        }
    }
}

/// The swap movement of Algorithm 3.
///
/// Per proposal:
/// 1. pick a *dense* window among the top client-count windows;
/// 2. pick a *sparse* window among the bottom client-count windows that
///    still contain at least one router;
/// 3. find the **weakest** router inside the dense window and the
///    **strongest** router inside the sparse window;
/// 4. swap their positions — or, when the dense window holds no router,
///    relocate the strong router into the dense window (documented
///    gap-fill).
///
/// # Cost
///
/// A proposal reads a zone census of the topology's placement
/// ([`ZoneCensus`]): each zone's router occupancy, and the routers inside
/// each zone rect. Choosing the dense and sparse zones reads the
/// occupancies, O(zones). The census is keyed by the topology's
/// [`placement_stamp`](WmnTopology::placement_stamp). Algorithm 2 applies
/// and undoes every candidate, and the undo restores the stamp, so within a
/// phase the census is reused as it stands. An accepted phase's move was
/// made at the census's stamp, so the next proposal follows only the one or
/// two routers it moved ([`WmnTopology::moves_since`]). Only a placement
/// reached another way — the first proposal, a rebuild, a copy — retakes
/// the census: O(routers + zones), through the zones binned once per
/// instance ([`ZoneBins`]). A search phase therefore costs the same whether
/// or not the previous one was accepted.
///
/// The router picks inside a zone (its strongest router, per mode, and its
/// weakest in swap mode) scan the zone's router list, about 256 routers at
/// `--scale 256`. Each is made on its first use at a census stamp and kept
/// until the census moves to another stamp, so a phase's 16 proposals,
/// which draw from at most `sparse_candidates` sparse zones, scan each
/// zone at most once per pick. A relocation draws its dense-zone anchor by
/// index in the zone's ascending router list, skipping the strong router's
/// slot, with no copy; into a zone that holds no other router it adds one
/// pass over the routers to find the giant-component member nearest to
/// it.
///
/// # Examples
///
/// ```
/// use wmn_search::movement::{Movement, SwapMovement};
/// use wmn_graph::topology::WmnTopology;
/// use wmn_model::prelude::*;
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let mut rng = rng_from_seed(2);
/// let placement = instance.random_placement(&mut rng);
/// let topo = WmnTopology::build(&instance, &placement)?;
///
/// let movement = SwapMovement::new(&instance, Default::default());
/// let action = movement.propose(&topo, &mut rng);
/// println!("proposed {action:?}");
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SwapMovement {
    config: SwapConfig,
    /// All disjoint windows ranked by client count, descending, binned for
    /// router lookup. Computed once — client positions are fixed per
    /// instance.
    zones: ZoneBins,
    total_clients: u64,
    /// The move proposed when the zones offer no swap.
    fallback: RandomMovement,
    /// State kept between proposals (interior mutability because
    /// [`Movement::propose`] takes `&self`).
    scratch: RefCell<ProposeScratch>,
}

/// What [`SwapMovement::propose`] keeps between calls: the zone census of
/// the last placement it saw, the router picks made in its zones, and
/// reusable candidate buffers. Every buffer only grows, to a size the
/// instance bounds (the zones are disjoint, so the census holds at most
/// four ids per router; a pool and a pick table hold one entry per zone),
/// so once warm a proposal performs zero heap allocations, keeping the
/// whole search inner loop allocation-free.
#[derive(Debug, Clone, Default)]
struct ProposeScratch {
    /// The census of the placement stamped `census_stamp`.
    census: ZoneCensus,
    /// The [`WmnTopology::placement_stamp`] of the placement the census
    /// describes, or `None` before the first proposal.
    census_stamp: Option<u64>,
    /// Per zone, at the census's placement: the strongest router in
    /// relocate mode (outside the giant component first) and in swap mode,
    /// and the weakest in swap mode.
    strong_relocate: ZonePicks,
    strong_swap: ZonePicks,
    weak: ZonePicks,
    dense_pool: Vec<usize>,
    sparse_pool: Vec<usize>,
}

/// One router pick per zone, made on its first use at a placement. A pick
/// reads only the zone's members, the radii and giant membership, which
/// equal placement stamps hold fixed, so it stands until the census moves
/// to another stamp. Algorithm 2's probes of one phase all propose at one
/// stamp, so each pick is made once per phase, not once per probe.
#[derive(Debug, Clone, Default)]
struct ZonePicks(Vec<Option<Option<RouterId>>>);

impl ZonePicks {
    /// Forgets every pick, for a placement with `zones` zones.
    fn reset(&mut self, zones: usize) {
        self.0.clear();
        self.0.resize(zones, None);
    }

    /// Zone `zone`'s pick, made by `pick` on first use.
    fn get_or_pick(
        &mut self,
        zone: usize,
        pick: impl FnOnce() -> Option<RouterId>,
    ) -> Option<RouterId> {
        *self.0[zone].get_or_insert_with(pick)
    }
}

impl SwapMovement {
    /// Creates the movement for `instance` with the given configuration.
    pub fn new(instance: &ProblemInstance, config: SwapConfig) -> Self {
        let cells = config.cells.max(1);
        let client_map = DensityMap::from_points(
            &instance.area(),
            instance.clients().iter().map(Client::position),
            cells,
            cells,
        );
        let ranked_zones = client_map.ranked_disjoint_windows(
            config.window_cells,
            config.window_cells,
            usize::MAX,
        );
        SwapMovement {
            config,
            zones: client_map.zone_bins(&ranked_zones),
            total_clients: client_map.total(),
            fallback: RandomMovement::new(instance),
            scratch: RefCell::new(ProposeScratch::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SwapConfig {
        &self.config
    }
}

fn weakest(topo: &WmnTopology, ids: impl IntoIterator<Item = RouterId>) -> Option<RouterId> {
    ids.into_iter().min_by(|&a, &b| {
        topo.radius(a)
            .partial_cmp(&topo.radius(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index().cmp(&b.index()))
    })
}

fn strongest(topo: &WmnTopology, ids: impl IntoIterator<Item = RouterId>) -> Option<RouterId> {
    ids.into_iter().max_by(|&a, &b| {
        topo.radius(a)
            .partial_cmp(&topo.radius(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.index().cmp(&a.index()))
    })
}

impl Movement for SwapMovement {
    fn name(&self) -> &'static str {
        "Swap"
    }

    fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
        let mut scratch = self.scratch.borrow_mut();
        let ProposeScratch {
            census,
            census_stamp,
            strong_relocate,
            strong_swap,
            weak,
            dense_pool,
            sparse_pool,
        } = &mut *scratch;
        let routers = (0..topo.router_count()).map(RouterId);

        // Router occupancy per zone (each router counts toward the first
        // zone, in rank order, whose rect contains it) and the routers
        // inside each zone rect. When the placement stamp differs from the
        // census's, the census follows the one or two routers the last
        // write moved if that write was made at the census's stamp (an
        // accepted move), and is retaken otherwise.
        let stamp = topo.placement_stamp();
        if *census_stamp != Some(stamp) {
            match census_stamp.and_then(|s| topo.moves_since(s)) {
                Some(moves) => {
                    for (id, from) in moves {
                        let i = u32::try_from(id.index()).expect("router ids fit u32");
                        self.zones.census_move(census, i, from, topo.position(id));
                    }
                }
                None => self
                    .zones
                    .census_into(routers.clone().map(|id| topo.position(id)), census),
            }
            *census_stamp = Some(stamp);
            for picks in [&mut *strong_relocate, &mut *strong_swap, &mut *weak] {
                picks.reset(self.zones.len());
            }
        }
        let census = &*census;
        let zone_routers = |zi: usize| census.members(zi).iter().map(|&i| RouterId(i as usize));

        // The paper's "dense threshold", operationalized as a router
        // deficit: a dense zone keeps attracting routers while it holds
        // fewer than clients/kappa of them (kappa = clients per router in
        // the whole instance). Zones are examined in client-count order, so
        // the densest under-served zone ranks first.
        let total_clients: f64 = self.total_clients as f64;
        let kappa = (total_clients / topo.router_count() as f64).max(1.0);
        dense_pool.clear();
        let dense_cap = self.config.dense_candidates.max(1);
        for zi in 0..self.zones.len() {
            if dense_pool.len() == dense_cap {
                break;
            }
            let clients = self.zones.clients(zi);
            if clients >= self.config.dense_threshold.max(1)
                && (clients as f64) / kappa > census.occupancy(zi) as f64
            {
                dense_pool.push(zi);
            }
        }

        // Step 3: the dense target. With a deficit somewhere, the dense zone
        // is an under-served one (relocate mode); otherwise it is the
        // densest zone that holds a router (literal swap mode).
        let relocate_mode = !dense_pool.is_empty();
        let dense_zi = if relocate_mode {
            *pick(dense_pool, rng).expect("nonempty pool")
        } else {
            match (0..self.zones.len()).find(|&zi| census.occupancy(zi) > 0) {
                Some(zi) => zi,
                None => return self.fallback.propose(topo, rng),
            }
        };
        let dense_rect = self.zones.rect(dense_zi);

        // Step 5 of Algorithm 3: the sparsest zones that still hold a
        // router to take the strong one from (never the dense zone itself).
        sparse_pool.clear();
        let sparse_cap = self.config.sparse_candidates.max(1);
        for zi in (0..self.zones.len()).rev() {
            if sparse_pool.len() == sparse_cap {
                break;
            }
            if zi != dense_zi
                && self.zones.clients(zi) <= self.config.sparse_threshold
                && census.occupancy(zi) > 0
            {
                sparse_pool.push(zi);
            }
        }
        let Some(&sparse_zi) = pick(sparse_pool, rng) else {
            return self.fallback.propose(topo, rng);
        };
        // A "sparse" zone at least as client-heavy as the dense target means
        // the zone structure is degenerate; fall back rather than swap
        // backwards.
        if self.zones.clients(sparse_zi) > self.zones.clients(dense_zi) {
            return self.fallback.propose(topo, rng);
        }

        // Step 6: most powerful router within the sparse area. In relocate
        // mode prefer a router *outside* the giant component — pulling a
        // giant member out would tear down the connectivity the move is
        // meant to build. The rects are closed, so a router on an edge the
        // two zones share is inside both.
        let strong = if relocate_mode {
            strong_relocate.get_or_pick(sparse_zi, || {
                strongest(
                    topo,
                    zone_routers(sparse_zi).filter(|&id| !topo.in_giant(id)),
                )
                .or_else(|| strongest(topo, zone_routers(sparse_zi)))
            })
        } else {
            strong_swap.get_or_pick(sparse_zi, || strongest(topo, zone_routers(sparse_zi)))
        };
        let Some(strong) = strong else {
            return self.fallback.propose(topo, rng);
        };

        if relocate_mode {
            // Under-served dense zone: pull the strong router in ("swap with
            // an empty slot" — the documented gap-fill). The landing spot is
            // anchored within link range of an existing router — a dense-
            // zone occupant when there is one, otherwise the giant-component
            // member closest to the zone — and biased toward the zone
            // center, so each accepted move both extends the mesh ("re-
            // establish mesh nodes network connections") and marches it
            // onto the client mass. An unanchored landing almost never
            // links under the mutual-range rule and would be rejected by
            // the improvement-only acceptance of Algorithm 1.
            let center = dense_rect.center();
            // A dense-zone anchor is drawn among the zone's routers other
            // than the strong one, in place in the ascending member list:
            // the k-th of the others sits at `k`, or at `k + 1` from the
            // strong router's slot on.
            let members = census.members(dense_zi);
            let strong_slot = members.binary_search(&(strong.index() as u32)).ok();
            let others = members.len() - usize::from(strong_slot.is_some());
            let anchor = if others > 0 {
                let k = rng.gen_range(0..others);
                let skip = strong_slot.is_some_and(|s| k >= s);
                Some(RouterId(members[k + usize::from(skip)] as usize))
            } else {
                routers
                    .filter(|&id| id != strong && topo.in_giant(id))
                    .min_by(|&a, &b| {
                        let da = topo.position(a).distance_squared(center);
                        let db = topo.position(b).distance_squared(center);
                        da.partial_cmp(&db)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.index().cmp(&b.index()))
                    })
            };
            let to = match anchor {
                Some(anchor) => {
                    let a = topo.position(anchor);
                    let reach = topo.radius(anchor).min(topo.radius(strong));
                    let toward = (center.y - a.y).atan2(center.x - a.x);
                    let angle = toward + rng.gen_range(-1.0..1.0);
                    let dist = reach * rng.gen_range(0.4..0.95);
                    Point::new(a.x + dist * angle.cos(), a.y + dist * angle.sin())
                }
                None => Point::new(
                    rng.gen_range(dense_rect.min().x..=dense_rect.max().x),
                    rng.gen_range(dense_rect.min().y..=dense_rect.max().y),
                ),
            };
            return MoveAction::Relocate { router: strong, to };
        }

        // Step 4 + 7: the literal Algorithm 3 swap — weakest router of the
        // dense zone exchanges positions with the strong one.
        match weak.get_or_pick(dense_zi, || weakest(topo, zone_routers(dense_zi))) {
            Some(weak) if weak != strong => MoveAction::Swap { a: weak, b: strong },
            _ => self.fallback.propose(topo, rng),
        }
    }
}

/// Uniformly picks an element of a slice, or `None` when empty.
fn pick<'a, T>(pool: &'a [T], rng: &mut dyn RngCore) -> Option<&'a T> {
    if pool.is_empty() {
        None
    } else {
        Some(&pool[rng.gen_range(0..pool.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_graph::density::CellWindow;
    use wmn_metrics::evaluator::Evaluator;
    use wmn_model::distribution::ClientDistribution;
    use wmn_model::geometry::Rect;
    use wmn_model::instance::InstanceSpec;
    use wmn_model::placement::Placement;
    use wmn_model::rng::rng_from_seed;

    fn setup(seed: u64) -> (ProblemInstance, WmnTopology) {
        let instance = InstanceSpec::paper_normal()
            .unwrap()
            .generate(seed)
            .unwrap();
        let mut rng = rng_from_seed(seed ^ 0xF00D);
        let placement = instance.random_placement(&mut rng);
        let topo = WmnTopology::build(&instance, &placement).unwrap();
        (instance, topo)
    }

    /// The paper's Normal instance at `--scale n`: `n`× routers and
    /// clients on a `√n`× side, with the client cluster re-derived for the
    /// larger area.
    fn scaled_normal(n: usize, seed: u64) -> ProblemInstance {
        let base = InstanceSpec::paper_normal().unwrap();
        let area = wmn_model::Area::square(base.area().width() * (n as f64).sqrt()).unwrap();
        InstanceSpec::new(
            area,
            base.router_count() * n,
            base.client_count() * n,
            ClientDistribution::paper_normal(&area).unwrap(),
            base.radio(),
        )
        .unwrap()
        .generate(seed)
        .unwrap()
    }

    /// Reference swap proposal: each router's zone is found by scanning
    /// the ranked windows' rects in rank order (O(routers × zones)), and
    /// the sparse- and dense-rect routers by two more full scans. The
    /// binned [`SwapMovement`] must match it draw for draw.
    struct RankOrderSwap {
        config: SwapConfig,
        client_map: DensityMap,
        ranked_zones: Vec<CellWindow>,
        fallback: RandomMovement,
    }

    impl RankOrderSwap {
        fn new(instance: &ProblemInstance, config: SwapConfig) -> Self {
            let cells = config.cells.max(1);
            let client_map = DensityMap::from_points(
                &instance.area(),
                instance.clients().iter().map(Client::position),
                cells,
                cells,
            );
            let ranked_zones = client_map.ranked_disjoint_windows(
                config.window_cells,
                config.window_cells,
                usize::MAX,
            );
            RankOrderSwap {
                config,
                client_map,
                ranked_zones,
                fallback: RandomMovement::new(instance),
            }
        }

        fn zone_of(&self, p: Point) -> Option<usize> {
            self.ranked_zones
                .iter()
                .position(|z| self.client_map.window_rect(z).contains(p))
        }

        fn clients(&self, zi: usize) -> u64 {
            self.client_map.window_count(&self.ranked_zones[zi])
        }

        fn routers_in(topo: &WmnTopology, rect: &Rect) -> Vec<RouterId> {
            (0..topo.router_count())
                .map(RouterId)
                .filter(|&id| rect.contains(topo.position(id)))
                .collect()
        }

        fn propose(&self, topo: &WmnTopology, rng: &mut dyn RngCore) -> MoveAction {
            let mut routers_per_zone = vec![0usize; self.ranked_zones.len()];
            for i in 0..topo.router_count() {
                if let Some(zi) = self.zone_of(topo.position(RouterId(i))) {
                    routers_per_zone[zi] += 1;
                }
            }
            let total_clients = self.client_map.total() as f64;
            let kappa = (total_clients / topo.router_count() as f64).max(1.0);
            let mut dense_pool = Vec::new();
            for (zi, &occupancy) in routers_per_zone.iter().enumerate() {
                if dense_pool.len() == self.config.dense_candidates.max(1) {
                    break;
                }
                let clients = self.clients(zi);
                if clients >= self.config.dense_threshold.max(1)
                    && (clients as f64) / kappa > occupancy as f64
                {
                    dense_pool.push(zi);
                }
            }
            let relocate_mode = !dense_pool.is_empty();
            let dense_zi = if relocate_mode {
                *pick(&dense_pool, rng).unwrap()
            } else {
                match (0..self.ranked_zones.len()).find(|&zi| routers_per_zone[zi] > 0) {
                    Some(zi) => zi,
                    None => return self.fallback.propose(topo, rng),
                }
            };
            let dense_rect = self.client_map.window_rect(&self.ranked_zones[dense_zi]);
            let mut sparse_pool = Vec::new();
            for zi in (0..self.ranked_zones.len()).rev() {
                if sparse_pool.len() == self.config.sparse_candidates.max(1) {
                    break;
                }
                if zi != dense_zi
                    && self.clients(zi) <= self.config.sparse_threshold
                    && routers_per_zone[zi] > 0
                {
                    sparse_pool.push(zi);
                }
            }
            let Some(&sparse_zi) = pick(&sparse_pool, rng) else {
                return self.fallback.propose(topo, rng);
            };
            if self.clients(sparse_zi) > self.clients(dense_zi) {
                return self.fallback.propose(topo, rng);
            }
            let sparse_rect = self.client_map.window_rect(&self.ranked_zones[sparse_zi]);
            let sparse_routers = Self::routers_in(topo, &sparse_rect);
            let strong = if relocate_mode {
                let non_giant: Vec<RouterId> = sparse_routers
                    .iter()
                    .copied()
                    .filter(|&id| !topo.in_giant(id))
                    .collect();
                strongest(topo, non_giant)
                    .or_else(|| strongest(topo, sparse_routers.iter().copied()))
            } else {
                strongest(topo, sparse_routers.iter().copied())
            };
            let Some(strong) = strong else {
                return self.fallback.propose(topo, rng);
            };
            if relocate_mode {
                let center = dense_rect.center();
                let mut dense_routers = Self::routers_in(topo, &dense_rect);
                dense_routers.retain(|&id| id != strong);
                let anchor = pick(&dense_routers, rng).copied().or_else(|| {
                    (0..topo.router_count())
                        .map(RouterId)
                        .filter(|&id| id != strong && topo.in_giant(id))
                        .min_by(|&a, &b| {
                            let da = topo.position(a).distance_squared(center);
                            let db = topo.position(b).distance_squared(center);
                            da.partial_cmp(&db)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(a.index().cmp(&b.index()))
                        })
                });
                let to = match anchor {
                    Some(anchor) => {
                        let a = topo.position(anchor);
                        let reach = topo.radius(anchor).min(topo.radius(strong));
                        let toward = (center.y - a.y).atan2(center.x - a.x);
                        let angle = toward + rng.gen_range(-1.0..1.0);
                        let dist = reach * rng.gen_range(0.4..0.95);
                        Point::new(a.x + dist * angle.cos(), a.y + dist * angle.sin())
                    }
                    None => Point::new(
                        rng.gen_range(dense_rect.min().x..=dense_rect.max().x),
                        rng.gen_range(dense_rect.min().y..=dense_rect.max().y),
                    ),
                };
                return MoveAction::Relocate { router: strong, to };
            }
            match weakest(topo, Self::routers_in(topo, &dense_rect)) {
                Some(weak) if weak != strong => MoveAction::Swap { a: weak, b: strong },
                _ => self.fallback.propose(topo, rng),
            }
        }
    }

    #[test]
    fn binned_zones_match_the_rank_order_scan() {
        // Scales 1, 2 and 3: sides 128, 128·√2 and 128·√3, the last two
        // not multiples of the 16-cell grid.
        for scale in [1, 2, 3] {
            let instance = scaled_normal(scale, 5);
            let movement = SwapMovement::new(&instance, SwapConfig::default());
            let reference = RankOrderSwap::new(&instance, SwapConfig::default());
            let area = instance.area();
            let mut rng = rng_from_seed(scale as u64);
            // Per axis: every cell edge k·side/16 and its float neighbors,
            // the area bounds (where clamped positions land), points off
            // the area, and a few random coordinates.
            let mut axis = |side: f64| {
                let mut v = vec![-1.0, 0.0, side, side + 1.0];
                for k in 0..=16 {
                    let edge = k as f64 * (side / 16.0);
                    v.extend([edge.next_down(), edge, edge.next_up()]);
                }
                v.extend((0..16).map(|_| rng.gen_range(0.0..=side)));
                v
            };
            let (xs, ys) = (axis(area.width()), axis(area.height()));
            let mut points: Vec<Point> = xs
                .iter()
                .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y)))
                .collect();
            points.extend((0..2000).map(|_| {
                Point::new(
                    rng.gen_range(0.0..=area.width()),
                    rng.gen_range(0.0..=area.height()),
                )
            }));
            points.push(area.clamp_point(Point::new(1e9, -1e9)));

            let mut expected = vec![0usize; movement.zones.len()];
            for &p in &points {
                let zone = reference.zone_of(p);
                assert_eq!(movement.zones.zone_of(p), zone, "scale {scale}, {p:?}");
                if let Some(z) = zone {
                    expected[z] += 1;
                }
            }
            let mut census = ZoneCensus::default();
            movement
                .zones
                .census_into(points.iter().copied(), &mut census);
            for (z, window) in reference.ranked_zones.iter().enumerate() {
                assert_eq!(census.occupancy(z), expected[z], "scale {scale}, zone {z}");
                let rect = reference.client_map.window_rect(window);
                let members: Vec<u32> = (0..points.len() as u32)
                    .filter(|&i| rect.contains(points[i as usize]))
                    .collect();
                assert_eq!(census.members(z), members, "scale {scale}, zone {z}");
            }
        }
    }

    #[test]
    fn binned_proposals_match_the_rank_order_reference() {
        // One movement proposes against three topologies of one instance:
        // two built from different placements, and a third overwritten
        // every 48 proposals by `clone_from` of one of the others, between
        // two proposals on it. Each proposal is applied, scored, and kept
        // unless it lowers its topology's fitness (else undone). The
        // binned proposal must equal the reference's move for move and
        // leave the RNG in the same state. A census keyed by the
        // topology's address goes stale after an accepted move; one keyed
        // by a count of the topology's own writes is reused across
        // topologies with equal counts; one that follows an accepted move
        // or swap wrongly (or follows a write not made at its stamp)
        // drifts from the reference. An unreachable dense threshold
        // forces literal swap mode.
        let swap_only = SwapConfig {
            dense_threshold: u64::MAX,
            ..SwapConfig::default()
        };
        // Which topology each proposal targets: runs of one to four
        // proposals on the same one, then a run of 16, a search phase's
        // worth, on one topology, whose rejected probes all propose at one
        // placement and reuse its zone picks.
        const SCHEDULE: [usize; 28] = [
            0, 0, 0, 0, 1, 2, 2, 1, 1, 1, 0, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        ];
        for scale in [4, 16] {
            let instance = scaled_normal(scale, 40 + scale as u64);
            let evaluator = Evaluator::paper_default(&instance);
            for config in [SwapConfig::default(), swap_only] {
                let movement = SwapMovement::new(&instance, config);
                let reference = RankOrderSwap::new(&instance, config);
                let mut rng = rng_from_seed(scale as u64);
                let mut topos = [(); 3].map(|()| {
                    evaluator
                        .topology(&instance.random_placement(&mut rng))
                        .unwrap()
                });
                let mut current = topos
                    .each_ref()
                    .map(|topo| evaluator.evaluate_topology(topo).fitness);
                let mut ref_rng = rng.clone();
                let (mut swaps, mut accepted) = (0, 0);
                for step in 0..600 {
                    if step % 48 == 6 {
                        let source = (step / 48) % 2;
                        let [a, b, copy] = &mut topos;
                        copy.clone_from(if source == 0 { a } else { b });
                        current[2] = current[source];
                    }
                    let which = SCHEDULE[step % SCHEDULE.len()];
                    let topo = &mut topos[which];
                    let action = movement.propose(topo, &mut rng);
                    let expected = reference.propose(topo, &mut ref_rng);
                    assert_eq!(
                        action, expected,
                        "scale {scale}, {config:?}, proposal {step} on topology {which}"
                    );
                    swaps += usize::from(matches!(action, MoveAction::Swap { .. }));
                    let undo = action.apply(topo);
                    let fitness = evaluator.evaluate_topology(topo).fitness;
                    if fitness >= current[which] {
                        current[which] = fitness;
                        accepted += 1;
                    } else {
                        undo.undo(topo);
                    }
                }
                assert_eq!(rng, ref_rng, "scale {scale}, {config:?}");
                assert!(accepted > 0, "scale {scale}, {config:?}: no move accepted");
                if config == swap_only {
                    assert!(swaps > 0, "scale {scale}: swap mode never swapped");
                }
            }
        }
    }

    #[test]
    fn apply_then_undo_restores_state() {
        let (instance, mut topo) = setup(1);
        let mut rng = rng_from_seed(2);
        let movements: Vec<Box<dyn Movement>> = vec![
            Box::new(RandomMovement::new(&instance)),
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        ];
        for movement in &movements {
            for _ in 0..20 {
                let snapshot = (topo.giant_size(), topo.covered_count(), topo.placement());
                let action = movement.propose(&topo, &mut rng);
                let undo = action.apply(&mut topo);
                undo.undo(&mut topo);
                assert_eq!(
                    (topo.giant_size(), topo.covered_count(), topo.placement()),
                    snapshot,
                    "{} move not undone cleanly",
                    movement.name()
                );
            }
        }
    }

    #[test]
    fn apply_to_placement_tracks_topology_apply() {
        // Placement-level application must land the same placements as the
        // topology-level one (for in-area targets, which movements propose).
        let (instance, mut topo) = setup(2);
        let mut placement = topo.placement();
        let mut rng = rng_from_seed(9);
        let movements: Vec<Box<dyn Movement>> = vec![
            Box::new(RandomMovement::new(&instance)),
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        ];
        for movement in &movements {
            for _ in 0..30 {
                let mut action = movement.propose(&topo, &mut rng);
                // Placement-level application is verbatim (no clamping);
                // clamp the proposal first, as placement-level producers do.
                if let MoveAction::Relocate { to, .. } = &mut action {
                    *to = instance.area().clamp_point(*to);
                }
                action.apply(&mut topo);
                action.apply_to_placement(&mut placement);
                assert_eq!(placement, topo.placement(), "{}", movement.name());
            }
        }
    }

    #[test]
    fn random_movement_targets_every_router_eventually() {
        let (instance, topo) = setup(3);
        let movement = RandomMovement::new(&instance);
        let mut rng = rng_from_seed(5);
        let mut hit = vec![false; topo.router_count()];
        for _ in 0..4000 {
            if let MoveAction::Relocate { router, .. } = movement.propose(&topo, &mut rng) {
                hit[router.index()] = true;
            }
        }
        assert!(hit.iter().all(|&b| b), "some router never proposed");
    }

    #[test]
    fn swap_proposals_are_swaps_or_dense_relocations() {
        let (instance, topo) = setup(7);
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(11);
        let mut swaps = 0;
        let mut relocations = 0;
        for _ in 0..200 {
            match movement.propose(&topo, &mut rng) {
                MoveAction::Swap { a, b } => {
                    assert_ne!(a, b);
                    swaps += 1;
                }
                MoveAction::Relocate { .. } => relocations += 1,
            }
        }
        assert_eq!(swaps + relocations, 200);
        // On a random placement over a Normal client cluster both kinds
        // occur across 200 proposals.
        assert!(
            relocations > 0,
            "dense windows start empty: expect relocations"
        );
    }

    #[test]
    fn swap_swaps_weak_in_dense_with_strong_in_sparse() {
        // No-deficit scenario (both zones hold their fair share of routers,
        // kappa = 40 clients / 4 routers = 10):
        //   zone A: 30 clients, 3 routers (needs 3) — weakest is router 0;
        //   zone B: 10 clients, 1 router (needs 1) — the strong router 3.
        // The literal Algorithm 3 swap must pair router 0 with router 3.
        use wmn_model::geometry::Point;
        use wmn_model::instance::InstanceBuilder;
        use wmn_model::radio::RadioProfile;
        let area = wmn_model::Area::square(128.0).unwrap();
        let prof = RadioProfile::new(2.0, 8.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .router(prof, 2.0) // weakest, in dense zone A
            .router(prof, 5.0) // in zone A
            .router(prof, 6.0) // in zone A
            .router(prof, 8.0) // strongest, in sparse zone B
            .clients((0..30).map(|i| Point::new(2.0 + (i % 6) as f64, 2.0 + (i / 6) as f64 * 2.0)))
            .clients(
                (0..10).map(|i| Point::new(100.0 + (i % 4) as f64, 100.0 + (i / 4) as f64 * 2.0)),
            )
            .build()
            .unwrap();
        let placement = Placement::from_points(vec![
            Point::new(6.0, 6.0),
            Point::new(10.0, 10.0),
            Point::new(12.0, 4.0),
            Point::new(104.0, 104.0),
        ]);
        let topo = WmnTopology::build(&instance, &placement).unwrap();
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(1);
        let mut saw_target_swap = false;
        for _ in 0..100 {
            if let MoveAction::Swap { a, b } = movement.propose(&topo, &mut rng) {
                assert_eq!(
                    (a, b),
                    (RouterId(0), RouterId(3)),
                    "swap must pair weak-in-dense with strong-in-sparse"
                );
                saw_target_swap = true;
            }
        }
        assert!(saw_target_swap, "the canonical swap was never proposed");
    }

    #[test]
    fn swap_relocates_lone_router_into_empty_dense_zone() {
        // A single router far from the client cluster: no anchor exists, so
        // the gap-fill lands the router uniformly inside the dense window.
        use wmn_model::geometry::Point;
        use wmn_model::instance::InstanceBuilder;
        use wmn_model::radio::RadioProfile;
        let area = wmn_model::Area::square(128.0).unwrap();
        let prof = RadioProfile::new(2.0, 8.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .router(prof, 8.0)
            .clients((0..40).map(|i| Point::new(4.0 + (i % 8) as f64, 4.0 + (i / 8) as f64)))
            .build()
            .unwrap();
        let placement = Placement::from_points(vec![Point::new(100.0, 100.0)]);
        let topo = WmnTopology::build(&instance, &placement).unwrap();
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(1);
        let mut landed_in_cluster_window = false;
        for _ in 0..100 {
            if let MoveAction::Relocate { router, to } = movement.propose(&topo, &mut rng) {
                if router == RouterId(0) && to.x < 32.0 && to.y < 32.0 {
                    landed_in_cluster_window = true;
                }
            }
        }
        assert!(
            landed_in_cluster_window,
            "empty dense zone must pull the router in"
        );
    }

    #[test]
    fn swap_relocation_lands_within_link_range_of_an_anchor() {
        // Dense zone already occupied: the incoming router must land within
        // mutual link range of an occupant so the move can improve
        // connectivity.
        use wmn_model::geometry::Point;
        use wmn_model::instance::InstanceBuilder;
        use wmn_model::radio::RadioProfile;
        let area = wmn_model::Area::square(128.0).unwrap();
        let prof = RadioProfile::new(2.0, 8.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .router(prof, 6.0) // anchor, sits on the cluster
            .router(prof, 8.0) // strong, far away
            .clients((0..60).map(|i| Point::new(4.0 + (i % 8) as f64, 4.0 + (i / 8) as f64)))
            .build()
            .unwrap();
        let placement =
            Placement::from_points(vec![Point::new(8.0, 8.0), Point::new(100.0, 100.0)]);
        let topo = WmnTopology::build(&instance, &placement).unwrap();
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(2);
        let mut anchored = 0;
        let mut relocations = 0;
        for _ in 0..200 {
            if let MoveAction::Relocate { router, to } = movement.propose(&topo, &mut rng) {
                relocations += 1;
                // Within min(6, 8) of the anchor.
                if router == RouterId(1) && to.distance_squared(Point::new(8.0, 8.0)) <= 36.0 {
                    anchored += 1;
                }
            }
        }
        assert!(relocations > 0);
        assert!(
            anchored * 2 >= relocations,
            "most relocations should land in link range of the anchor: {anchored}/{relocations}"
        );
    }

    #[test]
    fn relocation_anchor_skips_the_strong_router_on_a_shared_edge() {
        // Zone A = [0, 16]² holds all 60 clients, and zone B = [16, 32] ×
        // [0, 16] beside it none. Router 0, the strongest, sits on their
        // shared edge x = 16, so it is a member of both zones; routers 1
        // and 3 form the giant component inside B, and router 2 sits
        // inside A. A is under-served (60 clients at 15 per router need 4
        // routers), so each proposal pulls router 0 out of B into A,
        // anchored on A's other member, router 2, never on router 0 itself.
        use wmn_model::instance::InstanceBuilder;
        use wmn_model::radio::RadioProfile;
        let area = wmn_model::Area::square(128.0).unwrap();
        let prof = RadioProfile::new(2.0, 8.0).unwrap();
        let instance = InstanceBuilder::new(area)
            .router(prof, 8.0)
            .router(prof, 2.0)
            .router(prof, 5.0)
            .router(prof, 2.0)
            .clients(
                (0..60)
                    .map(|i| Point::new(1.0 + (i % 10) as f64 * 1.5, 1.0 + (i / 10) as f64 * 2.5)),
            )
            .build()
            .unwrap();
        let anchor = Point::new(4.0, 4.0);
        let placement = Placement::from_points(vec![
            Point::new(16.0, 8.0),
            Point::new(28.0, 12.0),
            anchor,
            Point::new(29.0, 12.0),
        ]);
        let topo = WmnTopology::build(&instance, &placement).unwrap();
        assert!(topo.in_giant(RouterId(1)) && !topo.in_giant(RouterId(0)));
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let reference = RankOrderSwap::new(&instance, SwapConfig::default());
        let mut rng = rng_from_seed(3);
        let mut ref_rng = rng.clone();
        for step in 0..50 {
            let action = movement.propose(&topo, &mut rng);
            assert_eq!(
                action,
                reference.propose(&topo, &mut ref_rng),
                "proposal {step}"
            );
            let MoveAction::Relocate { router, to } = action else {
                panic!("proposal {step} is not a relocation: {action:?}");
            };
            assert_eq!(router, RouterId(0));
            // Within 0.95 of min(5, 8) of router 2.
            assert!(
                to.distance_squared(anchor) <= 4.75 * 4.75,
                "proposal {step}: {to:?}"
            );
        }
    }

    #[test]
    fn movement_names() {
        let (instance, _) = setup(1);
        assert_eq!(RandomMovement::new(&instance).name(), "Random");
        assert_eq!(
            SwapMovement::new(&instance, SwapConfig::default()).name(),
            "Swap"
        );
    }
}

//! Dynamic connectivity: component-local repair of [`Components`] under
//! edge insertions and deletions.
//!
//! The paper's primary objective — giant-component size — makes
//! connectivity the one derived quantity *every* move, swap, and GA child
//! must refresh. The per-move path of the incremental topology engine used
//! to do that with a whole-graph union–find rescan
//! ([`Components::rebuild_incremental`]): reset *n* singletons, re-union
//! all *m* edges, relabel. [`DynamicConnectivity`] replaces that rescan
//! with **component-local repair** driven by the edge diff the grid-local
//! edge repair already computes:
//!
//! * **Insertions are pure DSU unions.** Component labels are canonical
//!   (`0..count`), so an inserted edge `(u, v)` merges the label classes of
//!   its endpoints in a small union–find over *component ids* — O(α), no
//!   node is touched.
//! * **Deletions run a bounded bidirectional BFS** from the severed
//!   endpoints to decide split-vs-still-connected. The search walks the
//!   *final* adjacency lists plus an overlay of the not-yet-processed
//!   deleted edges, which makes processing a batched diff exactly
//!   equivalent to deleting one edge at a time (see *Invariants* below).
//!   Two fast paths settle a deletion without searching: a now-isolated
//!   endpoint is split off directly, and a neighbor shared by both
//!   endpoints in the final adjacency (a triangle) proves they stay
//!   connected — sound because the overlay only ever *adds* edges on
//!   top of the final adjacency.
//!   If the endpoints meet, the component survived and nothing changes; if
//!   one frontier exhausts, that side is a complete component of the
//!   current graph and is split off by relabeling exactly its nodes.
//! * **An explicit cost cap bounds every search.** When a deletion's
//!   frontier exceeds the cap (default `128 + 8·⌈√n⌉` edge visits, see
//!   [`DynamicConnectivity::set_cost_cap`]), the engine abandons the batch
//!   and falls back to the one full [`Components::rebuild_incremental`]
//!   rescan — correctness never depends on the cap.
//!
//! After the diff is applied, one fused O(*n*) pass rewrites the labels in
//! canonical first-appearance order (the order BFS assigns), recounts the
//! sizes, and re-picks the giant — so the resulting [`Components`] is
//! **bit-identical** to a from-scratch build, and every downstream
//! consumer (coverage rules, fitness, traces) sees exactly the reference
//! results. The equivalence and proptest suites pin this.
//!
//! Edge endpoints are `u32` router ids throughout (the crate-wide id-width
//! invariant), matching the arena-backed adjacency lists; the overlay and
//! search queues store the same width so a repair's working set stays
//! compact.
//!
//! # Invariants (split detection)
//!
//! Let `A` be the final adjacency and `D` the multiset of deleted edges of
//! one repair. The engine processes all insertions first, then deletions
//! in stream order against the graph `G = A ∪ pending(D)`:
//!
//! 1. *After the insertion phase* the label partition (read through the
//!    id-DSU) equals the components of `A ∪ D`: the pre-repair edge set
//!    plus insertions has the same component structure, because every
//!    pre-repair edge either survived into `A` or is in `D`, and every
//!    inserted edge either survived into `A` or was deleted again into `D`.
//! 2. *Each deletion* `(u, v)` removes one overlay copy and re-certifies
//!    `u ~ v` on the remaining `G`. Both endpoints are connected via the
//!    edge being deleted an instant earlier, so the bidirectional search
//!    either meets (partition unchanged) or exhausts one side `S`, which
//!    is then a complete component of `G` and is split off. The partition
//!    therefore always equals the components of the *current* `G`.
//! 3. *After the last deletion* `G = A`, so the partition is exactly the
//!    final component structure; the canonicalization pass only renames.
//!
//! Because splits happen strictly after all unions, a split's fresh label
//! never has to be "un-merged" from the id-DSU.
//!
//! # Fallback rule
//!
//! The only fallback is the cost cap: a deletion whose bidirectional
//! frontier scans more than the cap's edge visits aborts the batch, the
//! overlay is torn down, and [`Components::rebuild_incremental`] repairs
//! everything in one whole-graph rescan. The cap guarantees every repair
//! costs at most O(deletions · cap + insertions + n) before the engine
//! resorts to the O(n + m) rescan, keeping the common case (local churn in
//! a large graph) sub-linear in deletion count while pathological cuts
//! (halving a giant component) stay correct.

use crate::adjacency::MeshAdjacency;
use crate::components::Components;
use crate::dsu::UnionFind;

/// Cumulative counters of a [`DynamicConnectivity`] engine, for benches,
/// tests, and telemetry that need to prove which path ran. The struct
/// lives in `wmn-obs` (the observability substrate) so every layer can
/// aggregate it; see [`wmn_obs::ConnectivityStats`] for the field docs
/// and the `reset`/`merge`/`delta_since` window operations.
pub use wmn_obs::ConnectivityStats;

/// How one [`DynamicConnectivity::apply_edge_diff`] call repaired the
/// component structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The diff was applied component-locally and left the partition
    /// untouched (no merge joined components, no deletion split one): the
    /// canonical labels, sizes, and giant are provably the pre-repair
    /// ones, so even the canonicalization pass was skipped.
    Unchanged,
    /// The diff was applied component-locally and the partition changed.
    Changed,
    /// The cost cap forced the whole-graph rescan fallback.
    FellBack,
}

/// Where a deletion's bidirectional search ended.
enum SearchOutcome {
    /// The frontiers met: the endpoints are still connected.
    Connected,
    /// One side exhausted: its queue holds a complete component.
    Split(Side),
    /// The cost cap was exceeded before a decision.
    CapExceeded,
}

#[derive(Clone, Copy, PartialEq)]
enum Side {
    A,
    B,
}

/// Component-local connectivity repair engine (see the module docs for the
/// algorithm and its invariants).
///
/// The engine is pure scratch: component state lives in the
/// [`Components`] it repairs, so engines need no synchronization with the
/// graph between repairs, cost nothing to clone away, and can be dropped
/// freely. All buffers reach steady-state capacity after a few repairs.
///
/// # Examples
///
/// ```
/// use wmn_graph::adjacency::{LinkModel, MeshAdjacency};
/// use wmn_graph::components::Components;
/// use wmn_graph::connectivity::DynamicConnectivity;
/// use wmn_graph::dsu::UnionFind;
/// use wmn_model::geometry::{Area, Point};
///
/// let area = Area::square(50.0)?;
/// let radii = vec![3.0; 3];
/// let chain = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(10.0, 0.0)];
/// let before = MeshAdjacency::build(&area, &chain, &radii, LinkModel::CoverageOverlap);
/// let mut components = Components::from_adjacency(&before);
/// assert_eq!(components.giant_size(), 3);
///
/// // Move the middle router away: both its edges disappear.
/// let moved = vec![chain[0], Point::new(40.0, 40.0), chain[2]];
/// let after = MeshAdjacency::build(&area, &moved, &radii, LinkModel::CoverageOverlap);
/// let mut engine = DynamicConnectivity::new();
/// let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
/// engine.apply_edge_diff(&after, &mut components, &[], &[(0, 1), (1, 2)], &mut uf, &mut scratch);
/// assert_eq!(components, Components::from_adjacency(&after));
/// assert_eq!(components.giant_size(), 1);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicConnectivity {
    /// Union–find over component *ids* (not nodes): insertions union here.
    id_dsu: UnionFind,
    /// Pending-deletion overlay adjacency, populated per repair and torn
    /// down before returning (`touched` tracks the dirtied rows).
    extra: Vec<Vec<u32>>,
    touched: Vec<u32>,
    /// Bidirectional-search visit stamps (`epoch`-based, never refilled in
    /// the hot path) and the two frontier queues; after an exhausted
    /// search a queue holds the split side's complete node set.
    mark: Vec<u32>,
    epoch: u32,
    queue_a: Vec<u32>,
    queue_b: Vec<u32>,
    /// `Some(cap)` overrides the default edge-visit budget per deletion.
    cost_cap: Option<usize>,
    stats: ConnectivityStats,
}

impl DynamicConnectivity {
    /// Creates an engine with the default cost cap.
    pub fn new() -> Self {
        DynamicConnectivity::default()
    }

    /// Overrides the per-deletion edge-visit budget; `None` restores the
    /// default `128 + 8·⌈√n⌉`. A cap of `Some(0)` forces every deletion
    /// that requires a search onto the whole-graph rescan fallback
    /// (useful to pin the fallback path in tests; degree-zero singleton
    /// deletions are decided without any search and never fall back).
    pub fn set_cost_cap(&mut self, cap: Option<usize>) {
        self.cost_cap = cap;
    }

    /// The per-deletion edge-visit budget in effect for an `n`-node graph.
    pub fn cost_cap(&self, n: usize) -> usize {
        self.cost_cap
            .unwrap_or_else(|| 128 + 8 * ((n as f64).sqrt().ceil() as usize))
    }

    /// Cumulative engine counters since construction (or the last
    /// [`reset_stats`](DynamicConnectivity::reset_stats)).
    pub fn stats(&self) -> ConnectivityStats {
        self.stats
    }

    /// Zeroes the engine counters, starting a fresh measurement window
    /// (repair state and buffers are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Repairs `components` (which must describe the graph *before* the
    /// diff) to match `adj` (the graph *after* the diff), given the edge
    /// `inserted`/`deleted` lists (u32 endpoints), in any order and with
    /// duplicates allowed, as long as "pre-graph edges plus insertions"
    /// equals "post-graph edges plus deletions" as sets — exactly what
    /// per-node old-vs-new neighbor diffs produce. `fallback_uf` and
    /// `label_scratch` are the caller-owned buffers the whole-graph rescan
    /// fallback (and the canonicalization pass) reuse.
    ///
    /// Returns how the repair went (see [`RepairOutcome`]); the resulting
    /// `components` is canonical and identical in every case.
    ///
    /// # Panics
    ///
    /// Panics if `components.node_count() != adj.node_count()` or an edge
    /// endpoint is out of range.
    pub fn apply_edge_diff(
        &mut self,
        adj: &MeshAdjacency,
        components: &mut Components,
        inserted: &[(u32, u32)],
        deleted: &[(u32, u32)],
        fallback_uf: &mut UnionFind,
        label_scratch: &mut Vec<u32>,
    ) -> RepairOutcome {
        assert_eq!(
            components.node_count(),
            adj.node_count(),
            "components and adjacency must describe the same node set"
        );
        self.stats.repairs += 1;
        if inserted.is_empty() && deleted.is_empty() {
            return RepairOutcome::Unchanged;
        }
        let n = adj.node_count();
        self.ensure_capacity(n);
        let base = components.count();
        self.id_dsu.reset(base + deleted.len());

        // Phase 1 — insertions are pure DSU unions over component ids.
        self.stats.insertions += inserted.len() as u64;
        let mut merges = 0;
        {
            let labels = components.labels();
            for &(u, v) in inserted {
                if self
                    .id_dsu
                    .union(labels[u as usize] as usize, labels[v as usize] as usize)
                {
                    merges += 1;
                }
            }
        }
        self.stats.merges += merges;

        // Phase 2 — deletions, against the final adjacency plus the
        // overlay of still-pending deleted edges (one-at-a-time semantics).
        for &(u, v) in deleted {
            self.extra[u as usize].push(v);
            self.extra[v as usize].push(u);
            self.touched.push(u);
            self.touched.push(v);
        }
        // Per-deletion cap plus a whole-repair visit budget of roughly two
        // rescans' worth of edge work: once the searches have cost about as
        // much as the fallback would, stop sinking work into them (only
        // large batched diffs — GA crossover children at scale — ever get
        // near this; single-move churn stays far below it).
        let cap = self.cost_cap(n);
        let budget = (2 * (n + 2 * adj.edge_count())).max(cap);
        let mut spent = 0usize;
        let mut next_fresh = base as u32;
        let mut splits = 0;
        let mut capped = false;
        for &(u, v) in deleted {
            self.stats.deletions += 1;
            remove_one(&mut self.extra[u as usize], v);
            remove_one(&mut self.extra[v as usize], u);
            // Singleton fast path: an endpoint with no remaining edges (in
            // the adjacency or the overlay) just lost its last link, so it
            // is a complete component by itself — and the rest of its old
            // component stays connected, because a degree-one node lies on
            // no other path. Both-isolated means the component was exactly
            // the edge's two endpoints; splitting one side off is enough.
            let u_isolated =
                adj.neighbors(u as usize).is_empty() && self.extra[u as usize].is_empty();
            if u_isolated
                || (adj.neighbors(v as usize).is_empty() && self.extra[v as usize].is_empty())
            {
                let lone = if u_isolated { u } else { v };
                components.labels_mut()[lone as usize] = next_fresh;
                next_fresh += 1;
                splits += 1;
                continue;
            }
            // Triangle fast path: a neighbor shared by both endpoints in
            // the *final* adjacency proves they stay connected — the
            // overlay only ever adds edges on top of `adj`, so any
            // final-adjacency path already exists in the one-at-a-time
            // graph the search would explore. Geometric meshes are
            // triangle-rich, so this settles most still-connected
            // deletions with a handful of comparisons (mean degree is
            // tiny) instead of a full search setup.
            if shares_element(adj.neighbors(u as usize), adj.neighbors(v as usize)) {
                self.stats.triangle_shortcuts += 1;
                continue;
            }
            if spent > budget {
                capped = true;
                break;
            }
            match self.bidirectional_search(adj, u, v, cap.min(budget - spent + 1), &mut spent) {
                SearchOutcome::Connected => {}
                SearchOutcome::Split(side) => {
                    splits += 1;
                    let fresh = next_fresh;
                    next_fresh += 1;
                    let split_nodes = match side {
                        Side::A => &self.queue_a,
                        Side::B => &self.queue_b,
                    };
                    let labels = components.labels_mut();
                    for &x in split_nodes {
                        labels[x as usize] = fresh;
                    }
                }
                SearchOutcome::CapExceeded => {
                    capped = true;
                    break;
                }
            }
        }
        self.stats.splits += splits;
        for &t in &self.touched {
            self.extra[t as usize].clear();
        }
        self.touched.clear();

        if capped {
            self.stats.fallbacks += 1;
            components.rebuild_incremental(adj, fallback_uf, label_scratch);
            return RepairOutcome::FellBack;
        }
        if merges == 0 && splits == 0 {
            // No component joined and none split: the pre-repair canonical
            // labels, sizes, and giant still describe the partition.
            return RepairOutcome::Unchanged;
        }
        components.relabel_canonical(&mut self.id_dsu, label_scratch);
        RepairOutcome::Changed
    }

    /// Bidirectional search from the endpoints of a just-deleted edge over
    /// the final adjacency plus the pending-deletion overlay, alternating
    /// one node expansion per side. Stops at the first cross-side contact
    /// (still connected), at the first exhausted side (split: that queue
    /// then holds the side's complete node set), or when more than `cap`
    /// edges have been visited.
    fn bidirectional_search(
        &mut self,
        adj: &MeshAdjacency,
        u: u32,
        v: u32,
        cap: usize,
        spent: &mut usize,
    ) -> SearchOutcome {
        // Two fresh stamps per search; `mark` is only ever compared against
        // the current pair, so stale values never alias.
        if self.epoch >= u32::MAX - 2 {
            self.mark.fill(0);
            self.epoch = 0;
        }
        let mark_a = self.epoch + 1;
        let mark_b = self.epoch + 2;
        self.epoch += 2;

        self.queue_a.clear();
        self.queue_b.clear();
        self.mark[u as usize] = mark_a;
        self.queue_a.push(u);
        self.mark[v as usize] = mark_b;
        self.queue_b.push(v);
        let (mut head_a, mut head_b) = (0usize, 0usize);
        let mut visits = 0usize;

        let outcome = loop {
            match expand_one(
                adj,
                &self.extra,
                &mut self.mark,
                &mut self.queue_a,
                &mut head_a,
                (mark_a, mark_b),
                &mut visits,
                cap,
            ) {
                StepOutcome::Advanced => {}
                StepOutcome::Exhausted => break SearchOutcome::Split(Side::A),
                StepOutcome::Met => break SearchOutcome::Connected,
                StepOutcome::Capped => break SearchOutcome::CapExceeded,
            }
            match expand_one(
                adj,
                &self.extra,
                &mut self.mark,
                &mut self.queue_b,
                &mut head_b,
                (mark_b, mark_a),
                &mut visits,
                cap,
            ) {
                StepOutcome::Advanced => {}
                StepOutcome::Exhausted => break SearchOutcome::Split(Side::B),
                StepOutcome::Met => break SearchOutcome::Connected,
                StepOutcome::Capped => break SearchOutcome::CapExceeded,
            }
        };
        self.stats.bfs_edge_visits += visits as u64;
        *spent += visits;
        outcome
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.extra.len() < n {
            self.extra.resize_with(n, Vec::new);
        }
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
    }
}

/// One node expansion of one side of the bidirectional search.
enum StepOutcome {
    /// A node was expanded without a decision.
    Advanced,
    /// The side's queue is fully explored: it is a complete component.
    Exhausted,
    /// A node of the other side was reached: still connected.
    Met,
    /// The edge-visit budget ran out.
    Capped,
}

/// Expands the next queued node of one search side over the final
/// adjacency plus the pending-deletion overlay. `(own, other)` are the
/// side's and the opposing side's visit stamps.
#[allow(clippy::too_many_arguments)]
fn expand_one(
    adj: &MeshAdjacency,
    extra: &[Vec<u32>],
    mark: &mut [u32],
    queue: &mut Vec<u32>,
    head: &mut usize,
    (own, other): (u32, u32),
    visits: &mut usize,
    cap: usize,
) -> StepOutcome {
    let Some(&x) = queue.get(*head) else {
        return StepOutcome::Exhausted;
    };
    *head += 1;
    for &w in adj
        .neighbors(x as usize)
        .iter()
        .chain(extra[x as usize].iter())
    {
        *visits += 1;
        if *visits > cap {
            return StepOutcome::Capped;
        }
        let m = mark[w as usize];
        if m == other {
            return StepOutcome::Met;
        }
        if m != own {
            mark[w as usize] = own;
            queue.push(w);
        }
    }
    StepOutcome::Advanced
}

/// Removes one occurrence of `value` from `list` (the overlay rows are a
/// multiset: a batch may delete, re-insert, and re-delete the same edge).
fn remove_one(list: &mut Vec<u32>, value: u32) {
    if let Some(pos) = list.iter().position(|&x| x == value) {
        list.swap_remove(pos);
    }
}

/// Whether two strictly-sorted slices share an element (two-pointer walk).
fn shares_element(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::LinkModel;
    use rand::Rng;
    use wmn_model::geometry::{Area, Point};
    use wmn_model::rng::rng_from_seed;

    fn layout(n: usize, seed: u64, side: f64) -> (Vec<Point>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
            .collect();
        let radii = (0..n).map(|_| rng.gen_range(2.0..=8.0)).collect();
        (pts, radii)
    }

    type EdgeList = Vec<(u32, u32)>;

    /// The sorted-neighbor-list symmetric difference between two graphs,
    /// as (inserted, deleted) unordered edge lists.
    fn edge_diff(before: &MeshAdjacency, after: &MeshAdjacency) -> (EdgeList, EdgeList) {
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for i in 0..before.node_count() {
            for &j in before.neighbors(i) {
                if j as usize > i && after.neighbors(i).binary_search(&j).is_err() {
                    del.push((i as u32, j));
                }
            }
            for &j in after.neighbors(i) {
                if j as usize > i && before.neighbors(i).binary_search(&j).is_err() {
                    ins.push((i as u32, j));
                }
            }
        }
        (ins, del)
    }

    /// Drifts a random layout through 30 perturbation rounds, repairing
    /// the component structure through the engine each time and comparing
    /// against a from-scratch build. Returns the engine's counters.
    fn drift_and_check(
        model: LinkModel,
        n: usize,
        seed: u64,
        cap: Option<usize>,
    ) -> ConnectivityStats {
        let area = Area::square(100.0).unwrap();
        let (mut pts, radii) = layout(n, seed, 100.0);
        let mut adj = MeshAdjacency::build(&area, &pts, &radii, model);
        let mut components = Components::from_adjacency(&adj);
        let mut engine = DynamicConnectivity::new();
        engine.set_cost_cap(cap);
        let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
        let mut rng = rng_from_seed(seed ^ 0xC0FFEE);
        for round in 0..30 {
            // Move a few routers: a realistic mixed insert+delete diff.
            for _ in 0..1 + round % 3 {
                let i = rng.gen_range(0..n);
                pts[i] = Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0));
            }
            let next = MeshAdjacency::build(&area, &pts, &radii, model);
            let (ins, del) = edge_diff(&adj, &next);
            engine.apply_edge_diff(&next, &mut components, &ins, &del, &mut uf, &mut scratch);
            assert_eq!(
                components,
                Components::from_adjacency(&next),
                "drift at round {round} under {model}"
            );
            adj = next;
        }
        engine.stats()
    }

    #[test]
    fn random_drift_matches_oracle_all_models() {
        for model in [
            LinkModel::CoverageOverlap,
            LinkModel::MutualRange,
            LinkModel::FixedRange(11.0),
        ] {
            for seed in 0..4 {
                drift_and_check(model, 60, seed, None);
            }
        }
    }

    #[test]
    fn zero_cap_forces_fallback_and_stays_correct() {
        // Every deletion overflows a zero budget, so each deleting repair
        // must take the rescan fallback — and still land exact results.
        let stats = drift_and_check(LinkModel::CoverageOverlap, 40, 7, Some(0));
        assert!(stats.fallbacks > 0, "a zero cap must exercise the fallback");
    }

    #[test]
    fn tiny_cap_mixes_fast_path_and_fallback() {
        let stats = drift_and_check(LinkModel::MutualRange, 50, 11, Some(6));
        assert!(stats.deletions > 0);
    }

    #[test]
    fn empty_diff_is_noop() {
        let area = Area::square(60.0).unwrap();
        let (pts, radii) = layout(20, 3, 60.0);
        let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap);
        let mut components = Components::from_adjacency(&adj);
        let reference = components.clone();
        let mut engine = DynamicConnectivity::new();
        let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
        assert_eq!(
            engine.apply_edge_diff(&adj, &mut components, &[], &[], &mut uf, &mut scratch),
            RepairOutcome::Unchanged
        );
        assert_eq!(components, reference);
        assert_eq!(engine.stats().repairs, 1);
        assert_eq!(engine.stats().insertions + engine.stats().deletions, 0);
    }

    #[test]
    fn delete_reinsert_multiset_diff_is_handled() {
        // The same edge appearing in both lists (deleted by one step of a
        // batch, re-created by a later one) must resolve to "still there".
        let area = Area::square(50.0).unwrap();
        let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let radii = vec![3.0; 2];
        let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap);
        assert_eq!(adj.edge_count(), 1);
        let mut components = Components::from_adjacency(&adj);
        let mut engine = DynamicConnectivity::new();
        let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
        engine.apply_edge_diff(
            &adj,
            &mut components,
            &[(0, 1)],
            &[(0, 1)],
            &mut uf,
            &mut scratch,
        );
        assert_eq!(components, Components::from_adjacency(&adj));
        assert_eq!(components.giant_size(), 2);
    }

    #[test]
    fn chain_cut_splits_once_per_deleted_edge() {
        // A 3-chain losing both edges must end as three singletons no
        // matter the deletion order (the simultaneous-deletion trap the
        // overlay exists to avoid).
        let area = Area::square(50.0).unwrap();
        let chain = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let radii = vec![3.0; 3];
        let before = MeshAdjacency::build(&area, &chain, &radii, LinkModel::CoverageOverlap);
        let gone = MeshAdjacency::build(
            &area,
            &[chain[0], Point::new(40.0, 40.0), chain[2]],
            &radii,
            LinkModel::CoverageOverlap,
        );
        for deletions in [[(0, 1), (1, 2)], [(1, 2), (0, 1)]] {
            let mut components = Components::from_adjacency(&before);
            let mut engine = DynamicConnectivity::new();
            let (mut uf, mut scratch) = (UnionFind::default(), Vec::new());
            assert_eq!(
                engine.apply_edge_diff(
                    &gone,
                    &mut components,
                    &[],
                    &deletions,
                    &mut uf,
                    &mut scratch
                ),
                RepairOutcome::Changed
            );
            assert_eq!(components, Components::from_adjacency(&gone));
            assert_eq!(components.count(), 3);
            assert_eq!(engine.stats().splits, 2);
        }
    }

    #[test]
    fn stats_accumulate_across_repairs() {
        assert_eq!(
            DynamicConnectivity::new().stats(),
            ConnectivityStats::default()
        );
        let stats = drift_and_check(LinkModel::CoverageOverlap, 60, 5, None);
        assert_eq!(stats.repairs, 30);
        assert!(stats.insertions > 0, "drift must insert edges");
        assert!(stats.deletions > 0, "drift must delete edges");
        assert!(stats.bfs_edge_visits > 0, "deletions must search");
        assert!(
            stats.merges + stats.splits > 0,
            "components must change across 30 rounds"
        );
    }

    #[test]
    fn default_cap_scales_with_sqrt_n() {
        let engine = DynamicConnectivity::new();
        assert_eq!(engine.cost_cap(64), 128 + 8 * 8);
        assert_eq!(engine.cost_cap(1024), 128 + 8 * 32);
        assert!(engine.cost_cap(1024) < 1024, "cap stays sub-linear");
        let mut capped = engine.clone();
        capped.set_cost_cap(Some(5));
        assert_eq!(capped.cost_cap(1024), 5);
    }
}

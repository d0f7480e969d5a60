//! Dynamic connectivity: component-local repair of [`Components`] under
//! edge insertions and deletions.
//!
//! The paper's primary objective — giant-component size — makes
//! connectivity the one derived quantity *every* move, swap, and GA child
//! must refresh. [`DynamicConnectivity`] does that from the edge diff the
//! grid-local edge repair already computes, in one relabel step whose cost
//! is the size of the components the diff touches rather than the router
//! count:
//!
//! 1. Both endpoints of every inserted and deleted edge are *seeds*.
//! 2. The pre-repair components holding a seed are retired: their sizes
//!    are zeroed in the size table.
//! 3. One BFS over the final adjacency collects every final component
//!    holding a seed, labels it with its smallest router index, and
//!    records its size there.
//! 4. The component count becomes `old count − retired + relabeled`. The
//!    giant rule — largest, ties to the smallest representative — is
//!    decided between the relabeled components and the old giant; only
//!    when the old giant lost members does a linear scan of the size table
//!    decide it.
//!
//! The repair reports the routers whose giant membership flipped
//! ([`DynamicConnectivity::giant_flips`]), so callers update membership
//! masks and coverage in proportion to the change too. The resulting
//! [`Components`] equals a from-scratch build field for field, and every
//! downstream consumer (coverage rules, fitness, traces) sees exactly the
//! reference results. The equivalence and proptest suites pin this.
//!
//! Every adjacency entry a repair scans counts one
//! [`bfs_edge_visits`](EngineStats::bfs_edge_visits) in the caller's work
//! counters, so a repair costs O(edges of the touched components): a move
//! inside a small component never scans the rest of the graph, and a move
//! that touches a huge component costs O(that component).
//!
//! Edge endpoints are `u32` router ids throughout (the crate-wide id-width
//! invariant), matching the arena-backed adjacency lists.
//!
//! # Why relabeling the touched components is enough
//!
//! Let `E0` be the pre-repair edge set and `E1` the final one. The diff
//! lists satisfy `E0 ∪ inserted = E1 ∪ deleted` as sets, so every edge of
//! `E0 \ E1` is in `deleted` and every edge of `E1 \ E0` is in `inserted`:
//! both endpoints of a changed edge are seeds.
//!
//! * A component that holds no seed lost no edge and gained none. So it
//!   is a component both before and after the repair, with the same
//!   representative and size.
//! * So the pre-repair components holding a seed cover the same routers
//!   as the final components holding a seed: both partitions cover every
//!   router and agree everywhere else. Retiring the first and relabeling
//!   the second rewrites exactly the changed structure; every other label
//!   and size stays valid, because a representative is a pure function of
//!   its component.
//! * The component count is `old count − retired + relabeled`.
//! * The giant rule, the size-table scan when the old giant shrank, and
//!   the flip list carry over from the relabel alone. Whenever the old
//!   giant holds a seed, all its members are among the relabeled routers,
//!   so their flips are read off the relabel BFS; an untouched component
//!   that gained or lost the giant changed no label, and its members are
//!   collected from its representative.

use crate::adjacency::MeshAdjacency;
use crate::components::Components;
use wmn_obs::EngineStats;

/// Component-local connectivity repair engine (see the module docs for the
/// algorithm and why it is exact).
///
/// The engine is pure scratch: component state lives in the
/// [`Components`] it repairs, so engines need no synchronization with the
/// graph between repairs, cost nothing to clone away, and can be dropped
/// freely. All buffers reach steady-state capacity after a few repairs.
///
/// # Examples
///
/// ```
/// use wmn_graph::adjacency::MeshAdjacency;
/// use wmn_graph::components::Components;
/// use wmn_graph::connectivity::DynamicConnectivity;
/// use wmn_graph::EngineStats;
/// use wmn_model::geometry::{Area, Point};
///
/// let area = Area::square(50.0)?;
/// let radii = vec![6.0; 3];
/// let chain = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(10.0, 0.0)];
/// let before = MeshAdjacency::build(&area, &chain, &radii);
/// let mut components = Components::from_adjacency(&before);
/// assert_eq!(components.giant_size(), 3);
///
/// // Move the middle router away: both its edges disappear.
/// let moved = vec![chain[0], Point::new(40.0, 40.0), chain[2]];
/// let after = MeshAdjacency::build(&area, &moved, &radii);
/// let mut engine = DynamicConnectivity::new();
/// let mut stats = EngineStats::default();
/// engine.apply_edge_diff(&after, &mut components, &[], &[(0, 1), (1, 2)], &mut stats);
/// assert_eq!(components, Components::from_adjacency(&after));
/// assert_eq!((stats.repairs, stats.deletions), (1, 2));
/// assert_eq!(components.giant_size(), 1);
/// // Router 0 keeps the giant (a three-way tie goes to the smallest
/// // representative); routers 1 and 2 left it.
/// let mut flips = engine.giant_flips().to_vec();
/// flips.sort_unstable();
/// assert_eq!(flips, [1, 2]);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicConnectivity {
    /// Visit stamps (`epoch`-based, never refilled in the hot path) of the
    /// relabel BFS and the flip collection.
    mark: Vec<u32>,
    epoch: u32,
    /// Endpoints of this repair's inserted and deleted edges: every
    /// changed component holds one.
    seeds: Vec<u32>,
    /// The relabel BFS queue: the nodes of every final component holding a
    /// seed, one component after another.
    relabel: Vec<u32>,
    /// Routers whose giant membership the last repair flipped.
    flips: Vec<u32>,
}

impl DynamicConnectivity {
    /// Creates an engine with empty scratch buffers.
    pub fn new() -> Self {
        DynamicConnectivity::default()
    }

    /// The routers whose giant-component membership the last
    /// [`apply_edge_diff`](DynamicConnectivity::apply_edge_diff) flipped,
    /// each once, in no particular order.
    pub fn giant_flips(&self) -> &[u32] {
        &self.flips
    }

    /// Repairs `components` (which must describe the graph *before* the
    /// diff) to match `adj` (the graph *after* the diff), given the edge
    /// `inserted`/`deleted` lists (u32 endpoints), in any order and with
    /// duplicates allowed, as long as "pre-graph edges plus insertions"
    /// equals "post-graph edges plus deletions" as sets — exactly what
    /// per-node old-vs-new neighbor diffs produce.
    ///
    /// The resulting `components` equals [`Components::from_adjacency`] of
    /// `adj`, and [`giant_flips`](DynamicConnectivity::giant_flips) lists
    /// the routers whose giant membership changed. The repair's work goes
    /// into `stats`' `connectivity.*` counters.
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
        stats: &mut EngineStats,
    ) {
        assert_eq!(
            components.node_count(),
            adj.node_count(),
            "components and adjacency must describe the same node set"
        );
        stats.repairs += 1;
        self.flips.clear();
        if inserted.is_empty() && deleted.is_empty() {
            return;
        }
        stats.insertions += inserted.len() as u64;
        stats.deletions += deleted.len() as u64;
        if self.mark.len() < adj.node_count() {
            self.mark.resize(adj.node_count(), 0);
        }
        self.seeds.clear();
        self.seeds
            .extend(inserted.iter().chain(deleted).flat_map(|&(u, v)| [u, v]));
        stats.bfs_edge_visits += self.relabel_changed(adj, components);
    }

    /// Retires the pre-repair components holding a seed, relabels the
    /// final ones, re-decides the giant, and records the membership flips
    /// (see the module docs for why this is exact). Returns the adjacency
    /// entries scanned.
    fn relabel_changed(&mut self, adj: &MeshAdjacency, components: &mut Components) -> u64 {
        let old_giant = components.giant_rep();
        let old_size = components.giant_size() as u32;
        let mut giant_touched = false;
        let mut retired = 0;
        for &s in &self.seeds {
            let rep = components.labels()[s as usize];
            giant_touched |= rep == old_giant;
            retired += usize::from(components.retire(rep));
        }

        // One BFS per final component holding a seed. A visited node is
        // stamped `was_giant` if it belonged to the old giant (its label is
        // still the pre-repair one until its component is assigned), and
        // `plain` otherwise.
        let base = self.fresh_stamps(3);
        let (plain, was_giant, member) = (base + 1, base + 2, base + 3);
        let visited = |m: u32| m == plain || m == was_giant;
        self.relabel.clear();
        let mut relabeled = 0;
        let mut visits = 0;
        let mut best = (0u32, u32::MAX);
        for k in 0..self.seeds.len() {
            let seed = self.seeds[k];
            if visited(self.mark[seed as usize]) {
                continue;
            }
            let start = self.relabel.len();
            let labels = components.labels();
            let stamp = |x: u32| {
                if labels[x as usize] == old_giant {
                    was_giant
                } else {
                    plain
                }
            };
            self.mark[seed as usize] = stamp(seed);
            self.relabel.push(seed);
            let mut head = start;
            while let Some(&x) = self.relabel.get(head) {
                head += 1;
                let neighbors = adj.neighbors(x as usize);
                visits += neighbors.len() as u64;
                for &w in neighbors {
                    if !visited(self.mark[w as usize]) {
                        self.mark[w as usize] = stamp(w);
                        self.relabel.push(w);
                    }
                }
            }
            let rep = components.assign(&self.relabel[start..]);
            let size = (self.relabel.len() - start) as u32;
            relabeled += 1;
            if outranks((size, rep), best) {
                best = (size, rep);
            }
        }
        let count = components.count() - retired + relabeled;

        // The giant rule. Untouched components rank at most the old giant:
        // no larger, and on a tie with a larger representative.
        let new_giant = if !giant_touched {
            // The old giant survived whole and still leads the untouched.
            Some(if outranks(best, (old_size, old_giant)) {
                best.1
            } else {
                old_giant
            })
        } else if best.0 > old_size || (best.0 == old_size && best.1 <= old_giant) {
            Some(best.1)
        } else {
            // The old giant lost members: an untouched component may lead.
            None
        };
        components.settle(count, new_giant);
        let new_giant = components.giant_rep();
        if !giant_touched && new_giant == old_giant {
            return visits;
        }

        // Relabeled nodes hold every old-giant member whenever the old
        // giant changed; the members of an untouched component that gained
        // or lost the giant are collected from its representative.
        let labels = components.labels();
        self.flips.extend(self.relabel.iter().copied().filter(|&x| {
            (self.mark[x as usize] == was_giant) != (labels[x as usize] == new_giant)
        }));
        if !giant_touched {
            visits += self.collect_component(adj, old_giant, member);
        } else if !visited(self.mark[new_giant as usize]) {
            visits += self.collect_component(adj, new_giant, member);
        }
        visits
    }

    /// Appends the nodes of the final component holding `start` to the
    /// flip list, using the list itself as the BFS queue and `stamp` as a
    /// fresh visit stamp. Returns the adjacency entries scanned.
    fn collect_component(&mut self, adj: &MeshAdjacency, start: u32, stamp: u32) -> u64 {
        let mut visits = 0;
        let mut head = self.flips.len();
        self.mark[start as usize] = stamp;
        self.flips.push(start);
        while let Some(&x) = self.flips.get(head) {
            head += 1;
            let neighbors = adj.neighbors(x as usize);
            visits += neighbors.len() as u64;
            for &w in neighbors {
                if self.mark[w as usize] != stamp {
                    self.mark[w as usize] = stamp;
                    self.flips.push(w);
                }
            }
        }
        visits
    }

    /// Reserves `k` fresh visit stamps `base + 1 ..= base + k` and returns
    /// `base`; `mark` is only ever compared against stamps of the current
    /// reservation, so stale values never alias.
    fn fresh_stamps(&mut self, k: u32) -> u32 {
        if self.epoch > u32::MAX - k {
            self.mark.fill(0);
            self.epoch = 0;
        }
        let base = self.epoch;
        self.epoch += k;
        base
    }
}

/// Whether component `a` outranks `b` under the giant rule, both given as
/// `(size, representative)`: larger wins, ties go to the smaller
/// representative.
fn outranks(a: (u32, u32), b: (u32, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wmn_model::geometry::{Area, Point};
    use wmn_model::rng::rng_from_seed;

    fn layout(n: usize, seed: u64, side: f64) -> (Vec<Point>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
            .collect();
        let radii = (0..n).map(|_| rng.gen_range(4.0..=16.0)).collect();
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

    /// The routers whose giant membership differs between two structures,
    /// ascending.
    fn membership_diff(before: &Components, after: &Components) -> Vec<u32> {
        (0..before.node_count())
            .filter(|&i| before.in_giant(i) != after.in_giant(i))
            .map(|i| i as u32)
            .collect()
    }

    /// The engine's flip list of the last repair, ascending.
    fn sorted_flips(engine: &DynamicConnectivity) -> Vec<u32> {
        let mut flips = engine.giant_flips().to_vec();
        flips.sort_unstable();
        flips
    }

    /// Drifts a random layout through 30 perturbation rounds, repairing
    /// the component structure through the engine each time and comparing
    /// it, and the reported membership flips, against a from-scratch
    /// build. Returns the repairs' work counters.
    fn drift_and_check(n: usize, seed: u64) -> EngineStats {
        let area = Area::square(100.0).unwrap();
        let (mut pts, radii) = layout(n, seed, 100.0);
        let mut adj = MeshAdjacency::build(&area, &pts, &radii);
        let mut components = Components::from_adjacency(&adj);
        let mut engine = DynamicConnectivity::new();
        let mut stats = EngineStats::default();
        let mut rng = rng_from_seed(seed ^ 0xC0FFEE);
        for round in 0..30 {
            // Move a few routers: a realistic mixed insert+delete diff.
            for _ in 0..1 + round % 3 {
                let i = rng.gen_range(0..n);
                pts[i] = Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0));
            }
            let next = MeshAdjacency::build(&area, &pts, &radii);
            let (ins, del) = edge_diff(&adj, &next);
            let before = components.clone();
            engine.apply_edge_diff(&next, &mut components, &ins, &del, &mut stats);
            assert_eq!(
                components,
                Components::from_adjacency(&next),
                "drift at round {round}"
            );
            assert_eq!(
                sorted_flips(&engine),
                membership_diff(&before, &components),
                "flips at round {round}"
            );
            adj = next;
        }
        stats
    }

    #[test]
    fn random_drift_matches_oracle() {
        for seed in 0..4 {
            drift_and_check(60, seed);
        }
    }

    #[test]
    fn empty_diff_is_noop() {
        let area = Area::square(60.0).unwrap();
        let (pts, radii) = layout(20, 3, 60.0);
        let adj = MeshAdjacency::build(&area, &pts, &radii);
        let mut components = Components::from_adjacency(&adj);
        let reference = components.clone();
        let mut engine = DynamicConnectivity::new();
        let mut stats = EngineStats::default();
        engine.apply_edge_diff(&adj, &mut components, &[], &[], &mut stats);
        assert_eq!(components, reference);
        assert!(engine.giant_flips().is_empty());
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.insertions + stats.deletions, 0);
        assert_eq!(stats.bfs_edge_visits, 0);
    }

    #[test]
    fn delete_reinsert_multiset_diff_is_handled() {
        // The same edge appearing in both lists (deleted by one step of a
        // batch, re-created by a later one) must resolve to "still there".
        let area = Area::square(50.0).unwrap();
        let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let radii = vec![6.0; 2];
        let adj = MeshAdjacency::build(&area, &pts, &radii);
        assert_eq!(adj.edge_count(), 1);
        let mut components = Components::from_adjacency(&adj);
        let mut engine = DynamicConnectivity::new();
        engine.apply_edge_diff(
            &adj,
            &mut components,
            &[(0, 1)],
            &[(0, 1)],
            &mut EngineStats::default(),
        );
        assert_eq!(components, Components::from_adjacency(&adj));
        assert_eq!(components.giant_size(), 2);
    }

    #[test]
    fn chain_cut_splits_once_per_deleted_edge() {
        // A 3-chain losing both edges must end as three singletons no
        // matter the deletion order.
        let area = Area::square(50.0).unwrap();
        let chain = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let radii = vec![6.0; 3];
        let before = MeshAdjacency::build(&area, &chain, &radii);
        let gone =
            MeshAdjacency::build(&area, &[chain[0], Point::new(40.0, 40.0), chain[2]], &radii);
        for deletions in [[(0, 1), (1, 2)], [(1, 2), (0, 1)]] {
            let mut components = Components::from_adjacency(&before);
            let mut engine = DynamicConnectivity::new();
            engine.apply_edge_diff(
                &gone,
                &mut components,
                &[],
                &deletions,
                &mut EngineStats::default(),
            );
            assert_eq!(components, Components::from_adjacency(&gone));
            assert_eq!(components.count(), 3);
        }
    }

    /// Moves the routers of `before` to `after` (same length) through one
    /// engine repair and checks the result against a fresh build. Returns
    /// the structures before and after and the ascending flip list.
    fn repair(before: &[Point], after: &[Point]) -> (Components, Components, Vec<u32>) {
        let area = Area::square(100.0).unwrap();
        let radii = vec![6.0; before.len()];
        let old = MeshAdjacency::build(&area, before, &radii);
        let new = MeshAdjacency::build(&area, after, &radii);
        let (ins, del) = edge_diff(&old, &new);
        let mut components = Components::from_adjacency(&old);
        let start = components.clone();
        let mut engine = DynamicConnectivity::new();
        engine.apply_edge_diff(
            &new,
            &mut components,
            &ins,
            &del,
            &mut EngineStats::default(),
        );
        assert_eq!(components, Components::from_adjacency(&new));
        let flips = sorted_flips(&engine);
        assert_eq!(flips, membership_diff(&start, &components));
        (start, components, flips)
    }

    /// `k` routers in a linked row (5 apart, radius 6) starting at `(x, y)`.
    fn row(x: f64, y: f64, k: usize) -> Vec<Point> {
        (0..k).map(|i| Point::new(x + 5.0 * i as f64, y)).collect()
    }

    #[test]
    fn giant_shrinking_to_a_tie_hands_over_to_the_smaller_representative() {
        // {0, 1} (rep 0, untouched) and the giant {2, 3, 4} (rep 2). Router
        // 4 leaves: {2, 3} ties {0, 1}, and the tie goes to rep 0.
        let before = [row(10.0, 10.0, 2), row(10.0, 50.0, 3)].concat();
        let mut after = before.clone();
        after[4] = Point::new(90.0, 90.0);
        let (start, components, flips) = repair(&before, &after);
        assert_eq!(start.giant_label_opt(), Some(2));
        assert_eq!(components.giant_label_opt(), Some(0));
        assert_eq!(components.giant_size(), 2);
        assert_eq!(flips, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn touched_component_outgrowing_an_untouched_giant_takes_over() {
        // Giant {0, 1, 2} stays untouched; router 7 bridges the pairs
        // {3, 4} and {5, 6} into a component of 5.
        let before = [
            row(10.0, 10.0, 3),
            row(10.0, 50.0, 2),
            row(25.0, 50.0, 2),
            vec![Point::new(90.0, 90.0)],
        ]
        .concat();
        let mut after = before.clone();
        after[7] = Point::new(20.0, 50.0);
        let (start, components, flips) = repair(&before, &after);
        assert_eq!(start.giant_label_opt(), Some(0));
        assert_eq!(components.giant_label_opt(), Some(3));
        assert_eq!(components.giant_size(), 5);
        assert_eq!(components.count(), 2);
        assert_eq!(flips, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn merge_tying_the_giant_with_a_smaller_representative_takes_over() {
        // Lone router 0 joins the pair {1, 2}: the merged {0, 1, 2} ties
        // the untouched giant {3, 4, 5} and has the smaller representative.
        let before = [
            vec![Point::new(90.0, 90.0)],
            row(15.0, 10.0, 2),
            row(10.0, 50.0, 3),
        ]
        .concat();
        let mut after = before.clone();
        after[0] = Point::new(10.0, 10.0);
        let (start, components, flips) = repair(&before, &after);
        assert_eq!(start.giant_label_opt(), Some(3));
        assert_eq!(components.giant_label_opt(), Some(0));
        assert_eq!(components.giant_size(), 3);
        assert_eq!(flips, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn repair_scans_only_the_components_the_diff_touches() {
        // The giant {0..=5} is a row far from the smaller row {6, 7, 8, 9}.
        // Router 9 first hops to the other end of its row (an edge changes,
        // the cluster stays whole), then router 7 leaves it (the cluster is
        // cut). The giant never changes hands, so neither repair may scan
        // it: each costs exactly the adjacency entries of the final
        // components holding an endpoint of a changed edge.
        let area = Area::square(100.0).unwrap();
        let mut pts = [row(10.0, 10.0, 6), row(10.0, 60.0, 4)].concat();
        let radii = vec![6.0; pts.len()];
        let mut adj = MeshAdjacency::build(&area, &pts, &radii);
        let mut components = Components::from_adjacency(&adj);
        let mut engine = DynamicConnectivity::new();
        let mut stats = EngineStats::default();
        for (router, to, count) in [
            (9, Point::new(5.0, 60.0), 2),
            (7, Point::new(60.0, 90.0), 4),
        ] {
            pts[router] = to;
            let next = MeshAdjacency::build(&area, &pts, &radii);
            let (ins, del) = edge_diff(&adj, &next);
            assert!(!del.is_empty(), "router {router} must change an edge");
            let before = stats.bfs_edge_visits;
            engine.apply_edge_diff(&next, &mut components, &ins, &del, &mut stats);
            let fresh = Components::from_adjacency(&next);
            assert_eq!(components, fresh);
            assert_eq!(components.count(), count);
            assert_eq!(components.giant_label_opt(), Some(0));
            assert!(engine.giant_flips().is_empty());
            let mut touched: Vec<usize> = ins
                .iter()
                .chain(&del)
                .flat_map(|&(u, v)| [fresh.label_of(u as usize), fresh.label_of(v as usize)])
                .collect();
            touched.sort_unstable();
            touched.dedup();
            assert!(!touched.contains(&0), "the diff must not touch the giant");
            let scanned: usize = (0..next.node_count())
                .filter(|&x| touched.contains(&fresh.label_of(x)))
                .map(|x| next.neighbors(x).len())
                .sum();
            assert_eq!(stats.bfs_edge_visits - before, scanned as u64);
            adj = next;
        }
    }

    #[test]
    fn stats_accumulate_across_repairs() {
        let stats = drift_and_check(60, 5);
        assert_eq!(stats.repairs, 30);
        assert!(stats.insertions > 0, "drift must insert edges");
        assert!(stats.deletions > 0, "drift must delete edges");
        assert!(stats.bfs_edge_visits > 0, "repairs must relabel");
    }
}

//! Router-mesh adjacency under the mutual-range link rule.
//!
//! Two routers are neighbors when each lies within the other's current
//! radius ([`links`]).
//!
//! Adjacency lists live in a [`NeighborSlab`] arena (u32 router ids, one
//! flat element array, free-list-recycled blocks — see the
//! [`arena`](crate::arena) module docs), so state copies are bulk `memcpy`s
//! and neighbor walks stay inside one allocation.

use crate::arena::NeighborSlab;
use wmn_model::geometry::{Area, Point};
use wmn_model::spatial::DynamicGrid;

/// Returns `true` if routers at squared distance `d2` with current radii
/// `ri`, `rj` are linked: **mutual range**, `d <= min(r_i, r_j)` — a
/// bidirectional link needs both endpoints in range. A router's links
/// therefore all lie within its own radius, which is the spatial-index
/// query radius.
///
/// Mutual range, not disk overlap, is what reproduces the paper's regime:
/// its standalone giant components are small for *every* ad hoc method
/// (3–26 of 64), which only holds under a link rule strict enough that
/// regular patterns at 3–9 unit spacing do not trivially chain together.
#[inline]
pub fn links(d2: f64, ri: f64, rj: f64) -> bool {
    let range = ri.min(rj);
    d2 <= range * range
}

/// The cell size of the router [`DynamicGrid`] for a point set whose
/// largest radius is `max_radius`: twice that radius, so every link joins
/// two routers in the same or 8-adjacent cells (the mesh build's pair
/// walk, [`MeshAdjacency::rebuild_in_place`]) and a moved router's query
/// disk touches at most four cells. [`MeshAdjacency::build`] and
/// [`WmnTopology`](crate::topology::WmnTopology) both size their router
/// grid with it.
#[inline]
pub fn grid_cell_size(max_radius: f64) -> f64 {
    (2.0 * max_radius).max(1e-9)
}

/// Undirected adjacency lists of the router mesh, stored in a
/// [`NeighborSlab`] arena (u32 router ids).
///
/// Node `i` corresponds to router `i`; neighbor lists are sorted and
/// deduplicated.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct MeshAdjacency {
    neighbors: NeighborSlab,
    edge_count: usize,
}

impl Clone for MeshAdjacency {
    fn clone(&self) -> Self {
        MeshAdjacency {
            neighbors: self.neighbors.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Buffer-reusing copy: the slab copy is a handful of bulk copies, so
    /// copying adjacency between same-sized topologies (the GA population
    /// pool) is allocation-free once warm — and layout-identical.
    fn clone_from(&mut self, src: &Self) {
        self.neighbors.clone_from(&src.neighbors);
        self.edge_count = src.edge_count;
    }
}

impl MeshAdjacency {
    /// Builds adjacency for routers at `positions` with current `radii`:
    /// a router [`DynamicGrid`] over `area`, sized like a topology's
    /// (largest radius, at least 1), and
    /// [`rebuild_in_place`](MeshAdjacency::rebuild_in_place) on it.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != radii.len()` or the router count does
    /// not fit u32 ids.
    pub fn build(area: &Area, positions: &[Point], radii: &[f64]) -> MeshAdjacency {
        let max_radius = radii.iter().copied().fold(1.0_f64, f64::max);
        let mut grid = DynamicGrid::new(area, grid_cell_size(max_radius));
        grid.rebuild(positions);
        let mut adjacency = MeshAdjacency::default();
        adjacency.rebuild_in_place(positions, radii, &grid);
        adjacency
    }

    /// Reference O(n²) construction, the oracle of the adjacency tests.
    pub fn build_brute_force(positions: &[Point], radii: &[f64]) -> MeshAdjacency {
        assert_eq!(positions.len(), radii.len());
        let n = positions.len();
        let mut neighbors = NeighborSlab::with_nodes(n);
        let mut edge_count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = positions[i].distance_squared(positions[j]);
                if links(d2, radii[i], radii[j]) {
                    neighbors.push(i, j as u32);
                    neighbors.push(j, i as u32);
                    edge_count += 1;
                }
            }
        }
        MeshAdjacency {
            neighbors,
            edge_count,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.neighbors.node_count()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbors of node `i` (sorted u32 router ids).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.neighbors.get(i)
    }

    /// Rewrites node `i`'s neighbor set from `old` (its current list) to
    /// `new`, touching only the **changed** neighbors: a linear merge-diff
    /// over the two sorted, duplicate-free slices removes `i` from dropped
    /// neighbors and inserts it into gained ones, then `i`'s own block is
    /// overwritten in place. Links that survive a move cost nothing — the
    /// per-move edge repair's slab mutations are proportional to the edge
    /// *delta*, not the degree. Allocation-free once the slab and the
    /// event buffers are warm.
    ///
    /// The same merge reports the delta: every dropped edge `(i, x)` is
    /// appended to `deleted` and every gained edge `(i, y)` to `inserted`,
    /// in merge order — the edge diff
    /// [`DynamicConnectivity`](crate::connectivity::DynamicConnectivity)
    /// repairs components from.
    ///
    /// The caller guarantees `old` equals `i`'s current list (checked in
    /// debug builds).
    pub fn replace_node_edges(
        &mut self,
        i: usize,
        old: &[u32],
        new: &[u32],
        inserted: &mut Vec<(u32, u32)>,
        deleted: &mut Vec<(u32, u32)>,
    ) {
        debug_assert_eq!(self.neighbors.get(i), old, "old must be i's current list");
        debug_assert!(new.windows(2).all(|w| w[0] < w[1]), "sorted");
        debug_assert!(!new.contains(&(i as u32)));
        let (mut a, mut b) = (0usize, 0usize);
        loop {
            match (old.get(a), new.get(b)) {
                (Some(&x), Some(&y)) if x == y => {
                    a += 1;
                    b += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    self.drop_half_edge(i, x);
                    deleted.push((i as u32, x));
                    a += 1;
                }
                (Some(_), Some(&y)) => {
                    self.add_half_edge(i, y);
                    inserted.push((i as u32, y));
                    b += 1;
                }
                (Some(&x), None) => {
                    self.drop_half_edge(i, x);
                    deleted.push((i as u32, x));
                    a += 1;
                }
                (None, Some(&y)) => {
                    self.add_half_edge(i, y);
                    inserted.push((i as u32, y));
                    b += 1;
                }
                (None, None) => break,
            }
        }
        self.neighbors.assign(i, new);
    }

    /// Removes `i` from dropped neighbor `j`'s list (the `j → i` half of
    /// the undirected edge; `i`'s own list is rewritten wholesale by
    /// [`replace_node_edges`](MeshAdjacency::replace_node_edges)).
    fn drop_half_edge(&mut self, i: usize, j: u32) {
        let removed = self.neighbors.remove_sorted(j as usize, i as u32);
        debug_assert!(removed, "symmetric edge {i}-{j} missing on removal");
        self.edge_count -= 1;
    }

    /// Inserts `i` into gained neighbor `j`'s sorted list.
    fn add_half_edge(&mut self, i: usize, j: u32) {
        let inserted = self.neighbors.insert_sorted(j as usize, i as u32);
        assert!(inserted, "duplicate edge insertion");
        self.edge_count += 1;
    }

    /// Recomputes the whole adjacency **in place** for `positions`/`radii`,
    /// taking candidate pairs from `grid` (which must be in sync with
    /// `positions`) and reusing the slab's blocks. Every topology build and
    /// rebuild runs it, on the router grid the topology keeps.
    ///
    /// One cell-ordered walk ([`DynamicGrid::for_each_near_pair`]) tests
    /// each pair of routers in the same or 8-adjacent cells once, then
    /// each list is sorted: O(cells + near pairs). A link is no longer
    /// than either of its routers' radii, so the walk finds every link as
    /// long as no radius exceeds half a cell side, which
    /// [`grid_cell_size`] gives.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != radii.len()`, or if the grid's cells
    /// are narrower than twice the largest radius.
    pub fn rebuild_in_place(&mut self, positions: &[Point], radii: &[f64], grid: &DynamicGrid) {
        assert_eq!(
            positions.len(),
            radii.len(),
            "positions and radii must be parallel vectors"
        );
        let max_radius = radii.iter().copied().fold(0.0_f64, f64::max);
        assert!(
            2.0 * max_radius <= grid.cell_size(),
            "the router grid's cells ({}) must be at least twice the largest radius ({max_radius})",
            grid.cell_size()
        );
        let n = positions.len();
        self.neighbors.clear_lists(n);
        self.edge_count = 0;
        let (neighbors, edge_count) = (&mut self.neighbors, &mut self.edge_count);
        grid.for_each_near_pair(|i, j| {
            let d2 = positions[i].distance_squared(positions[j]);
            if links(d2, radii[i], radii[j]) {
                neighbors.push(i, j as u32);
                neighbors.push(j, i as u32);
                *edge_count += 1;
            }
        });
        for i in 0..n {
            self.neighbors.get_mut(i).sort_unstable();
        }
    }

    /// Asserts the backing slab's structural invariants (free lists, block
    /// tiling — see [`NeighborSlab::assert_invariants`]) plus list
    /// symmetry/sortedness and the edge-count sum. Wired into
    /// `WmnTopology::assert_consistent` so every equivalence suite checks
    /// the arena internals too.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn assert_arena_invariants(&self) {
        self.neighbors.assert_invariants();
        let mut total = 0usize;
        for i in 0..self.node_count() {
            let list = self.neighbors(i);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "node {i} unsorted");
            for &j in list {
                assert_ne!(j as usize, i, "self-loop at {i}");
                assert!(
                    self.neighbors(j as usize)
                        .binary_search(&(i as u32))
                        .is_ok(),
                    "edge {i}-{j} asymmetric"
                );
            }
            total += list.len();
        }
        assert_eq!(total, 2 * self.edge_count, "edge count drifted from lists");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wmn_model::rng::rng_from_seed;

    fn area100() -> Area {
        Area::square(100.0).unwrap()
    }

    fn random_layout(n: usize, seed: u64) -> (Vec<Point>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)))
            .collect();
        // Radii twice the paper's, so that mutual-range graphs on this
        // 100 × 100 area still give most routers a few neighbors.
        let radii = (0..n).map(|_| rng.gen_range(4.0..=16.0)).collect();
        (pts, radii)
    }

    #[test]
    fn mutual_range_requires_both_to_hear() {
        assert!(links(9.0, 3.0, 8.0)); // d = 3 <= min = 3
        assert!(!links(16.0, 3.0, 8.0)); // d = 4 > 3
    }

    #[test]
    fn indexed_build_matches_brute_force() {
        let area = area100();
        let (pts, radii) = random_layout(300, 9);
        let fast = MeshAdjacency::build(&area, &pts, &radii);
        let slow = MeshAdjacency::build_brute_force(&pts, &radii);
        assert_eq!(fast, slow);
        assert!(fast.edge_count() > 300, "the layout must be well linked");
        fast.assert_arena_invariants();
    }

    #[test]
    fn adjacency_is_symmetric() {
        let area = area100();
        let (pts, radii) = random_layout(200, 4);
        let adj = MeshAdjacency::build(&area, &pts, &radii);
        for i in 0..adj.node_count() {
            for &j in adj.neighbors(i) {
                assert!(
                    adj.neighbors(j as usize).contains(&(i as u32)),
                    "edge {i}-{j} asymmetric"
                );
                assert_ne!(i as u32, j, "self-loop at {i}");
            }
        }
    }

    #[test]
    fn edge_count_matches_lists() {
        let area = area100();
        let (pts, radii) = random_layout(150, 5);
        let adj = MeshAdjacency::build(&area, &pts, &radii);
        let total: usize = (0..adj.node_count()).map(|i| adj.neighbors(i).len()).sum();
        assert_eq!(total, 2 * adj.edge_count());
    }

    #[test]
    fn empty_graph() {
        let adj = MeshAdjacency::build(&area100(), &[], &[]);
        assert_eq!(adj.node_count(), 0);
        assert_eq!(adj.edge_count(), 0);
    }

    #[test]
    fn two_isolated_routers() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(100.0, 100.0)];
        let radii = vec![5.0, 5.0];
        let adj = MeshAdjacency::build(&area100(), &pts, &radii);
        assert_eq!(adj.edge_count(), 0);
        assert_eq!(adj.neighbors(0).len(), 0);
    }

    #[test]
    fn rebuild_in_place_matches_build() {
        let area = area100();
        let mut adj = MeshAdjacency::default();
        for trial in 0..5u64 {
            let (pts, radii) = random_layout(60 + trial as usize * 40, 100 + trial);
            let max_r = radii.iter().copied().fold(0.0_f64, f64::max);
            let mut grid = DynamicGrid::new(&area, grid_cell_size(max_r));
            grid.rebuild(&pts);
            adj.rebuild_in_place(&pts, &radii, &grid);
            let fresh = MeshAdjacency::build(&area, &pts, &radii);
            assert_eq!(adj, fresh, "trial {trial}");
            adj.assert_arena_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "must be at least twice the largest radius (16)")]
    fn rebuild_in_place_refuses_cells_narrower_than_twice_the_largest_radius() {
        let (pts, mut radii) = random_layout(50, 3);
        radii[7] = 16.0;
        let mut grid = DynamicGrid::new(&area100(), 31.0);
        grid.rebuild(&pts);
        MeshAdjacency::default().rebuild_in_place(&pts, &radii, &grid);
    }

    #[test]
    fn replace_node_edges_detach_and_reattach_round_trip() {
        let area = area100();
        let (pts, radii) = random_layout(80, 14);
        let original = MeshAdjacency::build(&area, &pts, &radii);
        let mut adj = original.clone();
        let old: Vec<u32> = adj.neighbors(23).to_vec();
        assert!(old.windows(2).all(|w| w[0] < w[1]), "sorted neighbors");
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        adj.replace_node_edges(23, &old, &[], &mut ins, &mut del);
        assert_eq!(adj.neighbors(23).len(), 0);
        let detached: Vec<(u32, u32)> = old.iter().map(|&j| (23, j)).collect();
        assert!(ins.is_empty());
        assert_eq!(del, detached);
        assert_eq!(
            adj.edge_count(),
            original.edge_count() - old.len(),
            "detaching removes exactly the node's edges"
        );
        del.clear();
        adj.replace_node_edges(23, &[], &old, &mut ins, &mut del);
        assert_eq!(ins, detached);
        assert!(del.is_empty());
        assert_eq!(adj, original);
        adj.assert_arena_invariants();
    }

    #[test]
    fn replace_node_edges_partial_overlap_touches_only_the_delta() {
        let area = area100();
        let (pts, radii) = random_layout(80, 14);
        let mut adj = MeshAdjacency::build(&area, &pts, &radii);
        let node = (0..80usize)
            .max_by_key(|&i| adj.neighbors(i).len())
            .expect("nonempty layout");
        assert!(
            adj.neighbors(node).len() >= 2,
            "layout must give some node neighbors"
        );
        let old: Vec<u32> = adj.neighbors(node).to_vec();
        // Keep a prefix of the current neighbors, gain one new one.
        let gained: u32 = (0..80u32)
            .find(|j| *j as usize != node && !old.contains(j))
            .unwrap();
        let mut new: Vec<u32> = old[..old.len() - 1].to_vec();
        new.push(gained);
        new.sort_unstable();
        new.dedup();
        let before = adj.edge_count();
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        adj.replace_node_edges(node, &old, &new, &mut ins, &mut del);
        // Only the delta is reported: one gained edge, one dropped.
        let node_id = node as u32;
        assert_eq!(ins, [(node_id, gained)]);
        assert_eq!(del, [(node_id, old[old.len() - 1])]);
        assert_eq!(adj.neighbors(node), new.as_slice());
        assert_eq!(adj.edge_count(), before); // one dropped, one gained
        assert!(adj.neighbors(gained as usize).contains(&(node as u32)));
        assert!(!adj
            .neighbors(old[old.len() - 1] as usize)
            .contains(&(node as u32)));
        adj.assert_arena_invariants();
    }

    #[test]
    fn replace_node_edges_identical_lists_is_a_noop() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(50.0, 50.0)];
        let radii = vec![1.0, 1.0];
        let mut adj = MeshAdjacency::build(&area100(), &pts, &radii);
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        adj.replace_node_edges(0, &[], &[], &mut ins, &mut del);
        assert!(ins.is_empty() && del.is_empty());
        assert_eq!(adj.edge_count(), 0);
        assert_eq!(adj.neighbors(0).len(), 0);
    }
}

//! Connected components and the giant component.
//!
//! The paper's primary objective is the **size of the giant component** of
//! the router mesh. This module computes component structure from a
//! [`MeshAdjacency`] by BFS, into fresh buffers
//! ([`Components::from_adjacency`]) or in place (`rebuild_in_place`,
//! behind every `WmnTopology` build and rebuild). A union–find build
//! ([`Components::from_adjacency_dsu`]) is kept as the oracle the tests
//! check the BFS against.
//!
//! Each component is labeled by its **representative**: its smallest node
//! index. That label is a pure function of the partition, so every way of
//! building or repairing a [`Components`] lands on the same values, and a
//! repair that changes a few components rewrites only their nodes — the
//! dynamic connectivity engine
//! ([`DynamicConnectivity`](crate::connectivity::DynamicConnectivity))
//! relabels just the components an edge diff touched. Sizes are indexed by
//! representative (0 at every other index) and the component count is
//! kept as a field, so neither needs a pass over the nodes.
//!
//! Labels and sizes are stored as flat `u32` arrays (the crate-wide id-width
//! invariant — see the [`arena`](crate::arena) module docs): representatives
//! are node indices, which fit u32, and the flat layout makes `clone_from`
//! two bulk copies.

use crate::adjacency::MeshAdjacency;
use crate::dsu::UnionFind;

/// Sentinel for "no label assigned yet" / "no giant component".
const NONE: u32 = u32::MAX;

/// Component structure of a router mesh.
///
/// # Examples
///
/// ```
/// use wmn_graph::adjacency::MeshAdjacency;
/// use wmn_graph::components::Components;
/// use wmn_model::geometry::{Area, Point};
///
/// let area = Area::square(50.0)?;
/// let positions = vec![
///     Point::new(40.0, 40.0), // isolated
///     Point::new(0.0, 0.0),
///     Point::new(6.0, 0.0),   // linked to router 1 (6 <= min(6, 6))
/// ];
/// let radii = vec![6.0, 6.0, 6.0];
/// let adj = MeshAdjacency::build(&area, &positions, &radii);
/// let comps = Components::from_adjacency(&adj);
/// assert_eq!(comps.count(), 2);
/// assert_eq!(comps.giant_size(), 2);
/// assert!(!comps.in_giant(0) && comps.in_giant(1) && comps.in_giant(2));
/// // Labels are representatives: each component's smallest node index.
/// assert_eq!((comps.label_of(0), comps.label_of(2)), (0, 1));
/// assert_eq!(comps.sizes(), &[1, 2, 0]);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Components {
    /// Component label per node: the smallest node index in its component
    /// (the component's *representative*).
    label: Vec<u32>,
    /// Component size per node index: the size at each representative, 0
    /// at every other index.
    sizes: Vec<u32>,
    /// Number of components (of representatives).
    count: usize,
    /// Representative of the giant component — the largest, ties to the
    /// smallest representative — or [`NONE`] for an empty graph.
    giant: u32,
}

impl Clone for Components {
    fn clone(&self) -> Self {
        Components {
            label: self.label.clone(),
            sizes: self.sizes.clone(),
            count: self.count,
            giant: self.giant,
        }
    }

    /// Buffer-reusing copy (allocation-free once `self` has seen a graph at
    /// least this large) — two `copy_from_slice`-class bulk copies.
    fn clone_from(&mut self, src: &Self) {
        self.label.clone_from(&src.label);
        self.sizes.clone_from(&src.sizes);
        self.count = src.count;
        self.giant = src.giant;
    }
}

impl Components {
    /// Computes components by breadth-first search.
    pub fn from_adjacency(adj: &MeshAdjacency) -> Components {
        let mut components = Components::empty();
        components.rebuild_in_place(adj, &mut Vec::new());
        components
    }

    /// Recomputes this component structure from `adj` by breadth-first
    /// search **in place**, reusing its own buffers and the caller's BFS
    /// `queue`, so no heap allocation happens once the buffers have grown
    /// to the graph size. This is the rebuild behind
    /// [`Components::from_adjacency`] and every `WmnTopology` build and
    /// rebuild.
    pub(crate) fn rebuild_in_place(&mut self, adj: &MeshAdjacency, queue: &mut Vec<u32>) {
        let n = adj.node_count();
        self.label.clear();
        self.label.resize(n, NONE);
        self.sizes.clear();
        self.sizes.resize(n, 0);
        self.count = 0;
        for start in 0..n {
            if self.label[start] != NONE {
                continue;
            }
            // Every smaller node is already labeled, so `start` is the
            // smallest node of its component.
            self.count += 1;
            self.label[start] = start as u32;
            queue.clear();
            queue.push(start as u32);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &v in adj.neighbors(u as usize) {
                    if self.label[v as usize] == NONE {
                        self.label[v as usize] = start as u32;
                        queue.push(v);
                    }
                }
            }
            self.sizes[start] = queue.len() as u32;
        }
        self.giant = Self::giant_label(&self.sizes);
    }

    /// Computes components by union–find — the test oracle for the BFS
    /// builds, whose result it equals: the ascending node scan meets each
    /// set's smallest element first, which becomes the set's
    /// representative.
    pub fn from_adjacency_dsu(adj: &MeshAdjacency) -> Components {
        let n = adj.node_count();
        let mut uf = UnionFind::new(n);
        for i in 0..n {
            for &j in adj.neighbors(i) {
                if j as usize > i {
                    uf.union(i, j as usize);
                }
            }
        }
        let mut rep_of_root = vec![NONE; n];
        let mut components = Components::empty();
        components.sizes.resize(n, 0);
        for x in 0..n {
            let r = uf.find(x);
            if rep_of_root[r] == NONE {
                rep_of_root[r] = x as u32;
                components.count += 1;
            }
            let rep = rep_of_root[r];
            components.label.push(rep);
            components.sizes[rep as usize] += 1;
        }
        components.giant = Self::giant_label(&components.sizes);
        components
    }

    /// A structure over no nodes, to be filled by a build.
    pub(crate) fn empty() -> Components {
        Components {
            label: Vec::new(),
            sizes: Vec::new(),
            count: 0,
            giant: NONE,
        }
    }

    /// The current label vector: each node's representative (the dynamic
    /// connectivity engine reads pre-repair component ids from here).
    pub(crate) fn labels(&self) -> &[u32] {
        &self.label
    }

    /// The giant's representative, or [`NONE`] for an empty graph.
    pub(crate) fn giant_rep(&self) -> u32 {
        self.giant
    }

    /// Component-local relabel, step 1: drops the component represented
    /// by `rep` from the size table, because an edge diff touched it and
    /// its nodes are about to be relabeled by
    /// [`assign`](Components::assign). Returns whether the component was
    /// still in the table (`false` if an earlier call retired it). Until
    /// [`settle`](Components::settle) runs, the structure is between
    /// states and must not be observed.
    pub(crate) fn retire(&mut self, rep: u32) -> bool {
        std::mem::take(&mut self.sizes[rep as usize]) != 0
    }

    /// Component-local relabel, step 2: `members` is one complete
    /// component of the repaired graph (in any order); labels them with
    /// their smallest index, records the size there, and returns that
    /// representative.
    pub(crate) fn assign(&mut self, members: &[u32]) -> u32 {
        let rep = members
            .iter()
            .copied()
            .min()
            .expect("a component has a node");
        for &x in members {
            self.label[x as usize] = rep;
        }
        self.sizes[rep as usize] = members.len() as u32;
        rep
    }

    /// Component-local relabel, step 3: records the repaired component
    /// count and the giant — `Some(rep)` when the caller has proved which
    /// component leads, `None` to rescan the size table.
    pub(crate) fn settle(&mut self, count: usize, giant: Option<u32>) {
        self.count = count;
        self.giant = giant.unwrap_or_else(|| Self::giant_label(&self.sizes));
    }

    /// The giant rule over a size table indexed by representative: the
    /// largest size, ties to the smallest representative ([`NONE`] when
    /// every size is 0, i.e. for an empty graph).
    fn giant_label(sizes: &[u32]) -> u32 {
        let mut best = NONE;
        let mut best_size = 0;
        for (l, &s) in sizes.iter().enumerate() {
            if s > best_size {
                best_size = s;
                best = l as u32;
            }
        }
        best
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.label.len()
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Component label of node `i`: the smallest node index in its
    /// component.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label_of(&self, i: usize) -> usize {
        self.label[i] as usize
    }

    /// Size of the component containing node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn size_of(&self, i: usize) -> usize {
        self.sizes[self.label[i] as usize] as usize
    }

    /// Component sizes indexed by label: one entry per node index, holding
    /// the component size at each representative and 0 elsewhere.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Size of the giant (largest) component; 0 for an empty graph.
    ///
    /// This is the paper's connectivity objective.
    pub fn giant_size(&self) -> usize {
        if self.giant == NONE {
            0
        } else {
            self.sizes[self.giant as usize] as usize
        }
    }

    /// Label of the giant component, or `None` for an empty graph.
    /// Ties break toward the lowest label, i.e. the component holding the
    /// smallest node index (deterministic).
    pub fn giant_label_opt(&self) -> Option<usize> {
        (self.giant != NONE).then_some(self.giant as usize)
    }

    /// Returns `true` if node `i` belongs to the giant component.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn in_giant(&self, i: usize) -> bool {
        self.giant != NONE && self.label[i] == self.giant
    }

    /// Indices of the nodes in the giant component, ascending.
    pub fn giant_members(&self) -> Vec<usize> {
        if self.giant == NONE {
            return Vec::new();
        }
        (0..self.label.len())
            .filter(|&i| self.label[i] == self.giant)
            .collect()
    }

    /// Membership bitmap for the giant component.
    pub fn giant_mask(&self) -> Vec<bool> {
        (0..self.label.len()).map(|i| self.in_giant(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wmn_model::geometry::{Area, Point};
    use wmn_model::rng::rng_from_seed;

    fn chain(n: usize, spacing: f64, radius: f64) -> MeshAdjacency {
        let area = Area::square((n as f64 + 1.0) * spacing).unwrap();
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(i as f64 * spacing + 1.0, 1.0))
            .collect();
        let radii = vec![radius; n];
        MeshAdjacency::build(&area, &pts, &radii)
    }

    #[test]
    fn connected_chain_is_one_component() {
        let adj = chain(10, 5.0, 6.0); // 5 spacing <= min(6, 6)
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 1);
        assert_eq!(c.giant_size(), 10);
        assert_eq!(c.giant_members().len(), 10);
        assert!(c.giant_mask().iter().all(|&b| b));
    }

    #[test]
    fn broken_chain_has_singletons() {
        let adj = chain(10, 5.0, 4.0); // 5 spacing > min(4, 4)
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 10);
        assert_eq!(c.giant_size(), 1);
    }

    #[test]
    fn bfs_and_dsu_agree_on_random_graphs() {
        let area = Area::square(100.0).unwrap();
        let mut rng = rng_from_seed(21);
        for trial in 0..20 {
            let n = 100 + trial * 10;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)))
                .collect();
            let radii: Vec<f64> = (0..n).map(|_| rng.gen_range(4.0..16.0)).collect();
            let adj = MeshAdjacency::build(&area, &pts, &radii);
            let bfs = Components::from_adjacency(&adj);
            let dsu = Components::from_adjacency_dsu(&adj);
            assert_eq!(bfs, dsu, "trial {trial}");
        }
    }

    #[test]
    fn incremental_rebuild_matches_bfs_on_random_graphs() {
        let area = Area::square(100.0).unwrap();
        let mut rng = rng_from_seed(33);
        let mut reused = Components::from_adjacency(&MeshAdjacency::default());
        let mut queue = Vec::new();
        // Sizes grow, then shrink, so the reused buffers carry stale
        // entries from larger graphs.
        for trial in (0..20).chain((0..20).rev()) {
            let n = 50 + trial * 17;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)))
                .collect();
            let radii: Vec<f64> = (0..n).map(|_| rng.gen_range(2.0..8.0)).collect();
            let adj = MeshAdjacency::build(&area, &pts, &radii);
            reused.rebuild_in_place(&adj, &mut queue);
            assert_eq!(reused, Components::from_adjacency(&adj), "trial {trial}");
            assert_eq!(
                reused,
                Components::from_adjacency_dsu(&adj),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn giant_tie_breaks_to_lowest_label() {
        // Two components of size 2: nodes {0,1} near origin, {2,3} far away.
        let area = Area::square(100.0).unwrap();
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(90.0, 90.0),
            Point::new(91.0, 90.0),
        ];
        let radii = vec![2.0; 4];
        let adj = MeshAdjacency::build(&area, &pts, &radii);
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 2);
        assert_eq!(c.giant_size(), 2);
        assert_eq!(c.giant_label_opt(), Some(0));
        assert!(c.in_giant(0) && c.in_giant(1));
        assert!(!c.in_giant(2) && !c.in_giant(3));
    }

    #[test]
    fn empty_graph_components() {
        let adj = MeshAdjacency::default();
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.count(), 0);
        assert_eq!(c.giant_size(), 0);
        assert_eq!(c.giant_label_opt(), None);
        assert!(c.giant_members().is_empty());
    }

    #[test]
    fn sizes_sum_to_node_count() {
        let adj = chain(17, 5.0, 4.8); // 5 spacing > 4.8: no link holds
        let c = Components::from_adjacency(&adj);
        assert_eq!(c.sizes().iter().map(|&s| s as usize).sum::<usize>(), 17);
        assert_eq!(c.node_count(), 17);
    }

    #[test]
    fn size_of_matches_label_sizes() {
        let adj = chain(6, 5.0, 6.0);
        let c = Components::from_adjacency(&adj);
        for i in 0..6 {
            assert_eq!(c.size_of(i), c.sizes()[c.label_of(i)] as usize);
        }
    }
}

//! Disjoint-set union (union–find) with union by rank and path compression.
//!
//! The giant-component computation reduces to merging the endpoints of every
//! router–router link and reading off the largest set. This implementation
//! tracks set sizes so the giant component is available in O(1) after the
//! merge phase.
//!
//! No production path runs it: components are built and repaired by BFS.
//! It is the independent oracle behind
//! [`Components::from_adjacency_dsu`](crate::components::Components::from_adjacency_dsu),
//! which the tests check every BFS build against.
//!
//! Internally the parent and size tables are `u32` (the crate-wide id-width
//! invariant — element counts fit u32); the public API keeps `usize`
//! indices.

/// A disjoint-set forest over `0..n`.
///
/// Uses union by rank and path compression (halving), giving effectively
/// constant amortized operations. Compression happens on the `&mut`
/// mutation path ([`UnionFind::find`] / [`UnionFind::union`]); read-side
/// queries ([`UnionFind::root_of`], [`UnionFind::connected`], …) walk
/// without compressing, keeping the type free of interior mutability, so
/// it stays `Sync`.
///
/// # Examples
///
/// ```
/// use wmn_graph::dsu::UnionFind;
///
/// let mut uf = UnionFind::new(5);
/// uf.union(0, 1);
/// uf.union(3, 4);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 3));
/// assert_eq!(uf.largest_set_size(), 2);
/// assert_eq!(uf.set_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    size: Vec<u32>,
    sets: usize,
}

impl Default for UnionFind {
    /// An empty structure; grow it with [`UnionFind::reset`].
    fn default() -> Self {
        UnionFind::new(0)
    }
}

impl UnionFind {
    /// Creates `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit u32 ids.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "element count exceeds u32 id space");
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements (fixed at construction).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Resets the structure to `n` singleton sets, **reusing** the existing
    /// buffers: after the first call at a given `n`, no further heap
    /// allocation occurs.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit u32 ids.
    pub fn reset(&mut self, n: usize) {
        assert!(n < u32::MAX as usize, "element count exceeds u32 id space");
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.size.clear();
        self.size.resize(n, 1);
        self.sets = n;
    }

    /// Returns `true` if the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of `x`'s set, with path halving (the hot mutation
    /// path); see [`UnionFind::root_of`] for the read-only query.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x as usize;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp; // path halving
            x = gp;
        }
    }

    /// Representative of `x`'s set, without compressing (read-only; walks
    /// the full path, so prefer [`UnionFind::find`] in hot loops).
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn root_of(&self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `a >= len()` or `b >= len()`.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.rank[ra] < self.rank[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        if self.rank[ra] == self.rank[rb] {
            self.rank[ra] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if `a >= len()` or `b >= len()`.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.root_of(a) == self.root_of(b)
    }

    /// Size of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn set_size(&self, x: usize) -> usize {
        self.size[self.root_of(x)] as usize
    }

    /// Size of the largest set (0 for an empty structure).
    pub fn largest_set_size(&self) -> usize {
        (0..self.len())
            .filter(|&i| self.parent[i] == i as u32)
            .map(|i| self.size[i] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Representative of a largest set, or `None` when empty.
    pub fn largest_set_root(&self) -> Option<usize> {
        (0..self.len())
            .filter(|&i| self.parent[i] == i as u32)
            .max_by_key(|&i| self.size[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_at_start() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.set_count(), 4);
        assert_eq!(uf.largest_set_size(), 1);
        for i in 0..4 {
            assert_eq!(uf.root_of(i), i);
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.set_size(i), 1);
        }
    }

    #[test]
    fn root_of_agrees_with_find_without_compressing() {
        let mut uf = UnionFind::new(16);
        for i in 1..16 {
            uf.union(i - 1, i);
        }
        let snapshot = uf.clone();
        for i in 0..16 {
            assert_eq!(uf.root_of(i), uf.clone().find(i));
        }
        // Read-only queries never mutate the parent table.
        assert_eq!(uf.parent, snapshot.parent);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.set_count(), 4);
        assert_eq!(uf.set_size(2), 3);
        assert_eq!(uf.largest_set_size(), 3);
    }

    #[test]
    fn connected_is_transitive() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn largest_set_root_points_at_giant() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(3, 4);
        let root = uf.largest_set_root().unwrap();
        assert_eq!(uf.set_size(root), 3);
        assert!(uf.connected(root, 2));
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.largest_set_size(), 0);
        assert_eq!(uf.largest_set_root(), None);
    }

    #[test]
    fn chain_union_all_connected() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.set_count(), 1);
        assert_eq!(uf.largest_set_size(), n);
        assert!(uf.connected(0, n - 1));
    }

    #[test]
    fn reset_restores_singletons_and_reuses_capacity() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset(8);
        assert_eq!(uf.set_count(), 8);
        assert_eq!(uf.largest_set_size(), 1);
        for i in 0..8 {
            assert_eq!(uf.find(i), i);
        }
        // Shrinking and regrowing keeps behaving.
        uf.reset(3);
        assert_eq!(uf.len(), 3);
        uf.union(0, 2);
        assert_eq!(uf.set_size(0), 2);
        uf.reset(12);
        assert_eq!(uf.len(), 12);
        assert_eq!(uf.set_count(), 12);
    }

    #[test]
    #[should_panic]
    fn find_out_of_range_panics() {
        let mut uf = UnionFind::new(2);
        let _ = uf.find(5);
    }
}

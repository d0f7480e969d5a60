//! Disjoint-set union (union–find) with union by rank and path halving.
//!
//! The giant-component computation reduces to merging the endpoints of every
//! router–router link and reading off the largest set.
//!
//! No production path runs it: components are built and repaired by BFS.
//! It is the independent oracle behind
//! [`Components::from_adjacency_dsu`](crate::components::Components::from_adjacency_dsu),
//! which the tests check every BFS build against.
//!
//! Internally the parent table is `u32` (the crate-wide id-width invariant —
//! element counts fit u32); the public API keeps `usize` indices.

/// A disjoint-set forest over `0..n`.
///
/// Uses union by rank and path halving, giving effectively constant
/// amortized operations.
///
/// # Examples
///
/// ```
/// use wmn_graph::dsu::UnionFind;
///
/// let mut uf = UnionFind::new(5);
/// uf.union(0, 1);
/// uf.union(3, 4);
/// assert_eq!(uf.find(0), uf.find(1));
/// assert_ne!(uf.find(1), uf.find(3));
/// assert_eq!(uf.find(2), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
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
        }
    }

    /// Representative of `x`'s set, halving the path on the way.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
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

    /// Merges the sets containing `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.rank[ra] < self.rank[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        if self.rank[ra] == self.rank[rb] {
            self.rank[ra] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_at_start() {
        let mut uf = UnionFind::new(4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(0, 2); // already merged
        let roots: Vec<usize> = (0..6).map(|i| uf.find(i)).collect();
        assert!(roots[..3].iter().all(|&r| r == roots[0]));
        let mut distinct = roots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{{0, 1, 2}} and three singletons");
    }

    #[test]
    fn connected_is_transitive() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn chain_union_all_connected() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        let root = uf.find(0);
        assert!((0..n).all(|i| uf.find(i) == root));
    }

    #[test]
    #[should_panic]
    fn find_out_of_range_panics() {
        let mut uf = UnionFind::new(2);
        let _ = uf.find(5);
    }
}

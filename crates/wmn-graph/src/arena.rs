//! Slab arena for per-node `u32` id lists — the storage substrate behind
//! [`MeshAdjacency`](crate::adjacency::MeshAdjacency) and the per-router
//! disk caches of [`WmnTopology`](crate::topology::WmnTopology).
//!
//! A [`NeighborSlab`] replaces a `Vec<Vec<usize>>` with a struct-of-arrays
//! layout: one flat `Vec<u32>` holds every list's elements, and a parallel
//! span table records each node's `(offset, length, capacity)` block inside
//! it. The point is the **state-copy and cache profile**, not asymptotics:
//!
//! * [`NeighborSlab::clone_from`] is three bulk copies (spans, data, free
//!   heads) instead of one allocation-sensitive copy per node — the
//!   population-pool `clone_from` path of the topology engine collapses
//!   from hundreds of small buffer walks to a handful of `memcpy`s, and the
//!   destination becomes **layout-identical** to the source.
//! * Neighbor walks of adjacent node ids touch one contiguous allocation
//!   instead of pointer-chasing per-list heap blocks.
//! * Mutation never allocates in steady state: blocks are recycled through
//!   per-size-class free lists (see *Invariants*).
//!
//! # Id-width invariant
//!
//! Elements and offsets are `u32`: a slab holds at most `u32::MAX - 1`
//! total elements and node ids must fit `u32`. The topology layer enforces
//! this at construction ([`WmnTopology::build`] refuses instances with more
//! than `u32::MAX` routers or clients with a clear error); the slab itself
//! panics on overflow rather than corrupting offsets.
//!
//! # Invariants (free lists and spans)
//!
//! * Every block capacity is a power of two `>=` [`MIN_CAP`](self) (4), and
//!   blocks never shrink; a node with capacity 0 owns no block.
//! * `data` is tiled exactly by live span blocks and free blocks: growth
//!   appends whole blocks, a grown node's old block is pushed onto the free
//!   list of its size class, and free blocks are chained through their
//!   first word (`data[off]` = next free offset of the class, `NIL`
//!   terminated).
//! * Per-node lists keep caller order; the sorted-list helpers
//!   ([`NeighborSlab::insert_sorted`] / [`NeighborSlab::remove_sorted`])
//!   assume — and `debug_assert` — ascending order.
//!
//! [`NeighborSlab::assert_invariants`] checks all of this and is wired into
//! `WmnTopology::assert_consistent`, so every equivalence/proptest suite
//! exercises the slab internals too.
//!
//! [`WmnTopology::build`]: crate::topology::WmnTopology::build

/// Sentinel offset: "no block" / end of a free-list chain.
const NIL: u32 = u32::MAX;

/// Smallest block capacity handed out (power of two).
const MIN_CAP: u32 = 4;

/// One node's block inside the slab: `data[off .. off + len]` holds the
/// list, `data[off .. off + cap]` is the owned block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    off: u32,
    len: u32,
    cap: u32,
}

impl Default for Span {
    fn default() -> Self {
        Span {
            off: NIL,
            len: 0,
            cap: 0,
        }
    }
}

/// A slab arena of per-node `u32` lists (see the module docs for the
/// layout, the id-width invariant, and the free-list invariants).
///
/// Equality is **logical**: two slabs compare equal when every node's list
/// matches element-for-element, regardless of block placement. After a
/// [`clone_from`](Clone::clone_from) the layouts *are* identical, but a
/// slab that evolved through different mutation orders may place the same
/// lists differently.
///
/// # Examples
///
/// ```
/// use wmn_graph::arena::NeighborSlab;
///
/// let mut slab = NeighborSlab::with_nodes(3);
/// slab.push(0, 7);
/// slab.push(0, 9);
/// slab.push(2, 1);
/// assert_eq!(slab.get(0), &[7, 9]);
/// assert_eq!(slab.get(1), &[] as &[u32]);
/// assert_eq!(slab.total_len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct NeighborSlab {
    spans: Vec<Span>,
    data: Vec<u32>,
    /// Head of the free-block chain per size class (`free_heads[k]` holds
    /// blocks of capacity `1 << k`), chained through `data[off]`.
    free_heads: [u32; 32],
}

impl Clone for NeighborSlab {
    fn clone(&self) -> Self {
        NeighborSlab {
            spans: self.spans.clone(),
            data: self.data.clone(),
            free_heads: self.free_heads,
        }
    }

    /// Layout-preserving bulk copy: three `copy_from_slice`-class copies,
    /// zero per-node work, and no heap allocation once `self`'s buffers
    /// have grown to the source's size. The destination becomes
    /// layout-identical to the source (same blocks, same free lists).
    fn clone_from(&mut self, src: &Self) {
        self.spans.clone_from(&src.spans);
        self.data.clone_from(&src.data);
        self.free_heads = src.free_heads;
    }
}

impl PartialEq for NeighborSlab {
    fn eq(&self, other: &Self) -> bool {
        self.spans.len() == other.spans.len()
            && (0..self.spans.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for NeighborSlab {}

impl NeighborSlab {
    /// An empty slab with `n` nodes, each holding an empty list.
    pub fn with_nodes(n: usize) -> Self {
        let mut slab = NeighborSlab::default();
        slab.reset(n);
        slab
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// Sum of all list lengths.
    pub fn total_len(&self) -> usize {
        self.spans.iter().map(|s| s.len as usize).sum()
    }

    /// Resets to `n` nodes with empty lists, dropping every block and free
    /// list but keeping the heap buffers — the from-scratch build path.
    pub fn reset(&mut self, n: usize) {
        assert!(n < u32::MAX as usize, "slab node count must fit u32 ids");
        self.spans.clear();
        self.spans.resize(n, Span::default());
        self.data.clear();
        self.free_heads = [NIL; 32];
    }

    /// Empties every list while **keeping** each node's block, so refilling
    /// to similar sizes allocates nothing — the in-place rebuild path.
    /// Falls back to [`reset`](NeighborSlab::reset) when the node count
    /// changes.
    pub fn clear_lists(&mut self, n: usize) {
        if n != self.spans.len() {
            self.reset(n);
            return;
        }
        for s in &mut self.spans {
            s.len = 0;
        }
    }

    /// Node `i`'s list.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &[u32] {
        let s = self.spans[i];
        if s.cap == 0 {
            return &[];
        }
        &self.data[s.off as usize..(s.off + s.len) as usize]
    }

    /// Mutable access to node `i`'s list (for in-place sorts).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [u32] {
        let s = self.spans[i];
        if s.cap == 0 {
            return &mut [];
        }
        &mut self.data[s.off as usize..(s.off + s.len) as usize]
    }

    /// Appends `v` to node `i`'s list.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn push(&mut self, i: usize, v: u32) {
        let s = self.spans[i];
        if s.len == s.cap {
            self.grow(i, s.len as usize + 1);
        }
        let s = &mut self.spans[i];
        self.data[(s.off + s.len) as usize] = v;
        s.len += 1;
    }

    /// Inserts `v` into node `i`'s **sorted** list, keeping it sorted.
    /// Returns `false` (without inserting) when `v` is already present.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insert_sorted(&mut self, i: usize, v: u32) -> bool {
        debug_assert!(self.get(i).windows(2).all(|w| w[0] < w[1]), "sorted list");
        let Err(pos) = self.get(i).binary_search(&v) else {
            return false;
        };
        let s = self.spans[i];
        if s.len == s.cap {
            self.grow(i, s.len as usize + 1);
        }
        let s = &mut self.spans[i];
        let off = s.off as usize;
        let len = s.len as usize;
        self.data.copy_within(off + pos..off + len, off + pos + 1);
        self.data[off + pos] = v;
        s.len += 1;
        true
    }

    /// Removes `v` from node `i`'s **sorted** list, keeping it sorted.
    /// Returns `false` when `v` is not present.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remove_sorted(&mut self, i: usize, v: u32) -> bool {
        debug_assert!(self.get(i).windows(2).all(|w| w[0] < w[1]), "sorted list");
        let Ok(pos) = self.get(i).binary_search(&v) else {
            return false;
        };
        let s = &mut self.spans[i];
        let off = s.off as usize;
        let len = s.len as usize;
        self.data.copy_within(off + pos + 1..off + len, off + pos);
        s.len -= 1;
        true
    }

    /// Empties node `i`'s list, keeping its block.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn clear_node(&mut self, i: usize) {
        self.spans[i].len = 0;
    }

    /// Appends every value of `vals` to node `i`'s list (one growth step at
    /// most).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn extend_from_slice(&mut self, i: usize, vals: &[u32]) {
        if vals.is_empty() {
            return;
        }
        let need = self.spans[i].len as usize + vals.len();
        if need > self.spans[i].cap as usize {
            self.grow(i, need);
        }
        let s = &mut self.spans[i];
        let start = (s.off + s.len) as usize;
        self.data[start..start + vals.len()].copy_from_slice(vals);
        s.len += vals.len() as u32;
    }

    /// Replaces node `i`'s list with `vals`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn assign(&mut self, i: usize, vals: &[u32]) {
        self.clear_node(i);
        self.extend_from_slice(i, vals);
    }

    /// Moves node `i` onto a block holding at least `need` elements,
    /// copying the current list and recycling the old block through its
    /// size class's free list.
    fn grow(&mut self, i: usize, need: usize) {
        let new_cap = (need as u32).next_power_of_two().max(MIN_CAP);
        let class = new_cap.trailing_zeros() as usize;
        let new_off = match self.free_heads[class] {
            NIL => {
                let off = self.data.len();
                assert!(
                    off + new_cap as usize <= NIL as usize,
                    "slab data exceeds u32 offset space"
                );
                self.data.resize(off + new_cap as usize, 0);
                off as u32
            }
            off => {
                self.free_heads[class] = self.data[off as usize];
                off
            }
        };
        let s = self.spans[i];
        if s.cap > 0 {
            self.data
                .copy_within(s.off as usize..(s.off + s.len) as usize, new_off as usize);
            // Recycle the old block: chain it into its class's free list.
            let old_class = s.cap.trailing_zeros() as usize;
            self.data[s.off as usize] = self.free_heads[old_class];
            self.free_heads[old_class] = s.off;
        }
        self.spans[i] = Span {
            off: new_off,
            len: s.len,
            cap: new_cap,
        };
    }

    /// Asserts every slab invariant: span bounds and power-of-two
    /// capacities, acyclic free lists of the right class, and that live
    /// blocks plus free blocks tile `data` exactly (no overlap, no leak).
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn assert_invariants(&self) {
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            assert!(s.len <= s.cap, "node {i}: len {} > cap {}", s.len, s.cap);
            if s.cap == 0 {
                assert_eq!(s.off, NIL, "node {i}: capacity 0 must own no block");
                continue;
            }
            assert!(
                s.cap.is_power_of_two() && s.cap >= MIN_CAP,
                "node {i}: cap {} is not a power of two >= {MIN_CAP}",
                s.cap
            );
            assert!(
                (s.off as usize + s.cap as usize) <= self.data.len(),
                "node {i}: block out of bounds"
            );
            blocks.push((s.off, s.cap));
        }
        for (class, &head) in self.free_heads.iter().enumerate() {
            let cap = 1u32 << class;
            let mut off = head;
            let mut steps = 0usize;
            while off != NIL {
                assert!(
                    (off as usize + cap as usize) <= self.data.len(),
                    "free block of class {class} out of bounds"
                );
                blocks.push((off, cap));
                off = self.data[off as usize];
                steps += 1;
                assert!(
                    steps <= self.data.len(),
                    "free list of class {class} cycles"
                );
            }
        }
        blocks.sort_unstable();
        let mut expected_off = 0u32;
        for (off, cap) in blocks {
            assert_eq!(
                off, expected_off,
                "blocks must tile data contiguously (gap or overlap at {off})"
            );
            expected_off += cap;
        }
        assert_eq!(
            expected_off as usize,
            self.data.len(),
            "live + free blocks must cover all of data"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wmn_model::rng::rng_from_seed;

    #[test]
    fn empty_nodes_have_empty_lists() {
        let slab = NeighborSlab::with_nodes(4);
        assert_eq!(slab.node_count(), 4);
        assert_eq!(slab.total_len(), 0);
        for i in 0..4 {
            assert!(slab.get(i).is_empty());
        }
        slab.assert_invariants();
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut slab = NeighborSlab::with_nodes(3);
        for v in 0..20 {
            slab.push(1, v);
        }
        assert_eq!(slab.get(1).len(), 20);
        assert!(slab.get(1).iter().copied().eq(0..20));
        assert!(slab.get(0).is_empty() && slab.get(2).is_empty());
        slab.assert_invariants();
    }

    #[test]
    fn sorted_insert_remove_round_trip() {
        let mut slab = NeighborSlab::with_nodes(1);
        for v in [5u32, 1, 9, 3, 7] {
            assert!(slab.insert_sorted(0, v));
        }
        assert!(!slab.insert_sorted(0, 5), "duplicate must be refused");
        assert_eq!(slab.get(0), &[1, 3, 5, 7, 9]);
        assert!(slab.remove_sorted(0, 5));
        assert!(!slab.remove_sorted(0, 5), "already gone");
        assert_eq!(slab.get(0), &[1, 3, 7, 9]);
        slab.assert_invariants();
    }

    #[test]
    fn grown_blocks_are_recycled_through_free_lists() {
        let mut slab = NeighborSlab::with_nodes(2);
        // Grow node 0 through several classes, freeing the smaller blocks.
        for v in 0..33 {
            slab.push(0, v);
        }
        slab.assert_invariants();
        let len_before = slab.data.len();
        // Node 1 growing through the same classes must reuse the freed
        // blocks instead of extending data.
        for v in 0..16 {
            slab.push(1, v);
        }
        slab.assert_invariants();
        assert_eq!(
            slab.data.len(),
            len_before,
            "freed blocks must be recycled before extending data"
        );
    }

    #[test]
    fn clone_from_is_layout_identical_and_allocation_free_when_warm() {
        let mut rng = rng_from_seed(7);
        let mut src = NeighborSlab::with_nodes(32);
        for _ in 0..500 {
            let i = rng.gen_range(0..32);
            src.push(i, rng.gen_range(0..1000));
        }
        let mut dst = NeighborSlab::with_nodes(32);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.spans, src.spans, "layout-identical copy");
        assert_eq!(dst.free_heads, src.free_heads);
        dst.assert_invariants();
        // Warm: capacities already sufficient, a second copy cannot grow.
        let (cap_s, cap_d) = (dst.spans.capacity(), dst.data.capacity());
        dst.clone_from(&src);
        assert_eq!(dst.spans.capacity(), cap_s);
        assert_eq!(dst.data.capacity(), cap_d);
    }

    #[test]
    fn equality_is_logical_not_layout() {
        let mut a = NeighborSlab::with_nodes(2);
        let mut b = NeighborSlab::with_nodes(2);
        // Same lists, different block history: b grows node 1 first.
        for v in 0..5 {
            b.push(1, 100 + v);
        }
        b.clear_lists(2);
        for v in 0..3 {
            a.push(0, v);
            b.push(0, v);
        }
        assert_eq!(a, b);
        assert_ne!(a.spans, b.spans, "layouts differ yet slabs compare equal");
        a.assert_invariants();
        b.assert_invariants();
    }

    #[test]
    fn clear_lists_keeps_blocks_reset_drops_them() {
        let mut slab = NeighborSlab::with_nodes(2);
        for v in 0..10 {
            slab.push(0, v);
        }
        let data_len = slab.data.len();
        slab.clear_lists(2);
        assert_eq!(slab.total_len(), 0);
        assert_eq!(slab.data.len(), data_len, "blocks survive clear_lists");
        for v in 0..10 {
            slab.push(0, v);
        }
        assert_eq!(slab.data.len(), data_len, "refill reuses the kept block");
        slab.reset(2);
        assert_eq!(slab.data.len(), 0, "reset drops all blocks");
        slab.assert_invariants();
    }

    #[test]
    fn assign_replaces_contents() {
        let mut slab = NeighborSlab::with_nodes(1);
        slab.extend_from_slice(0, &[1, 2, 3]);
        slab.assign(0, &[9, 8]);
        assert_eq!(slab.get(0), &[9, 8]);
        slab.assign(0, &[]);
        assert!(slab.get(0).is_empty());
        slab.assert_invariants();
    }

    #[test]
    fn randomized_ops_match_vec_of_vecs_reference() {
        let mut rng = rng_from_seed(21);
        let n = 16usize;
        let mut slab = NeighborSlab::with_nodes(n);
        let mut reference: Vec<Vec<u32>> = vec![Vec::new(); n];
        for _ in 0..3000 {
            let i = rng.gen_range(0..n);
            match rng.gen_range(0..5) {
                0 | 1 => {
                    let v = rng.gen_range(0..64);
                    if slab.insert_sorted(i, v) {
                        let pos = reference[i].binary_search(&v).unwrap_err();
                        reference[i].insert(pos, v);
                    }
                }
                2 => {
                    let v = rng.gen_range(0..64);
                    if slab.remove_sorted(i, v) {
                        let pos = reference[i].binary_search(&v).unwrap();
                        reference[i].remove(pos);
                    }
                }
                3 => {
                    slab.clear_node(i);
                    reference[i].clear();
                }
                _ => {
                    let vals: Vec<u32> = (0..rng.gen_range(0..6)).map(|k| 100 + k as u32).collect();
                    slab.assign(i, &vals);
                    reference[i] = vals;
                }
            }
        }
        slab.assert_invariants();
        for (i, expect) in reference.iter().enumerate() {
            assert_eq!(slab.get(i), expect.as_slice(), "node {i} diverged");
        }
        assert_eq!(
            slab.total_len(),
            reference.iter().map(Vec::len).sum::<usize>()
        );
    }
}

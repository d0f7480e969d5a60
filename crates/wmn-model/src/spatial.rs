//! Uniform-grid spatial indexes in flat struct-of-arrays layout.
//!
//! Building the router mesh and attaching clients both need "all points
//! within distance `r` of `p`" queries. A uniform bucket grid over the
//! deployment area answers these in output-sensitive time for the densities
//! this problem works at (the alternative — an O(n²) scan — is kept around
//! in tests as the reference implementation).
//!
//! The indexes live in the model crate because the client index belongs
//! to the instance: clients never move, so
//! [`ProblemInstance::client_index`](crate::instance::ProblemInstance::client_index)
//! builds one [`GridIndex`] over them on first use, and every topology of
//! that instance shares it. The router mesh is built on a [`DynamicGrid`]
//! that its topology (`wmn_graph::WmnTopology`) keeps in sync across moves.
//!
//! Both indexes use u32 point ids and u32 cell ids, and store **no
//! per-bucket allocations**:
//!
//! * [`GridIndex`] (immutable) is CSR — one `starts` offset array plus one
//!   flat `entries` array, built in two counting passes. Within a bucket,
//!   entries are in ascending point order, so query order is a pure
//!   function of the points.
//! * [`DynamicGrid`] (mutable) keeps intrusive doubly-linked lists: one
//!   `head` slot per cell and `next`/`prev`/`cell` words per point, making
//!   insert/remove/relocate O(1) with zero allocation.
//!
//! Each index has one query path, a tight nested loop over the touched
//! cells: [`GridIndex::within_radius_into`] fills a caller's buffer, and
//! [`DynamicGrid::for_each_candidate`] calls a closure per candidate.

use crate::geometry::{Area, Point};
use crate::ModelError;

/// Sentinel for "no point" / "no cell" in the intrusive grid lists.
const NIL: u32 = u32::MAX;

/// The most cells a grid may have: both grids store cell ids as u32, and
/// [`DynamicGrid`] reserves `u32::MAX` to mean "no cell".
const MAX_GRID_CELLS: usize = u32::MAX as usize;

/// `(columns, rows)` of the grid of square `cell_size` cells that
/// [`GridIndex::build`] and [`DynamicGrid::new`] lay over `area`.
fn grid_shape(area: &Area, cell_size: f64) -> (usize, usize) {
    // The float-to-int casts saturate, so a huge area gives `usize::MAX`
    // columns rather than a wrapped count.
    let cols = (area.width() / cell_size).ceil().max(1.0) as usize;
    let rows = (area.height() / cell_size).ceil().max(1.0) as usize;
    (cols, rows)
}

/// The cell count of a `cols × rows` grid, or `None` when it exceeds
/// [`MAX_GRID_CELLS`] (including when the product overflows `usize`).
fn grid_cell_count(cols: usize, rows: usize) -> Option<usize> {
    cols.checked_mul(rows)
        .filter(|&cells| cells <= MAX_GRID_CELLS)
}

/// Checks that a grid of square `cell_size` cells over `area` can number
/// its cells with u32 ids, before anything is allocated for it.
///
/// # Errors
///
/// [`ModelError::InvalidSpec`] naming the `grid` and its cell count, for an
/// area far larger than the radio range, such as `--scale-area 1000000`.
pub fn check_cell_space(area: &Area, cell_size: f64, grid: &str) -> Result<(), ModelError> {
    let (cols, rows) = grid_shape(area, cell_size);
    if grid_cell_count(cols, rows).is_some() {
        return Ok(());
    }
    Err(ModelError::InvalidSpec {
        reason: format!(
            "the {grid} grid would need {cols} x {rows} = {} cells, beyond the \
             u32 cell-id space (at most {MAX_GRID_CELLS} cells)",
            cols as u128 * rows as u128
        ),
    })
}

/// [`grid_shape`] and [`grid_cell_count`], panicking on a grid beyond the
/// u32 cell-id space.
fn checked_grid(area: &Area, cell_size: f64) -> (usize, usize, usize) {
    let (cols, rows) = grid_shape(area, cell_size);
    let cells = grid_cell_count(cols, rows).unwrap_or_else(|| {
        panic!("a {cols} x {rows} cell grid exceeds the u32 cell-id space ({MAX_GRID_CELLS} cells)")
    });
    (cols, rows, cells)
}

/// A uniform-grid index over a fixed slice of points, in CSR layout.
///
/// The index owns its points and stores their *indices* bucketed by grid
/// cell. It is immutable after construction: the client index of an
/// instance is built once and shared (see the module docs).
///
/// # Examples
///
/// ```
/// use wmn_model::geometry::{Area, Point};
/// use wmn_model::spatial::GridIndex;
///
/// let area = Area::square(100.0)?;
/// let points = vec![Point::new(10.0, 10.0), Point::new(11.0, 10.0), Point::new(90.0, 90.0)];
/// let index = GridIndex::build(&area, points, 8.0);
///
/// let mut near = Vec::new();
/// index.within_radius_into(Point::new(10.0, 10.0), 2.0, &mut near);
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct GridIndex {
    cell_size: f64,
    /// `1.0 / cell_size`, precomputed so the per-query cell mapping is a
    /// multiply instead of a divide (monotonic in the coordinate, so query
    /// ranges still cover every bucket a point can land in).
    inv_cell_size: f64,
    cols: usize,
    rows: usize,
    /// CSR offsets: bucket `b` holds `entries[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    /// Point indices, bucket-major, ascending within a bucket.
    entries: Vec<u32>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Builds an index over `points` living in `area`, with square cells of
    /// side `cell_size`; the index keeps `points`.
    ///
    /// A good `cell_size` is the typical query radius; the client index
    /// uses the routers' largest radius. Out-of-area points are clamped into
    /// the boundary cells (queries remain correct because the real point
    /// coordinates are used for the distance filter).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite, if the point
    /// count does not fit u32 ids, or if the grid has more than
    /// `u32::MAX` cells.
    pub fn build(area: &Area, points: Vec<Point>, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        assert!(
            points.len() < u32::MAX as usize,
            "point count exceeds u32 id space"
        );
        let (cols, rows, nb) = checked_grid(area, cell_size);
        let inv_cell_size = cell_size.recip();
        // Counting pass, prefix sum, fill pass (ascending point order, so
        // within-bucket order matches what per-bucket pushes produced).
        let mut starts = vec![0u32; nb + 1];
        let mut bucket_of = Vec::with_capacity(points.len());
        for p in &points {
            let (cx, cy) = Self::cell_of(p, inv_cell_size, cols, rows);
            let b = cy * cols + cx;
            bucket_of.push(b as u32);
            starts[b + 1] += 1;
        }
        for b in 0..nb {
            starts[b + 1] += starts[b];
        }
        let mut cursor: Vec<u32> = starts[..nb].to_vec();
        let mut entries = vec![0u32; points.len()];
        for (i, &b) in bucket_of.iter().enumerate() {
            entries[cursor[b as usize] as usize] = i as u32;
            cursor[b as usize] += 1;
        }
        GridIndex {
            cell_size,
            inv_cell_size,
            cols,
            rows,
            starts,
            entries,
            points,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Grid shape as `(columns, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The side of the square cells.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The entries of bucket `b` (ascending point indices).
    #[inline]
    fn bucket(&self, b: usize) -> &[u32] {
        &self.entries[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    fn cell_of(p: &Point, inv_cell_size: f64, cols: usize, rows: usize) -> (usize, usize) {
        let cx = (((p.x * inv_cell_size).floor().max(0.0)) as usize).min(cols - 1);
        let cy = (((p.y * inv_cell_size).floor().max(0.0)) as usize).min(rows - 1);
        (cx, cy)
    }

    /// Writes the indices of all points within Euclidean distance `radius`
    /// of `center` (inclusive) into `out` (cleared first), as `u32`s in
    /// grid-cell order: row-major over the touched cells, ascending within
    /// a cell. That order is deterministic but **not sorted by index**. The
    /// disk-cache fills of `WmnTopology` run it, into one reused buffer.
    pub fn within_radius_into(&self, center: Point, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        if radius < 0.0 || self.points.is_empty() {
            return;
        }
        let range = CellRange::covering(center, radius, self.inv_cell_size, self.cols, self.rows);
        let r2 = radius * radius;
        for cy in range.min_cy..=range.max_cy {
            let row = cy * self.cols;
            for cx in range.min_cx..=range.max_cx {
                for &i in self.bucket(row + cx) {
                    if self.points[i as usize].distance_squared(center) <= r2 {
                        out.push(i);
                    }
                }
            }
        }
    }

    /// Reference implementation of [`GridIndex::within_radius_into`]: a
    /// full scan, the oracle of the spatial-index tests.
    pub fn brute_force_within_radius(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        if radius < 0.0 {
            return Vec::new();
        }
        let r2 = radius * radius;
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(center) <= r2)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The closed rectangle of grid cells a radius query must visit.
#[derive(Debug, Clone, Copy)]
struct CellRange {
    min_cx: usize,
    max_cx: usize,
    min_cy: usize,
    max_cy: usize,
}

impl CellRange {
    fn covering(
        center: Point,
        radius: f64,
        inv_cell_size: f64,
        cols: usize,
        rows: usize,
    ) -> CellRange {
        let clamp_col = |v: f64| ((v * inv_cell_size).floor().max(0.0) as usize).min(cols - 1);
        let clamp_row = |v: f64| ((v * inv_cell_size).floor().max(0.0) as usize).min(rows - 1);
        CellRange {
            min_cx: clamp_col(center.x - radius),
            max_cx: clamp_col(center.x + radius),
            min_cy: clamp_row(center.y - radius),
            max_cy: clamp_row(center.y + radius),
        }
    }
}

/// A **mutable** uniform-grid bucket index over externally stored points.
///
/// Unlike [`GridIndex`] (immutable, owns a snapshot of the points), a
/// `DynamicGrid` stores only bucket membership and is kept in sync by its
/// owner as points move — the router-side index of `WmnTopology`
/// relocates exactly one entry per router move instead of rebuilding the
/// index, and builds the mesh on it. Membership lives
/// in intrusive doubly-linked lists (`head` per cell, `next`/`prev`/`cell`
/// per point), so insert, remove, and relocate are O(1) pointer splices
/// with zero allocation, and a state copy is four flat bulk copies.
/// Queries return *candidate* indices (every point whose cell intersects
/// the query disk); the caller applies the precise distance predicate,
/// since it owns the coordinates. Candidate order within a cell is the
/// list order (most-recently-inserted first) — deterministic, but
/// unspecified to callers, which all sort or reduce order-independently.
///
/// # Examples
///
/// ```
/// use wmn_model::geometry::{Area, Point};
/// use wmn_model::spatial::DynamicGrid;
///
/// let area = Area::square(100.0)?;
/// let mut pts = vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)];
/// let mut grid = DynamicGrid::new(&area, 10.0);
/// grid.rebuild(&pts);
///
/// let mut near = Vec::new();
/// grid.for_each_candidate(Point::new(12.0, 12.0), 5.0, |i| near.push(i));
/// assert_eq!(near, vec![0]);
///
/// let old = pts[0];
/// pts[0] = Point::new(88.0, 88.0);
/// grid.relocate(0, old, pts[0]);
/// let mut far = Vec::new();
/// grid.for_each_candidate(Point::new(90.0, 90.0), 5.0, |i| far.push(i));
/// assert_eq!(far.len(), 2);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct DynamicGrid {
    cell_size: f64,
    /// `1.0 / cell_size` — see [`GridIndex::inv_cell_size`]'s note.
    inv_cell_size: f64,
    cols: usize,
    rows: usize,
    /// First point of each cell's list, or [`NIL`].
    head: Vec<u32>,
    /// Per-point forward link, or [`NIL`] at a list tail.
    next: Vec<u32>,
    /// Per-point backward link, or [`NIL`] at a list head.
    prev: Vec<u32>,
    /// Cell each point is currently recorded in, or [`NIL`] if absent.
    cell: Vec<u32>,
}

impl Clone for DynamicGrid {
    fn clone(&self) -> Self {
        DynamicGrid {
            cell_size: self.cell_size,
            inv_cell_size: self.inv_cell_size,
            cols: self.cols,
            rows: self.rows,
            head: self.head.clone(),
            next: self.next.clone(),
            prev: self.prev.clone(),
            cell: self.cell.clone(),
        }
    }

    /// Buffer-reusing copy — four flat bulk copies; once `self` has seen a
    /// grid of the same shape, no heap allocation happens.
    fn clone_from(&mut self, src: &Self) {
        self.cell_size = src.cell_size;
        self.inv_cell_size = src.inv_cell_size;
        self.cols = src.cols;
        self.rows = src.rows;
        self.head.clone_from(&src.head);
        self.next.clone_from(&src.next);
        self.prev.clone_from(&src.prev);
        self.cell.clone_from(&src.cell);
    }
}

impl DynamicGrid {
    /// Creates an empty grid over `area` with square cells of side
    /// `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite, or if the grid
    /// has more than `u32::MAX` cells.
    pub fn new(area: &Area, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        let (cols, rows, cells) = checked_grid(area, cell_size);
        DynamicGrid {
            cell_size,
            inv_cell_size: cell_size.recip(),
            cols,
            rows,
            head: vec![NIL; cells],
            next: Vec::new(),
            prev: Vec::new(),
            cell: Vec::new(),
        }
    }

    /// Grid shape as `(columns, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    fn bucket_of(&self, p: Point) -> usize {
        let (cx, cy) = GridIndex::cell_of(&p, self.inv_cell_size, self.cols, self.rows);
        cy * self.cols + cx
    }

    /// Grows the per-point link arrays to cover index `i`.
    fn ensure_point(&mut self, i: usize) {
        assert!(i < u32::MAX as usize, "point index exceeds u32 id space");
        if i >= self.cell.len() {
            self.next.resize(i + 1, NIL);
            self.prev.resize(i + 1, NIL);
            self.cell.resize(i + 1, NIL);
        }
    }

    /// Clears the grid and re-inserts every point, reusing the flat
    /// buffers. Out-of-area points clamp into boundary cells, exactly
    /// like [`GridIndex::build`].
    ///
    /// # Panics
    ///
    /// Panics if the point count does not fit u32 ids.
    pub fn rebuild(&mut self, points: &[Point]) {
        assert!(
            points.len() < u32::MAX as usize,
            "point count exceeds u32 id space"
        );
        let n = points.len();
        self.head.fill(NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        self.prev.clear();
        self.prev.resize(n, NIL);
        self.cell.clear();
        self.cell.resize(n, NIL);
        for (i, p) in points.iter().enumerate() {
            let b = self.bucket_of(*p);
            self.link(i as u32, b);
        }
    }

    /// Splices point `i` onto the head of cell `b`'s list.
    #[inline]
    fn link(&mut self, i: u32, b: usize) {
        let old_head = self.head[b];
        self.next[i as usize] = old_head;
        self.prev[i as usize] = NIL;
        if old_head != NIL {
            self.prev[old_head as usize] = i;
        }
        self.head[b] = i;
        self.cell[i as usize] = b as u32;
    }

    /// Splices point `i` out of its current cell list.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let b = self.cell[i as usize];
        let nx = self.next[i as usize];
        let pv = self.prev[i as usize];
        if pv != NIL {
            self.next[pv as usize] = nx;
        } else {
            self.head[b as usize] = nx;
        }
        if nx != NIL {
            self.prev[nx as usize] = pv;
        }
        self.cell[i as usize] = NIL;
    }

    /// Records that point `i` sits at `p`.
    pub fn insert(&mut self, i: usize, p: Point) {
        self.ensure_point(i);
        debug_assert_eq!(self.cell[i], NIL, "point {i} inserted twice");
        let b = self.bucket_of(p);
        self.link(i as u32, b);
    }

    /// Forgets point `i`, which must currently be recorded at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in the bucket `p` maps to (the grid drifted
    /// from its owner's coordinates).
    pub fn remove(&mut self, i: usize, p: Point) {
        let b = self.bucket_of(p);
        let recorded = self.cell.get(i).copied().unwrap_or(NIL);
        assert_eq!(
            recorded as usize, b,
            "DynamicGrid::remove: point not in its recorded bucket"
        );
        self.unlink(i as u32);
    }

    /// Moves point `i` from `from` to `to` — a no-op when both map to the
    /// same cell, two O(1) list splices otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not recorded at `from` (see [`DynamicGrid::remove`]).
    pub fn relocate(&mut self, i: usize, from: Point, to: Point) {
        if self.bucket_of(from) == self.bucket_of(to) {
            return;
        }
        self.remove(i, from);
        self.insert(i, to);
    }

    /// Calls `f` with every index recorded in a cell that intersects the
    /// disk at `center` with `radius`: a superset of the true hits, with no
    /// distance filtering and no allocation, row-major over the cells and
    /// in list order within a cell. Visits nothing for a negative radius.
    /// Mesh builds call it once per router, and the per-move edge repair
    /// of `WmnTopology` once per moved router.
    pub fn for_each_candidate(&self, center: Point, radius: f64, mut f: impl FnMut(usize)) {
        if radius < 0.0 {
            return;
        }
        let range = CellRange::covering(center, radius, self.inv_cell_size, self.cols, self.rows);
        for cy in range.min_cy..=range.max_cy {
            let row = cy * self.cols;
            for cx in range.min_cx..=range.max_cx {
                let mut cur = self.head[row + cx];
                while cur != NIL {
                    f(cur as usize);
                    cur = self.next[cur as usize];
                }
            }
        }
    }

    /// Debug helper: asserts every point is recorded in the bucket its
    /// coordinate maps to, that the intrusive lists are mutually linked,
    /// and that no stale entries remain.
    ///
    /// # Panics
    ///
    /// Panics when the grid has drifted from `points`.
    pub fn assert_in_sync(&self, points: &[Point]) {
        let mut total = 0usize;
        for (b, &h) in self.head.iter().enumerate() {
            let mut cur = h;
            let mut expected_prev = NIL;
            while cur != NIL {
                total += 1;
                assert!(total <= self.cell.len(), "cycle in cell {b} list");
                assert_eq!(
                    self.cell[cur as usize], b as u32,
                    "point {cur} linked into cell {b} but records another cell"
                );
                assert_eq!(
                    self.prev[cur as usize], expected_prev,
                    "broken back-link at point {cur} in cell {b}"
                );
                expected_prev = cur;
                cur = self.next[cur as usize];
            }
        }
        assert_eq!(total, points.len(), "grid entry count drifted");
        for (i, p) in points.iter().enumerate() {
            assert_eq!(
                self.cell[i] as usize,
                self.bucket_of(*p),
                "point {i} at {p} not in the bucket its coordinate maps to"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    fn area100() -> Area {
        Area::square(100.0).unwrap()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = rng_from_seed(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)))
            .collect()
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let area = area100();
        let pts = random_points(500, 42);
        let index = GridIndex::build(&area, pts.clone(), 7.0);
        let mut rng = rng_from_seed(1);
        let mut fast = Vec::new();
        for _ in 0..100 {
            let c = Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0));
            let r = rng.gen_range(0.0..30.0);
            index.within_radius_into(c, r, &mut fast);
            fast.sort_unstable();
            let slow = GridIndex::brute_force_within_radius(&pts, c, r);
            assert!(
                fast.iter().map(|&i| i as usize).eq(slow),
                "mismatch at center {c} radius {r}"
            );
        }
    }

    #[test]
    fn csr_buckets_are_ascending_within_cell() {
        let area = area100();
        let pts = random_points(400, 55);
        let index = GridIndex::build(&area, pts.clone(), 9.0);
        for b in 0..index.cols * index.rows {
            let bucket = index.bucket(b);
            assert!(
                bucket.windows(2).all(|w| w[0] < w[1]),
                "bucket {b} not ascending"
            );
        }
        assert_eq!(index.entries.len(), pts.len());
    }

    #[test]
    fn zero_radius_finds_exact_point() {
        let area = area100();
        let pts = vec![Point::new(10.0, 10.0), Point::new(20.0, 20.0)];
        let index = GridIndex::build(&area, pts.clone(), 4.0);
        let mut hits = Vec::new();
        index.within_radius_into(Point::new(10.0, 10.0), 0.0, &mut hits);
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn negative_radius_is_empty() {
        let area = area100();
        let pts = random_points(10, 3);
        let index = GridIndex::build(&area, pts.clone(), 4.0);
        let mut hits = vec![7];
        index.within_radius_into(Point::new(5.0, 5.0), -1.0, &mut hits);
        assert!(hits.is_empty());
    }

    #[test]
    fn empty_index_behaves() {
        let area = area100();
        let index = GridIndex::build(&area, Vec::new(), 4.0);
        assert!(index.is_empty());
        let mut hits = vec![7];
        index.within_radius_into(Point::new(1.0, 1.0), 50.0, &mut hits);
        assert!(hits.is_empty());
    }

    #[test]
    fn out_of_area_points_are_still_found() {
        let area = area100();
        // Point outside the nominal area gets clamped into a boundary cell
        // but keeps its true coordinates for distance filtering.
        let pts = vec![Point::new(150.0, 150.0)];
        let index = GridIndex::build(&area, pts.clone(), 10.0);
        let mut hits = Vec::new();
        index.within_radius_into(Point::new(150.0, 150.0), 1.0, &mut hits);
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn coarse_and_fine_cells_agree() {
        let area = area100();
        let pts = random_points(400, 13);
        let coarse = GridIndex::build(&area, pts.clone(), 50.0);
        let fine = GridIndex::build(&area, pts.clone(), 1.0);
        let c = Point::new(33.0, 66.0);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        coarse.within_radius_into(c, 12.5, &mut a);
        fine.within_radius_into(c, 12.5, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn dynamic_grid_tracks_relocations() {
        let area = area100();
        let mut pts = random_points(120, 23);
        let mut grid = DynamicGrid::new(&area, 7.0);
        grid.rebuild(&pts);
        grid.assert_in_sync(&pts);
        let mut rng = rng_from_seed(5);
        for _ in 0..300 {
            let i = rng.gen_range(0..pts.len());
            let to = Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0));
            let from = pts[i];
            pts[i] = to;
            grid.relocate(i, from, to);
        }
        grid.assert_in_sync(&pts);
        // The candidates are a superset of the true hits.
        for _ in 0..50 {
            let c = Point::new(rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0));
            let r = rng.gen_range(0.0..20.0);
            let mut cands = Vec::new();
            grid.for_each_candidate(c, r, |i| cands.push(i));
            for hit in GridIndex::brute_force_within_radius(&pts, c, r) {
                assert!(cands.contains(&hit), "candidate set missed true hit {hit}");
            }
        }
        grid.for_each_candidate(Point::new(1.0, 1.0), -1.0, |i| {
            panic!("a negative radius visited candidate {i}")
        });
    }

    #[test]
    fn dynamic_grid_shape_matches_grid_index() {
        let grid = DynamicGrid::new(&area100(), 33.0);
        assert_eq!(grid.shape(), (4, 4));
    }

    #[test]
    #[should_panic(expected = "bucket")]
    fn dynamic_grid_remove_missing_panics() {
        let mut grid = DynamicGrid::new(&area100(), 10.0);
        grid.remove(3, Point::new(5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn rejects_nonpositive_cell_size() {
        let _ = GridIndex::build(&area100(), Vec::new(), 0.0);
    }

    #[test]
    fn grid_cell_count_stops_at_the_u32_id_space() {
        assert_eq!(grid_cell_count(65_535, 65_537), Some(MAX_GRID_CELLS));
        assert_eq!(grid_cell_count(65_536, 65_536), None);
        assert_eq!(grid_cell_count(usize::MAX, 2), None);
        // The casts saturate instead of wrapping.
        let huge = Area::square(1e300).unwrap();
        assert_eq!(grid_shape(&huge, 1.0), (usize::MAX, usize::MAX));
    }

    #[test]
    fn check_cell_space_names_the_refused_grid() {
        let area = Area::square(40_000.0).unwrap();
        assert!(check_cell_space(&area, 1.0, "client").is_ok());
        let Err(ModelError::InvalidSpec { reason }) = check_cell_space(&area, 0.5, "router") else {
            panic!("80,000² cells must be refused");
        };
        assert!(
            reason.contains("router grid would need 80000 x 80000 = 6400000000 cells"),
            "{reason}"
        );
    }

    #[test]
    #[should_panic(expected = "65537 x 65537 cell grid exceeds the u32 cell-id space")]
    fn grid_index_refuses_more_cells_than_u32_ids() {
        // 2^32 + 2^17 + 1 cells: past the u32 ids, far from overflowing.
        let _ = GridIndex::build(&Area::square(65_537.0).unwrap(), Vec::new(), 1.0);
    }

    #[test]
    #[should_panic(expected = "cell grid exceeds the u32 cell-id space")]
    fn dynamic_grid_refuses_a_cell_count_that_overflows() {
        // `usize::MAX` columns and rows: the unchecked product wraps to 1.
        let _ = DynamicGrid::new(&Area::square(1e300).unwrap(), 1.0);
    }

    #[test]
    fn shape_reflects_cell_size() {
        let index = GridIndex::build(&area100(), Vec::new(), 10.0);
        assert_eq!(index.shape(), (10, 10));
        let index = GridIndex::build(&area100(), Vec::new(), 33.0);
        assert_eq!(index.shape(), (4, 4));
    }
}

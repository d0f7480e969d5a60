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
//!   a relocation O(1) with zero allocation.
//!
//! Both map a coordinate to its cell with one saturating integer cast
//! ([`axis_cell`]), never a `floor` call. Each index has one radius query,
//! a tight nested loop over the touched cells:
//! [`GridIndex::within_radius_into`] fills a caller's buffer, and
//! [`DynamicGrid::for_each_candidate`] calls a closure per candidate (the
//! per-move edge repair of a topology). A whole-mesh build instead walks
//! every near pair once, in cell order
//! ([`DynamicGrid::for_each_near_pair`]).

use crate::geometry::{Area, Point};
use crate::{check_memory, ModelError};

/// Sentinel for "no point" / "no cell" in the intrusive grid lists.
const NIL: u32 = u32::MAX;

/// The most cells a grid may have: both grids store cell ids as u32, and
/// [`DynamicGrid`] reserves `u32::MAX` to mean "no cell".
const MAX_GRID_CELLS: usize = u32::MAX as usize;

/// The cell of coordinate `v`, given in cell units, on an axis of `cells`
/// cells: `⌊v⌋` clamped into `0..cells`. Every grid of the workspace maps
/// points through it.
///
/// The cast saturates (NaN goes to 0, ±inf and values beyond the `i64`
/// range to the ends) and truncates toward zero, which differs from `⌊v⌋`
/// only on `(-1, 0)`, where the clamp sends both to cell 0. So for every
/// `f64` it gives the cell of `(v.floor().max(0.0) as usize).min(cells -
/// 1)`, without the `floor` call, which targets without SSE4.1 (the
/// default x86-64 one) make out of line.
///
/// # Examples
///
/// ```
/// use wmn_model::spatial::axis_cell;
///
/// assert_eq!(axis_cell(2.7, 4), 2);
/// assert_eq!(axis_cell(-0.5, 4), 0);
/// assert_eq!(axis_cell(9.0, 4), 3);
/// assert_eq!(axis_cell(f64::NAN, 4), 0);
/// ```
#[inline]
pub fn axis_cell(v: f64, cells: usize) -> usize {
    (v as i64).clamp(0, cells as i64 - 1) as usize
}

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

/// Checks, before anything is allocated for it, that a grid of square
/// `cell_size` cells over `area` can number its cells with u32 ids, and
/// that its cells, at `bytes_per_cell` each ([`GridIndex::BYTES_PER_CELL`]
/// or [`DynamicGrid::BYTES_PER_CELL`]), fit the
/// [`MEMORY_LIMIT_BYTES`](crate::MEMORY_LIMIT_BYTES).
///
/// # Errors
///
/// [`ModelError::InvalidSpec`] naming the `grid` and its cell count, for an
/// area far larger than the radio range: beyond the u32 cell ids, such as
/// `--scale-area 1000000`, or within them but above the memory limit, with
/// the estimate, such as `--scale-area 3000`.
pub fn check_cell_space(
    area: &Area,
    cell_size: f64,
    grid: &str,
    bytes_per_cell: u64,
) -> Result<(), ModelError> {
    let (cols, rows) = grid_shape(area, cell_size);
    let cells = cols as u128 * rows as u128;
    if grid_cell_count(cols, rows).is_none() {
        return Err(ModelError::InvalidSpec {
            reason: format!(
                "the {grid} grid would need {cols} x {rows} = {cells} cells, beyond the \
                 u32 cell-id space (at most {MAX_GRID_CELLS} cells)"
            ),
        });
    }
    check_memory(cells * u128::from(bytes_per_cell), || {
        format!("the {grid} grid of {cols} x {rows} = {cells} cells")
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
    /// The bytes a build allocates per cell: a `u32` offset in `starts` and
    /// one in the build's write cursor.
    pub const BYTES_PER_CELL: u64 = 8;

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
        (
            axis_cell(p.x * inv_cell_size, cols),
            axis_cell(p.y * inv_cell_size, rows),
        )
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
        CellRange {
            min_cx: axis_cell((center.x - radius) * inv_cell_size, cols),
            max_cx: axis_cell((center.x + radius) * inv_cell_size, cols),
            min_cy: axis_cell((center.y - radius) * inv_cell_size, rows),
            max_cy: axis_cell((center.y + radius) * inv_cell_size, rows),
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
/// per point), so a relocation is two O(1) pointer splices with zero
/// allocation, and a state copy is four flat bulk copies.
/// Queries return *candidate* indices (every point whose cell intersects
/// the query disk) and the pair walk *candidate* pairs (every two points
/// in the same or 8-adjacent cells); the caller applies the precise
/// distance predicate, since it owns the coordinates. Order within a cell
/// is the list order (most-recently-inserted first) — deterministic, but
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
    /// The bytes a grid allocates per cell: its `u32` list head.
    pub const BYTES_PER_CELL: u64 = 4;

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

    /// The side of the square cells.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    fn bucket_of(&self, p: Point) -> usize {
        let (cx, cy) = GridIndex::cell_of(&p, self.inv_cell_size, self.cols, self.rows);
        cy * self.cols + cx
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

    /// Moves point `i` from `from` to `to`: one mapping of each endpoint,
    /// then nothing when both map to the same cell, two O(1) list splices
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not recorded in the cell `from` maps to (the grid
    /// drifted from its owner's coordinates).
    pub fn relocate(&mut self, i: usize, from: Point, to: Point) {
        let (old, new) = (self.bucket_of(from), self.bucket_of(to));
        let recorded = self.cell.get(i).copied().unwrap_or(NIL);
        assert_eq!(
            recorded as usize, old,
            "DynamicGrid::relocate: point {i} not recorded in the cell of {from}"
        );
        if old != new {
            self.unlink(i as u32);
            self.link(i as u32, new);
        }
    }

    /// Calls `f` with every index recorded in a cell that intersects the
    /// disk at `center` with `radius`: a superset of the true hits, with no
    /// distance filtering and no allocation, row-major over the cells and
    /// in list order within a cell. Visits nothing for a negative radius.
    /// The per-move edge repair of `WmnTopology` calls it once per moved
    /// router.
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

    /// Calls `f(a, b)` once for every unordered pair of points recorded in
    /// the same cell or in two 8-adjacent cells: a superset of the pairs
    /// at most one cell side apart, with no distance filtering and no
    /// allocation. Cells go in row-major order; each cell's list is paired
    /// with itself, then with its four forward neighbours, east on its row
    /// and south-west, south and south-east on the next. The cost is
    /// O(cells + pairs visited). Mesh builds walk it.
    pub fn for_each_near_pair(&self, mut f: impl FnMut(usize, usize)) {
        let (cols, rows) = (self.cols, self.rows);
        for cy in 0..rows {
            let row = cy * cols;
            for cx in 0..cols {
                let mut a = self.head[row + cx];
                if a == NIL {
                    continue;
                }
                // The rest of this cell's list after `a`, then the lists of
                // the E, SW, S and SE cells.
                let mut lists = [NIL; 5];
                if cx + 1 < cols {
                    lists[1] = self.head[row + cx + 1];
                }
                if cy + 1 < rows {
                    let south = row + cols + cx;
                    if cx > 0 {
                        lists[2] = self.head[south - 1];
                    }
                    lists[3] = self.head[south];
                    if cx + 1 < cols {
                        lists[4] = self.head[south + 1];
                    }
                }
                while a != NIL {
                    lists[0] = self.next[a as usize];
                    for &first in &lists {
                        let mut b = first;
                        while b != NIL {
                            f(a as usize, b as usize);
                            b = self.next[b as usize];
                        }
                    }
                    a = lists[0];
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
    #[should_panic(expected = "point 1 not recorded in the cell of (15")]
    fn dynamic_grid_relocating_from_the_wrong_cell_panics() {
        // Point 1 sits in cell (0, 0); `from` maps to cell (1, 0).
        let pts = [Point::new(55.0, 5.0), Point::new(5.0, 5.0)];
        let mut grid = DynamicGrid::new(&area100(), 10.0);
        grid.rebuild(&pts);
        grid.relocate(1, Point::new(15.0, 5.0), Point::new(5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "point 2 not recorded")]
    fn dynamic_grid_relocating_an_unknown_point_panics() {
        let mut grid = DynamicGrid::new(&area100(), 10.0);
        grid.rebuild(&[Point::new(5.0, 5.0), Point::new(6.0, 6.0)]);
        grid.relocate(2, Point::new(5.0, 5.0), Point::new(5.0, 5.0));
    }

    /// The cell mapping before integer casts, kept as the oracle.
    fn floor_cell(v: f64, cells: usize) -> usize {
        (v.floor().max(0.0) as usize).min(cells - 1)
    }

    /// Coordinates that test a cell mapping on an axis of side `side` cut
    /// into cells of side `c`: the signed zeros and values just below
    /// zero, every cell edge `k·c` (one past the last included) with its
    /// float neighbours, the far bound, and values no float-to-int cast can
    /// hold.
    fn mapping_table(side: f64, c: f64) -> Vec<f64> {
        let mut v = vec![0.0, -0.0, -1e-300, -0.5, -1.0, side, side.next_up()];
        for k in 0..=(side / c).ceil() as usize + 1 {
            let edge = k as f64 * c;
            v.extend([edge.next_down(), edge, edge.next_up()]);
        }
        v.extend([
            f64::MAX,
            -f64::MAX,
            9_223_372_036_854_775_808.0,  // 2^63
            18_446_744_073_709_551_616.0, // 2^64
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ]);
        v
    }

    #[test]
    fn integer_cell_mapping_matches_the_floor_formula() {
        // A non-square area whose cell side 100/7 is inexact in binary.
        let area = Area::new(100.0, 60.0).unwrap();
        let cell: f64 = 100.0 / 7.0;
        let inv = cell.recip();
        let index = GridIndex::build(&area, Vec::new(), cell);
        let mut grid = DynamicGrid::new(&area, cell);
        let (cols, rows) = index.shape();
        assert_eq!((cols, rows), grid.shape());
        let (xs, ys) = (mapping_table(100.0, cell), mapping_table(60.0, cell));
        for &x in &xs {
            for &y in &ys {
                let p = Point::new(x, y);
                let (fx, fy) = (floor_cell(x * inv, cols), floor_cell(y * inv, rows));
                assert_eq!(GridIndex::cell_of(&p, inv, cols, rows), (fx, fy), "{p:?}");
                assert_eq!(grid.bucket_of(p), fy * cols + fx, "{p:?}");
                // One relocation from the origin and back, through the
                // mapped cells.
                grid.rebuild(&[Point::new(0.0, 0.0)]);
                grid.relocate(0, Point::new(0.0, 0.0), p);
                assert_eq!(grid.cell[0] as usize, fy * cols + fx, "{p:?}");
                grid.relocate(0, p, Point::new(0.0, 0.0));
                for r in [0.0, 3.0, cell] {
                    let range = CellRange::covering(p, r, inv, cols, rows);
                    let expected = (
                        floor_cell((x - r) * inv, cols),
                        floor_cell((x + r) * inv, cols),
                        floor_cell((y - r) * inv, rows),
                        floor_cell((y + r) * inv, rows),
                    );
                    assert_eq!(
                        (range.min_cx, range.max_cx, range.min_cy, range.max_cy),
                        expected,
                        "{p:?} radius {r}"
                    );
                }
            }
        }
        for cells in [1, 2, 7, 65_536, MAX_GRID_CELLS] {
            for &v in &xs {
                assert_eq!(axis_cell(v, cells), floor_cell(v, cells), "{v} on {cells}");
            }
        }
    }

    /// Every unordered pair `(a, b)` with `a < b` whose cells are equal or
    /// 8-adjacent, by an O(n²) listing.
    fn near_pairs_by_listing(grid: &DynamicGrid, n: usize) -> Vec<(usize, usize)> {
        let cols = grid.cols;
        let cell = |i: usize| {
            let b = grid.cell[i] as usize;
            ((b % cols) as i64, (b / cols) as i64)
        };
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                let ((ax, ay), (bx, by)) = (cell(a), cell(b));
                if (ax - bx).abs() <= 1 && (ay - by).abs() <= 1 {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    #[test]
    fn near_pair_walk_visits_each_near_pair_once() {
        let area = Area::new(100.0, 70.0).unwrap();
        let cell = 10.0;
        let mut rng = rng_from_seed(17);
        let random = random_points(300, 21)
            .into_iter()
            .map(|p| Point::new(p.x, p.y * 0.7))
            .collect::<Vec<_>>();
        // All points in one cell.
        let clustered = (0..40)
            .map(|_| Point::new(rng.gen_range(30.0..40.0), rng.gen_range(50.0..60.0)))
            .collect::<Vec<_>>();
        // Points at 0, at W and H, and on cell edges and their neighbours.
        let mut boundary = Vec::new();
        for k in 0..=10 {
            let x = k as f64 * cell;
            for y in [0.0, 35.0, 40.0, 40.0f64.next_down(), 70.0] {
                boundary.extend([Point::new(x, y), Point::new(x.next_up(), y)]);
            }
        }
        for (name, pts) in [
            ("random", random),
            ("clustered", clustered),
            ("boundary", boundary),
        ] {
            let mut grid = DynamicGrid::new(&area, cell);
            grid.rebuild(&pts);
            let mut walked = Vec::new();
            grid.for_each_near_pair(|a, b| walked.push((a.min(b), a.max(b))));
            let visits = walked.len();
            walked.sort_unstable();
            walked.dedup();
            assert_eq!(walked.len(), visits, "{name}: a pair was visited twice");
            assert_eq!(walked, near_pairs_by_listing(&grid, pts.len()), "{name}");
        }
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
        let refusal =
            |cell: f64, grid: &str, bytes: u64| match check_cell_space(&area, cell, grid, bytes) {
                Err(ModelError::InvalidSpec { reason }) => reason,
                other => panic!("expected a refusal, got {other:?}"),
            };
        // 40,000² cells fit the u32 ids; at 8 bytes each they do not fit
        // the 2 GiB limit, and at one byte each they do.
        assert!(check_cell_space(&area, 1.0, "client", 1).is_ok());
        let reason = refusal(1.0, "client", GridIndex::BYTES_PER_CELL);
        assert!(
            reason.contains(
                "client grid of 40000 x 40000 = 1600000000 cells would need an estimated \
                 12800000000 bytes, above the 2147483648-byte memory limit"
            ),
            "{reason}"
        );
        let reason = refusal(0.5, "router", DynamicGrid::BYTES_PER_CELL);
        assert!(
            reason.contains("router grid would need 80000 x 80000 = 6400000000 cells"),
            "{reason}"
        );
        // 2 GiB / 4 bytes = 2^29 cells: 23170² fit, 23171² do not.
        let side = |cols: f64| Area::square(cols).unwrap();
        assert!(check_cell_space(&side(23_170.0), 1.0, "router", 4).is_ok());
        assert!(check_cell_space(&side(23_171.0), 1.0, "router", 4).is_err());
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

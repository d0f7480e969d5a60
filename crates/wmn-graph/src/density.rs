//! Client-density maps over the deployment area.
//!
//! The HotSpot placement method ranks "most dense zones" of clients, and the
//! swap movement (paper Algorithm 3) locates the most dense and most sparse
//! `Hg × Wg` sub-areas. Both reduce to rectangular window sums over a cell
//! grid of client counts. The windows are small (1×1 for HotSpot, 2×2 for
//! the swap movement, on a 16×16 grid), so each sum adds its cells
//! directly. [`ZoneBins`] then maps points (router positions) onto a
//! ranked zone list in O(1) per point.

use wmn_model::geometry::{Area, Point, Rect};
use wmn_model::spatial::axis_cell;

/// A rectangular window of cells: position and extent in cell units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellWindow {
    /// Leftmost cell column.
    pub cx: usize,
    /// Bottom cell row.
    pub cy: usize,
    /// Width in cells.
    pub w: usize,
    /// Height in cells.
    pub h: usize,
}

impl CellWindow {
    /// Returns `true` if the two windows share at least one cell.
    pub fn overlaps(&self, other: &CellWindow) -> bool {
        self.cx < other.cx + other.w
            && other.cx < self.cx + self.w
            && self.cy < other.cy + other.h
            && other.cy < self.cy + self.h
    }
}

/// Cell-binned point counts and their window sums.
///
/// # Examples
///
/// ```
/// use wmn_graph::density::DensityMap;
/// use wmn_model::geometry::{Area, Point};
///
/// let area = Area::square(40.0)?;
/// let clients = [Point::new(5.0, 5.0), Point::new(6.0, 6.0), Point::new(35.0, 35.0)];
/// let map = DensityMap::from_points(&area, clients, 4, 4); // 10x10 cells
///
/// let zones = map.ranked_disjoint_windows(1, 1, 2);
/// assert_eq!(map.window_count(&zones[0]), 2); // the two near (5, 5)
/// assert_eq!(map.window_count(&zones[1]), 1); // the one near (35, 35)
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DensityMap {
    area: Area,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    counts: Vec<u32>,
    /// Points binned: every point, out-of-area ones clamped in.
    total: u64,
}

impl DensityMap {
    /// Bins `points` into a `cols × rows` cell grid over `area`, in one
    /// pass over the iterator, so a caller can bin the positions of its
    /// own records without collecting them.
    ///
    /// Out-of-area points are clamped into boundary cells.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    pub fn from_points(
        area: &Area,
        points: impl IntoIterator<Item = Point>,
        cols: usize,
        rows: usize,
    ) -> DensityMap {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        let cell_w = area.width() / cols as f64;
        let cell_h = area.height() / rows as f64;
        let mut map = DensityMap {
            area: *area,
            cols,
            rows,
            cell_w,
            cell_h,
            counts: vec![0u32; cols * rows],
            total: 0,
        };
        for p in points {
            let (cx, cy) = map.cell_of(p);
            map.counts[cy * cols + cx] += 1;
            map.total += 1;
        }
        map
    }

    /// Grid shape as `(columns, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The deployment area this map covers.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Total number of binned points.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count inside a window: the sum of its cells, in O(window cells).
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the grid.
    pub fn window_count(&self, w: &CellWindow) -> u64 {
        assert!(
            w.cx + w.w <= self.cols && w.cy + w.h <= self.rows && w.w > 0 && w.h > 0,
            "window out of range: {w:?} on {}x{}",
            self.cols,
            self.rows
        );
        (w.cy..w.cy + w.h)
            .flat_map(|cy| &self.counts[cy * self.cols + w.cx..][..w.w])
            .map(|&c| u64::from(c))
            .sum()
    }

    fn clamp_window(&self, w_cells: usize, h_cells: usize) -> (usize, usize) {
        (w_cells.clamp(1, self.cols), h_cells.clamp(1, self.rows))
    }

    /// Up to `k` pairwise-disjoint windows of the given size, ordered by
    /// decreasing count (greedy selection; ties toward the lowest
    /// `(cy, cx)`). This is the zone ranking HotSpot walks: the most
    /// powerful router goes to the first window, the next to the second,
    /// and so on.
    ///
    /// Fewer than `k` windows are returned when the grid cannot host `k`
    /// disjoint windows of this size.
    pub fn ranked_disjoint_windows(
        &self,
        w_cells: usize,
        h_cells: usize,
        k: usize,
    ) -> Vec<CellWindow> {
        let (w, h) = self.clamp_window(w_cells, h_cells);
        let mut candidates: Vec<(u64, CellWindow)> = Vec::new();
        for cy in 0..=(self.rows - h) {
            for cx in 0..=(self.cols - w) {
                let win = CellWindow { cx, cy, w, h };
                candidates.push((self.window_count(&win), win));
            }
        }
        // Sort by count descending, then (cy, cx) ascending for determinism.
        candidates.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(a.1.cy.cmp(&b.1.cy))
                .then(a.1.cx.cmp(&b.1.cx))
        });
        let mut chosen: Vec<CellWindow> = Vec::with_capacity(k.min(candidates.len()));
        for (_, win) in candidates {
            if chosen.len() == k {
                break;
            }
            if chosen.iter().all(|c| !c.overlaps(&win)) {
                chosen.push(win);
            }
        }
        chosen
    }

    /// Maps a window back to deployment-area coordinates.
    pub fn window_rect(&self, w: &CellWindow) -> Rect {
        Rect::new(
            Point::new(self.edge_x(w.cx), self.edge_y(w.cy)),
            Point::new(self.edge_x(w.cx + w.w), self.edge_y(w.cy + w.h)),
        )
    }

    /// The `k`-th vertical cell edge, `k·cell_w`. Window rects and
    /// [`ZoneBins`] both take their x-bounds from here, bit for bit.
    fn edge_x(&self, k: usize) -> f64 {
        k as f64 * self.cell_w
    }

    /// The `k`-th horizontal cell edge, `k·cell_h`.
    fn edge_y(&self, k: usize) -> f64 {
        k as f64 * self.cell_h
    }

    /// Bins a zone ranking (windows in rank order, e.g. from
    /// [`ranked_disjoint_windows`](DensityMap::ranked_disjoint_windows))
    /// for O(1) point → zone lookup; see [`ZoneBins`].
    ///
    /// # Panics
    ///
    /// Panics if a window exceeds the grid.
    pub fn zone_bins(&self, zones: &[CellWindow]) -> ZoneBins {
        let mut cell_zone = vec![NO_ZONE; self.cols * self.rows];
        let mut disjoint = true;
        // Reverse rank order, so a cell covered by several windows ends up
        // owned by the first of them.
        for (zi, z) in zones.iter().enumerate().rev() {
            let zi = u32::try_from(zi).expect("fewer zones than u32::MAX");
            for cy in z.cy..z.cy + z.h {
                let row = &mut cell_zone[cy * self.cols + z.cx..][..z.w];
                disjoint &= row.iter().all(|&zone| zone == NO_ZONE);
                row.fill(zi);
            }
        }
        ZoneBins {
            disjoint,
            cols: self.cols,
            rows: self.rows,
            inv_cell_w: 1.0 / self.cell_w,
            inv_cell_h: 1.0 / self.cell_h,
            edges_x: (0..=self.cols).map(|k| self.edge_x(k)).collect(),
            edges_y: (0..=self.rows).map(|k| self.edge_y(k)).collect(),
            rects: zones.iter().map(|z| self.window_rect(z)).collect(),
            clients: zones.iter().map(|z| self.window_count(z)).collect(),
            cell_zone,
        }
    }

    /// The cell containing `p` (clamped into the grid).
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        (
            axis_cell(p.x / self.cell_w, self.cols),
            axis_cell(p.y / self.cell_h, self.rows),
        )
    }
}

/// [`ZoneBins`]' cell → zone entry for a cell no zone covers.
const NO_ZONE: u32 = u32::MAX;

/// A zone ranking binned for O(1) point → zone lookup (built by
/// [`DensityMap::zone_bins`]).
///
/// A point's zone is the **first** zone in rank order whose
/// [`window_rect`](DensityMap::window_rect) contains it. `Rect::contains` is
/// inclusive, so a point on an edge that two zones share goes to the
/// higher-ranked one. Every zone rect is made of the cell-edge floats
/// `k·cell_w` and `k·cell_h`, so a point strictly between two adjacent edges
/// on both axes lies in exactly the rects whose windows cover its cell, and
/// a cell → zone table answers it. A point on a cell edge or off the grid
/// takes the rank-order `Rect::contains` scan instead. A
/// [`census`](ZoneBins::census_into) of a point set uses the same split.
///
/// # Examples
///
/// ```
/// use wmn_graph::density::{CellWindow, DensityMap};
/// use wmn_model::geometry::{Area, Point};
///
/// let map = DensityMap::from_points(&Area::square(40.0)?, [], 4, 4); // 10x10 cells
/// let left = CellWindow { cx: 0, cy: 0, w: 2, h: 2 };
/// let right = CellWindow { cx: 2, cy: 0, w: 2, h: 2 };
/// let zones = map.zone_bins(&[right, left]);
///
/// assert_eq!(zones.zone_of(Point::new(5.0, 5.0)), Some(1));
/// assert_eq!(zones.zone_of(Point::new(20.0, 5.0)), Some(0)); // shared edge: first in rank
/// assert_eq!(zones.zone_of(Point::new(5.0, 35.0)), None);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ZoneBins {
    /// Whether no two zones share a cell, so a point strictly inside a
    /// cell lies in at most one zone rect.
    disjoint: bool,
    cols: usize,
    rows: usize,
    inv_cell_w: f64,
    inv_cell_h: f64,
    /// `edges_x[k] == k·cell_w` for `k` in `0..=cols`.
    edges_x: Vec<f64>,
    /// `edges_y[k] == k·cell_h` for `k` in `0..=rows`.
    edges_y: Vec<f64>,
    /// Zone rects, in rank order.
    rects: Vec<Rect>,
    /// Client count of each zone, in rank order.
    clients: Vec<u64>,
    /// First zone in rank order covering each cell (`cy * cols + cx`), or
    /// [`NO_ZONE`].
    cell_zone: Vec<u32>,
}

impl ZoneBins {
    /// Number of zones.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Whether there are no zones.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The area-coordinate rect of zone `zone`.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range.
    pub fn rect(&self, zone: usize) -> Rect {
        self.rects[zone]
    }

    /// The client count of zone `zone`.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range.
    pub fn clients(&self, zone: usize) -> u64 {
        self.clients[zone]
    }

    /// The zone `p` belongs to: the first zone in rank order whose rect
    /// contains it, or `None`.
    pub fn zone_of(&self, p: Point) -> Option<usize> {
        match self.interior_cell(p) {
            Some(cell) => {
                let zone = self.cell_zone[cell];
                (zone != NO_ZONE).then_some(zone as usize)
            }
            None => self.scan(p),
        }
    }

    /// Takes the census of `points` (numbered in iteration order) into
    /// `census`, reusing its buffers: every zone's occupancy, which counts
    /// each point toward the zone [`zone_of`](ZoneBins::zone_of) gives it,
    /// and every zone's members, the points its closed rect contains in
    /// ascending order. Two passes over the points (count, then fill); a
    /// point strictly inside a cell of disjoint zones takes its zone from
    /// the cell table, any other point scans the zone rects.
    ///
    /// # Panics
    ///
    /// Panics if a point's index does not fit u32.
    pub fn census_into<I>(&self, points: I, census: &mut ZoneCensus)
    where
        I: IntoIterator<Item = Point>,
        I::IntoIter: Clone,
    {
        let ZoneCensus {
            occupancy,
            starts,
            members,
        } = census;
        let zones = self.len();
        // The cell-table points in no zone go to one extra zone, `zones`,
        // dropped at the end, so that path has no branch on whether a cell
        // has a zone (on a random placement, that branch mispredicts).
        occupancy.clear();
        occupancy.resize(zones + 1, 0);
        // Counting pass: zone `z`'s member count goes to `starts[z + 1]`.
        starts.clear();
        starts.resize(zones + 2, 0);
        let points = points.into_iter();
        for p in points.clone() {
            let mut first = true;
            self.for_each_zone_of(p, |z| {
                starts[z + 1] += 1;
                occupancy[z] += u32::from(first);
                first = false;
            });
        }
        for z in 0..=zones {
            starts[z + 1] += starts[z];
        }
        // Fill pass, with `starts[z]` as zone `z`'s write cursor; it ends at
        // the old `starts[z + 1]`, so one shift restores the offsets.
        members.clear();
        members.resize(starts[zones + 1] as usize, 0);
        for (i, p) in points.enumerate() {
            let i = u32::try_from(i).expect("point index fits u32");
            self.for_each_zone_of(p, |z| {
                members[starts[z] as usize] = i;
                starts[z] += 1;
            });
        }
        starts.copy_within(0..=zones, 1);
        starts[0] = 0;
        occupancy.truncate(zones);
        starts.truncate(zones + 1);
        members.truncate(starts[zones] as usize);
    }

    /// Updates `census`, taken by [`census_into`](ZoneBins::census_into),
    /// for point `i` moved from `from` to `to`: it becomes the census of the
    /// moved point set. Costs a binary search and a shift of the flat member
    /// array per zone left or joined, not a pass over the points.
    ///
    /// # Panics
    ///
    /// Panics if `census` does not hold point `i` at `from` (it was taken
    /// of other points, or by other zones).
    pub fn census_move(&self, census: &mut ZoneCensus, i: u32, from: Point, to: Point) {
        let zones = self.len();
        let mut first = true;
        self.for_each_zone_of(from, |z| {
            if z < zones {
                census.occupancy[z] -= u32::from(first);
                census.leave(z, i);
            }
            first = false;
        });
        let mut first = true;
        self.for_each_zone_of(to, |z| {
            if z < zones {
                census.occupancy[z] += u32::from(first);
                census.join(z, i);
            }
            first = false;
        });
    }

    /// Calls `f` with every zone whose rect contains `p`, in rank order,
    /// except that a point strictly inside a cell of disjoint zones that
    /// no zone covers goes to `len()`.
    #[inline]
    fn for_each_zone_of(&self, p: Point, mut f: impl FnMut(usize)) {
        match self.interior_cell(p) {
            Some(cell) if self.disjoint => f((self.cell_zone[cell] as usize).min(self.len())),
            _ => {
                for (zone, rect) in self.rects.iter().enumerate() {
                    if rect.contains(p) {
                        f(zone);
                    }
                }
            }
        }
    }

    /// The cell (`cy * cols + cx`) `p` lies strictly inside, or `None` when
    /// `p` is on a cell edge, off the grid, or NaN. The guessed cell is
    /// checked against the edge floats, so a rounding slip in the guess
    /// only sends `p` to the scan.
    #[inline]
    fn interior_cell(&self, p: Point) -> Option<usize> {
        let cx = axis_cell(p.x * self.inv_cell_w, self.cols);
        let cy = axis_cell(p.y * self.inv_cell_h, self.rows);
        // `&`, not `&&`: the four tests are cheap, and evaluating all of
        // them keeps data-dependent branches out of the caller's loop.
        let inside = (self.edges_x[cx] < p.x)
            & (p.x < self.edges_x[cx + 1])
            & (self.edges_y[cy] < p.y)
            & (p.y < self.edges_y[cy + 1]);
        inside.then_some(cy * self.cols + cx)
    }

    /// The rank-order scan: the first zone whose rect contains `p`.
    fn scan(&self, p: Point) -> Option<usize> {
        self.rects.iter().position(|r| r.contains(p))
    }
}

/// Where a point set sits among the zones of a [`ZoneBins`] (taken by
/// [`ZoneBins::census_into`]): each zone's occupancy and its members.
///
/// A point on an edge two zone rects share is a member of both, but
/// occupies only the first in rank order. The member lists of all zones
/// share one flat u32 array, cut by zone offsets, so a census of `n`
/// points over disjoint zones holds at most `4n` ids (a point on a grid
/// corner touches at most four cells).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneCensus {
    /// Per zone, the points whose first containing zone it is.
    occupancy: Vec<u32>,
    /// Zone `z`'s members are `members[starts[z]..starts[z + 1]]`.
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl ZoneCensus {
    /// How many points [`ZoneBins::zone_of`] assigns to zone `zone`.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range.
    pub fn occupancy(&self, zone: usize) -> usize {
        self.occupancy[zone] as usize
    }

    /// The points inside zone `zone`'s closed rect, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range.
    pub fn members(&self, zone: usize) -> &[u32] {
        &self.members[self.starts[zone] as usize..self.starts[zone + 1] as usize]
    }

    /// Removes point `i` from zone `zone`'s members.
    fn leave(&mut self, zone: usize, i: u32) {
        let at = self
            .members(zone)
            .binary_search(&i)
            .expect("a member leaves");
        self.members.remove(self.starts[zone] as usize + at);
        for start in &mut self.starts[zone + 1..] {
            *start -= 1;
        }
    }

    /// Adds point `i` to zone `zone`'s members, keeping them ascending.
    fn join(&mut self, zone: usize, i: u32) {
        let at = self
            .members(zone)
            .binary_search(&i)
            .expect_err("a non-member joins");
        self.members.insert(self.starts[zone] as usize + at, i);
        for start in &mut self.starts[zone + 1..] {
            *start += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wmn_model::rng::rng_from_seed;

    fn area40() -> Area {
        Area::square(40.0).unwrap()
    }

    #[test]
    fn counts_every_point_once() {
        let area = area40();
        let mut rng = rng_from_seed(1);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen_range(0.0..=40.0), rng.gen_range(0.0..=40.0)))
            .collect();
        let map = DensityMap::from_points(&area, pts.iter().copied(), 8, 8);
        assert_eq!(map.total(), 500);
        let sum: u64 = (0..8)
            .flat_map(|y| (0..8).map(move |x| (x, y)))
            .map(|(cx, cy)| map.window_count(&CellWindow { cx, cy, w: 1, h: 1 }))
            .sum();
        assert_eq!(sum, 500);
    }

    #[test]
    fn densest_window_finds_cluster() {
        let area = area40();
        // 5 points in the top-right 4x4 region, 1 elsewhere.
        let pts = [
            Point::new(38.0, 38.0),
            Point::new(37.0, 39.0),
            Point::new(39.0, 37.0),
            Point::new(38.5, 38.5),
            Point::new(37.5, 37.5),
            Point::new(2.0, 2.0),
        ];
        let map = DensityMap::from_points(&area, pts, 10, 10);
        let dense = map.ranked_disjoint_windows(1, 1, 1)[0];
        assert_eq!(map.window_count(&dense), 5);
        let rect = map.window_rect(&dense);
        assert!(rect.contains(Point::new(38.0, 38.0)));
    }

    #[test]
    fn sparsest_window_avoids_cluster() {
        let area = area40();
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(1.0 + (i % 5) as f64 * 0.5, 1.0 + (i / 5) as f64 * 0.5))
            .collect();
        let map = DensityMap::from_points(&area, pts.iter().copied(), 4, 4);
        // All 16 one-cell windows are disjoint, so the ranking ends at the
        // sparsest.
        let ranked = map.ranked_disjoint_windows(1, 1, 16);
        assert_eq!(ranked.len(), 16);
        assert_eq!(map.window_count(&ranked[15]), 0);
        assert_eq!(map.window_count(&ranked[0]), 50);
    }

    #[test]
    fn ties_break_deterministically() {
        let area = area40();
        let map = DensityMap::from_points(&area, [], 4, 4);
        let ranked = map.ranked_disjoint_windows(2, 2, 4);
        let corners: Vec<_> = ranked.iter().map(|w| (w.cx, w.cy)).collect();
        assert_eq!(corners, vec![(0, 0), (2, 0), (0, 2), (2, 2)]);
    }

    #[test]
    fn window_dimensions_are_clamped() {
        let area = area40();
        let map = DensityMap::from_points(&area, [Point::new(1.0, 1.0)], 4, 4);
        let w = map.ranked_disjoint_windows(100, 100, 1)[0];
        assert_eq!((w.w, w.h), (4, 4));
        assert_eq!(map.window_count(&w), 1);
        let z = map.ranked_disjoint_windows(0, 0, 1)[0];
        assert_eq!((z.w, z.h), (1, 1));
    }

    #[test]
    fn ranked_disjoint_windows_are_disjoint_and_sorted() {
        let area = area40();
        let mut rng = rng_from_seed(5);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen_range(0.0..=40.0), rng.gen_range(0.0..=40.0)))
            .collect();
        let map = DensityMap::from_points(&area, pts.iter().copied(), 8, 8);
        let wins = map.ranked_disjoint_windows(2, 2, 10);
        assert!(wins.len() <= 10);
        assert!(!wins.is_empty());
        for (i, a) in wins.iter().enumerate() {
            for b in wins.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "windows {a:?} and {b:?} overlap");
            }
        }
        let counts: Vec<u64> = wins.iter().map(|w| map.window_count(w)).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(counts, sorted, "ranked windows must be count-descending");
    }

    #[test]
    fn ranked_windows_cap_at_grid_capacity() {
        let area = area40();
        let map = DensityMap::from_points(&area, [Point::new(1.0, 1.0)], 4, 4);
        // 2x2 windows in a 4x4 grid: at most 4 disjoint.
        let wins = map.ranked_disjoint_windows(2, 2, 100);
        assert_eq!(wins.len(), 4);
    }

    #[test]
    fn window_overlap_logic() {
        let a = CellWindow {
            cx: 0,
            cy: 0,
            w: 2,
            h: 2,
        };
        let b = CellWindow {
            cx: 1,
            cy: 1,
            w: 2,
            h: 2,
        };
        let c = CellWindow {
            cx: 2,
            cy: 0,
            w: 2,
            h: 2,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn cell_of_clamps() {
        let area = area40();
        let map = DensityMap::from_points(&area, [], 4, 4);
        assert_eq!(map.cell_of(Point::new(-5.0, 100.0)), (0, 3));
        assert_eq!(map.cell_of(Point::new(40.0, 40.0)), (3, 3));
        assert_eq!(map.cell_of(Point::new(0.0, 0.0)), (0, 0));
    }

    #[test]
    fn integer_cell_mapping_matches_the_floor_formula() {
        // Cell sides 33/7 and 21/5, inexact in binary. Per axis: the signed
        // zeros and values just below zero, every cell edge k·c with its
        // float neighbours, the far bound, and values no float-to-int cast
        // can hold. The old mapping is the oracle.
        let area = Area::new(33.0, 21.0).unwrap();
        let (cols, rows) = (7, 5);
        let floor_cell = |v: f64, cells: usize| (v.floor().max(0.0) as usize).min(cells - 1);
        let axis = |side: f64, cells: usize| {
            let c = side / cells as f64;
            let mut v = vec![0.0, -0.0, -1e-300, -0.5, side, side.next_up()];
            for k in 0..=cells + 1 {
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
            ]);
            v
        };
        let (xs, ys) = (axis(33.0, cols), axis(21.0, rows));
        let points: Vec<Point> = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y)))
            .collect();
        let map = DensityMap::from_points(&area, points.iter().copied(), cols, rows);
        let (cell_w, cell_h) = (33.0 / cols as f64, 21.0 / rows as f64);
        let mut counts = vec![0u64; cols * rows];
        for &p in &points {
            let expected = (
                floor_cell(p.x / cell_w, cols),
                floor_cell(p.y / cell_h, rows),
            );
            assert_eq!(map.cell_of(p), expected, "{p:?}");
            counts[expected.1 * cols + expected.0] += 1;
        }
        for (b, &count) in counts.iter().enumerate() {
            let one = CellWindow {
                cx: b % cols,
                cy: b / cols,
                w: 1,
                h: 1,
            };
            assert_eq!(map.window_count(&one), count, "cell {b}");
        }
        assert_eq!(map.total(), points.len() as u64);
    }

    #[test]
    fn zone_bins_match_the_rank_order_scan_on_edges_and_overlaps() {
        // A non-square grid whose cell sides (33/7, 21/5) are inexact in
        // binary, with overlapping windows: every point, on an edge or not,
        // gets the first window rect in rank order that contains it.
        let area = Area::new(33.0, 21.0).unwrap();
        let map = DensityMap::from_points(&area, [Point::new(20.0, 10.0)], 7, 5);
        let win = |cx, cy, w, h| CellWindow { cx, cy, w, h };
        let zones = [
            win(1, 1, 3, 2),
            win(3, 0, 2, 4),
            win(5, 3, 2, 2),
            win(0, 3, 1, 1),
        ];
        let bins = map.zone_bins(&zones);
        let reference = |p: Point| zones.iter().position(|z| map.window_rect(z).contains(p));

        let axis = |side: f64, cells: usize, rng: &mut dyn rand::RngCore| {
            let mut v = vec![-1.0, side, side + 1.0, f64::NAN];
            for k in 0..=cells {
                let edge = k as f64 * (side / cells as f64);
                v.extend([edge.next_down(), edge, edge.next_up()]);
            }
            v.extend((0..8).map(|_| rng.gen_range(0.0..=side)));
            v
        };
        let mut rng = rng_from_seed(3);
        let (xs, ys) = (axis(33.0, 7, &mut rng), axis(21.0, 5, &mut rng));
        let points: Vec<Point> = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y)))
            .collect();
        let mut expected = vec![0usize; zones.len()];
        for &p in &points {
            let zone = reference(p);
            assert_eq!(bins.zone_of(p), zone, "{p:?}");
            if let Some(z) = zone {
                expected[z] += 1;
            }
        }
        let mut census = ZoneCensus::default();
        bins.census_into(points.iter().copied(), &mut census);
        for (z, window) in zones.iter().enumerate() {
            assert_eq!(census.occupancy(z), expected[z], "zone {z}");
            let rect = map.window_rect(window);
            let members: Vec<u32> = (0..points.len() as u32)
                .filter(|&i| rect.contains(points[i as usize]))
                .collect();
            assert_eq!(census.members(z), members, "zone {z}");
        }
        assert_eq!(bins.clients(1), 1);
        assert_eq!(bins.rect(2), map.window_rect(&zones[2]));
    }

    #[test]
    fn census_moves_match_a_fresh_census() {
        // Overlapping and disjoint windows; points on cell edges, on grid
        // corners, off the grid and inside cells. After every move the
        // updated census equals one taken afresh.
        let area = Area::new(33.0, 21.0).unwrap();
        let map = DensityMap::from_points(&area, [Point::new(20.0, 10.0)], 7, 5);
        let win = |cx, cy, w, h| CellWindow { cx, cy, w, h };
        let overlapping = [win(1, 1, 3, 2), win(3, 0, 2, 4), win(5, 3, 2, 2)];
        let disjoint = [win(0, 0, 2, 2), win(2, 0, 2, 2), win(2, 2, 2, 2)];
        let mut rng = rng_from_seed(5);
        let mut pool: Vec<Point> = vec![Point::new(-1.0, 3.0), Point::new(40.0, 40.0)];
        for (k, j) in [(0, 0), (3, 2), (2, 2), (4, 4), (5, 3)] {
            let (x, y) = (k as f64 * (33.0 / 7.0), j as f64 * (21.0 / 5.0));
            pool.extend([Point::new(x, y), Point::new(x, y.next_up())]);
            pool.push(Point::new(x.next_down(), (j as f64 + 0.5) * (21.0 / 5.0)));
        }
        pool.extend(
            (0..20).map(|_| Point::new(rng.gen_range(0.0..=33.0), rng.gen_range(0.0..=21.0))),
        );
        for zones in [&overlapping[..], &disjoint[..]] {
            let bins = map.zone_bins(zones);
            let mut points: Vec<Point> = (0..24).map(|k| pool[k % pool.len()]).collect();
            let mut census = ZoneCensus::default();
            bins.census_into(points.iter().copied(), &mut census);
            for step in 0..300 {
                let i = rng.gen_range(0..points.len());
                let to = pool[rng.gen_range(0..pool.len())];
                bins.census_move(&mut census, i as u32, points[i], to);
                points[i] = to;
                let mut fresh = ZoneCensus::default();
                bins.census_into(points.iter().copied(), &mut fresh);
                assert_eq!(census, fresh, "step {step}");
            }
        }
    }

    #[test]
    fn out_of_area_points_clamp_into_boundary_cells() {
        let area = area40();
        let map = DensityMap::from_points(&area, [Point::new(100.0, -5.0)], 4, 4);
        let corner = CellWindow {
            cx: 3,
            cy: 0,
            w: 1,
            h: 1,
        };
        assert_eq!(map.window_count(&corner), 1);
        assert_eq!(map.total(), 1);
    }
}

//! The seven ad hoc methods and the scatter step they share.
//!
//! [`AdHocMethod`] enumerates the paper's methods in table order, and
//! [`AdHocMethod::place`] runs one: it lays out the method's pattern, then
//! scatters it as the crate docs describe.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::fmt;
use wmn_graph::density::DensityMap;
use wmn_model::distribution::standard_normal;
use wmn_model::geometry::{Area, Point, Rect};
use wmn_model::instance::ProblemInstance;
use wmn_model::node::Client;
use wmn_model::placement::Placement;

/// Fraction of routers that follow their method's pattern.
pub(crate) const ADHERENCE: f64 = 0.9;
/// Standard deviation of the jitter around a pattern point, as a fraction
/// of the area's smaller side.
pub(crate) const JITTER_FRACTION: f64 = 0.015;
/// ColLeft: the first column's inset from the left edge, as a fraction of
/// the width.
const COLUMN_INSET: f64 = 0.02;
/// ColLeft: the spacing between columns, as a fraction of the width.
const COLUMN_SPACING: f64 = 0.05;
/// Diag and Cross: inset of the diagonals' ends from the corners, as a
/// fraction of each side.
const DIAGONAL_INSET: f64 = 0.02;
/// Near: the central rectangle spans `[NEAR_MIN, NEAR_MAX]` of each side.
const NEAR_MIN: f64 = 0.25;
/// See [`NEAR_MIN`].
const NEAR_MAX: f64 = 0.75;
/// Corners: side of each corner square, as a fraction of the smaller side.
const CORNER_FRACTION: f64 = 0.25;
/// HotSpot: the density grid has `HOTSPOT_CELLS × HOTSPOT_CELLS` cells, and
/// each zone is one cell.
pub(crate) const HOTSPOT_CELLS: usize = 16;
/// HotSpot: clients a zone needs to attract routers.
const HOTSPOT_MIN_ZONE_CLIENTS: u64 = 2;

/// The seven ad hoc methods, in the order of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdHocMethod {
    /// Paper §3, method 1: "Mesh router nodes are uniformly at random
    /// distributed in the grid area." The baseline every other method is
    /// compared against. Its pattern is the uniform draw itself, so it is
    /// not scattered.
    Random,
    /// Paper §3, method 2: "Places almost all mesh routers at the left side
    /// of the grid area. … usually applicable when the number of mesh
    /// routers is (proportionally) smaller than grid area height, for
    /// instance, one third of the height."
    ///
    /// Routers fill vertical columns from the left edge, one router per
    /// nominal router diameter of height, each column evenly spaced. The
    /// mass stays on the left even past the paper's one-third guidance.
    ColLeft,
    /// Paper §3, method 3: "Mesh routers are concentrated along the (main)
    /// diagonal of the grid area. … appropriate when the grid area fulfils
    /// some conditions such as the height and width must have similar
    /// values (we considered the case of 10% difference in their values)."
    ///
    /// Routers are evenly spaced along the main diagonal, its ends inset 2%
    /// from the corners.
    Diag,
    /// Paper §3, method 4: "Tends to place mesh routers along both
    /// diagonals of the grid area. Similar conditions as the ones for
    /// Diagonal placement are required."
    ///
    /// Routers alternate between the main and the anti diagonal, so both
    /// arms fill evenly whatever the router count's parity; the main
    /// diagonal takes the extra router of an odd count.
    Cross,
    /// Paper §3, method 5: "Mesh routers are concentrated in the central
    /// zone of the grid area. To apply the method, minimum and maximum
    /// (user specified) values are considered to trace a rectangle in the
    /// central part of the grid area; routers are distributed in the
    /// rectangle cells."
    ///
    /// The rectangle spans the middle half of each side. Routers take the
    /// cells of a near-square grid inside it, one per cell, row-major.
    Near,
    /// Paper §3, method 6: "Distributes the mesh routers in the corners of
    /// the grid area. The considered areas in the corners are fixed by user
    /// specified parameter values."
    ///
    /// Each corner square's side is a quarter of the area's smaller side.
    /// Routers are dealt round-robin to the squares (bottom-left,
    /// bottom-right, top-left, top-right) and laid out on a near-square
    /// grid inside each.
    Corners,
    /// Paper §3, method 7: "Starts by placing the most powerful mesh router
    /// in the most dense zone (in terms of client nodes) of the grid area;
    /// next, the second most powerful mesh router is placed in the second
    /// most dense zone, and so on until all routers are placed. … this
    /// method has a greater computational cost as compared to other methods
    /// due to the computation of denseness."
    ///
    /// Zones are the cells of a 16 × 16 [`DensityMap`], ranked by client
    /// count. Only zones with at least 2 clients attract routers (any
    /// populated zone when none has 2), which keeps routers on the
    /// contiguous client mass. When routers outnumber those zones, the
    /// assignment cycles back through them.
    HotSpot,
}

impl AdHocMethod {
    /// All seven methods in table order.
    pub fn all() -> [AdHocMethod; 7] {
        [
            AdHocMethod::Random,
            AdHocMethod::ColLeft,
            AdHocMethod::Diag,
            AdHocMethod::Cross,
            AdHocMethod::Near,
            AdHocMethod::Corners,
            AdHocMethod::HotSpot,
        ]
    }

    /// The method's stable name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            AdHocMethod::Random => "Random",
            AdHocMethod::ColLeft => "ColLeft",
            AdHocMethod::Diag => "Diag",
            AdHocMethod::Cross => "Cross",
            AdHocMethod::Near => "Near",
            AdHocMethod::Corners => "Corners",
            AdHocMethod::HotSpot => "HotSpot",
        }
    }

    /// Places `instance`'s routers with this method: its pattern, scattered
    /// as the crate docs describe. The result always validates against
    /// `instance`.
    pub fn place(&self, instance: &ProblemInstance, rng: &mut dyn RngCore) -> Placement {
        let pattern = self.pattern(instance, rng);
        let (adherence, jitter_fraction) = match self {
            // Every router keeps its uniform point, but still takes its
            // adherence draw: every recorded Random result depends on that
            // draw order.
            AdHocMethod::Random => (1.0, 0.0),
            _ => (ADHERENCE, JITTER_FRACTION),
        };
        scatter(&instance.area(), pattern, adherence, jitter_fraction, rng)
    }

    /// The method's pattern point for each router, in router order. Only
    /// Random reads `rng`.
    pub(crate) fn pattern(&self, instance: &ProblemInstance, rng: &mut dyn RngCore) -> Vec<Point> {
        let area = instance.area();
        let (w, h) = (area.width(), area.height());
        let n = instance.router_count();
        let t = DIAGONAL_INSET;
        let main_diagonal = |count| {
            points_along_segment(
                Point::new(w * t, h * t),
                Point::new(w * (1.0 - t), h * (1.0 - t)),
                count,
            )
        };
        match self {
            AdHocMethod::Random => (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..=w), rng.gen_range(0.0..=h)))
                .collect(),
            AdHocMethod::ColLeft => {
                let diameter = 2.0 * instance.routers()[0].profile().nominal_radius();
                let per_column = ((h / diameter).floor() as usize).max(1);
                (0..n)
                    .map(|i| {
                        let col = i / per_column;
                        let rows_in_col = per_column.min(n - col * per_column);
                        let y = if rows_in_col <= 1 {
                            h / 2.0
                        } else {
                            h * ((i % per_column) as f64 + 0.5) / rows_in_col as f64
                        };
                        Point::new(COLUMN_INSET * w + col as f64 * (COLUMN_SPACING * w), y)
                    })
                    .collect()
            }
            AdHocMethod::Diag => main_diagonal(n),
            AdHocMethod::Cross => {
                let main = main_diagonal(n - n / 2);
                let anti = points_along_segment(
                    Point::new(w * t, h * (1.0 - t)),
                    Point::new(w * (1.0 - t), h * t),
                    n / 2,
                );
                (0..n)
                    .map(|i| if i % 2 == 0 { main[i / 2] } else { anti[i / 2] })
                    .collect()
            }
            AdHocMethod::Near => grid_in_rect(
                &Rect::new(
                    Point::new(w * NEAR_MIN, h * NEAR_MIN),
                    Point::new(w * NEAR_MAX, h * NEAR_MAX),
                ),
                n,
            ),
            AdHocMethod::Corners => {
                // Router i goes to corner i % 4, slot i / 4, so corner k
                // holds (n + 3 - k) / 4 routers.
                let grids: Vec<Vec<Point>> = corner_rects(&area)
                    .iter()
                    .enumerate()
                    .map(|(k, rect)| grid_in_rect(rect, (n + 3 - k) / 4))
                    .collect();
                (0..n).map(|i| grids[i % 4][i / 4]).collect()
            }
            AdHocMethod::HotSpot => {
                let map = hotspot_density(instance);
                let mut zones = map.ranked_disjoint_windows(1, 1, n);
                // Zones are ranked by client count, so the zones that pass
                // a threshold form a prefix.
                let passing = |threshold| {
                    zones
                        .iter()
                        .take_while(|z| map.window_count(z) >= threshold)
                        .count()
                };
                let keep = match passing(HOTSPOT_MIN_ZONE_CLIENTS) {
                    0 => passing(1),
                    qualifying => qualifying,
                };
                if keep > 0 {
                    zones.truncate(keep);
                }
                debug_assert!(!zones.is_empty(), "grid always hosts at least one zone");
                let mut pattern = vec![Point::origin(); n];
                for (rank, router) in instance.routers_by_power_desc().into_iter().enumerate() {
                    pattern[router.index()] = map.window_rect(&zones[rank % zones.len()]).center();
                }
                pattern
            }
        }
    }
}

impl fmt::Display for AdHocMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The scatter step every method shares. Per pattern point, in order: draw
/// an `f64`; if it is at least `adherence`, the router breaks the pattern
/// and gets a uniform point (x, then y); otherwise it gets the pattern
/// point plus Gaussian jitter of σ = `jitter_fraction` × the smaller side
/// (x, then y), clamped into the area.
pub(crate) fn scatter(
    area: &Area,
    pattern: Vec<Point>,
    adherence: f64,
    jitter_fraction: f64,
    rng: &mut dyn RngCore,
) -> Placement {
    let sigma = jitter_fraction * area.width().min(area.height());
    pattern
        .into_iter()
        .map(|p| {
            if rng.gen::<f64>() >= adherence {
                Point::new(
                    rng.gen_range(0.0..=area.width()),
                    rng.gen_range(0.0..=area.height()),
                )
            } else if sigma > 0.0 {
                area.clamp_point(Point::new(
                    p.x + sigma * standard_normal(rng),
                    p.y + sigma * standard_normal(rng),
                ))
            } else {
                area.clamp_point(p)
            }
        })
        .collect()
}

/// Spreads `n` points evenly along the segment from `a` to `b` (inclusive
/// endpoints for `n >= 2`; the midpoint for `n == 1`).
pub(crate) fn points_along_segment(a: Point, b: Point, n: usize) -> Vec<Point> {
    match n {
        0 => Vec::new(),
        1 => vec![a.midpoint(b)],
        _ => (0..n)
            .map(|i| a.lerp(b, i as f64 / (n - 1) as f64))
            .collect(),
    }
}

/// Lays `count` points on a near-square grid inside `rect`, one per cell,
/// row-major.
fn grid_in_rect(rect: &Rect, count: usize) -> Vec<Point> {
    let cols = (count as f64).sqrt().ceil().max(1.0) as usize;
    let rows = count.div_ceil(cols);
    (0..count)
        .map(|i| {
            let (cx, cy) = (i % cols, i / cols);
            Point::new(
                rect.min().x + rect.width() * (cx as f64 + 0.5) / cols as f64,
                rect.min().y + rect.height() * (cy as f64 + 0.5) / rows as f64,
            )
        })
        .collect()
}

/// Corners' four squares: bottom-left, bottom-right, top-left, top-right.
pub(crate) fn corner_rects(area: &Area) -> [Rect; 4] {
    let (w, h) = (area.width(), area.height());
    let side = CORNER_FRACTION * w.min(h);
    [
        Rect::new(Point::new(0.0, 0.0), Point::new(side, side)),
        Rect::new(Point::new(w - side, 0.0), Point::new(w, side)),
        Rect::new(Point::new(0.0, h - side), Point::new(side, h)),
        Rect::new(Point::new(w - side, h - side), Point::new(w, h)),
    ]
}

/// The client density map HotSpot ranks its zones on.
pub(crate) fn hotspot_density(instance: &ProblemInstance) -> DensityMap {
    DensityMap::from_points(
        &instance.area(),
        instance.clients().iter().map(Client::position),
        HOTSPOT_CELLS,
        HOTSPOT_CELLS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_model::instance::InstanceSpec;
    use wmn_model::rng::rng_from_seed;

    #[test]
    fn all_lists_seven_in_table_order() {
        let names: Vec<&str> = AdHocMethod::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["Random", "ColLeft", "Diag", "Cross", "Near", "Corners", "HotSpot"]
        );
    }

    #[test]
    fn every_method_places_validly_on_every_paper_instance() {
        for spec in [
            InstanceSpec::paper_uniform().unwrap(),
            InstanceSpec::paper_normal().unwrap(),
            InstanceSpec::paper_exponential().unwrap(),
            InstanceSpec::paper_weibull().unwrap(),
        ] {
            let inst = spec.generate(42).unwrap();
            for method in AdHocMethod::all() {
                let p = method.place(&inst, &mut rng_from_seed(7));
                assert!(
                    inst.validate_placement(&p).is_ok(),
                    "{method} produced an invalid placement"
                );
            }
        }
    }

    #[test]
    fn methods_differ_in_output() {
        let inst = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let placements: Vec<_> = AdHocMethod::all()
            .iter()
            .map(|m| m.place(&inst, &mut rng_from_seed(3)))
            .collect();
        for i in 0..placements.len() {
            for j in (i + 1)..placements.len() {
                assert_ne!(
                    placements[i],
                    placements[j],
                    "{} and {} coincide",
                    AdHocMethod::all()[i],
                    AdHocMethod::all()[j]
                );
            }
        }
    }
}

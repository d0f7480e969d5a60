//! The seven ad hoc placement methods for WMN mesh routers.
//!
//! Paper §3 evaluates seven simple placement topologies, useful both as
//! fast standalone methods and as initializers for evolutionary algorithms.
//! [`AdHocMethod`] lists them in table order, and [`AdHocMethod::place`]
//! runs one. Each variant's docs quote the paper and give the pattern:
//!
//! | Method | Pattern |
//! |---|---|
//! | Random  | uniform over the area |
//! | ColLeft | stacked columns at the left edge |
//! | Diag    | the main diagonal |
//! | Cross   | both diagonals |
//! | Near    | a central rectangle |
//! | Corners | the four corner squares |
//! | HotSpot | strongest routers into densest client zones |
//!
//! # The scatter rule
//!
//! Paper §3: *"in all considered methods, there is a pattern in placement
//! of mesh router nodes, meaning that **most** of the node placements
//! follow the pattern"*. Every method except Random lays out one pattern
//! point per router and then scatters it. For each router, in router
//! order, one uniform `f64` decides whether it follows the pattern (90%
//! adherence):
//!
//! - a pattern breaker (the other 10%) gets a uniform point in the area,
//!   x drawn before y;
//! - a follower gets its pattern point plus Gaussian jitter, x before y,
//!   with σ = 1.5% of the area's smaller side, clamped into the area.
//!
//! Random's uniform draw is its own pattern. Its routers still take the
//! adherence draw, which never breaks the pattern, and no jitter.
//!
//! # Quick start
//!
//! ```
//! use wmn_model::prelude::*;
//! use wmn_placement::AdHocMethod;
//!
//! let instance = InstanceSpec::paper_normal()?.generate(5)?;
//! let mut rng = rng_from_seed(0);
//! for method in AdHocMethod::all() {
//!     let placement = method.place(&instance, &mut rng);
//!     instance.validate_placement(&placement)?;
//! }
//! # Ok::<(), wmn_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;

pub use registry::AdHocMethod;

// Unit tests, one module per method, and `method` for the shared steps.
// The module names keep each test's id `<method>::tests::<name>`.

#[cfg(test)]
mod method {
    mod tests {
        use crate::registry::{points_along_segment, scatter, ADHERENCE, JITTER_FRACTION};
        use wmn_model::geometry::Point;
        use wmn_model::instance::{InstanceSpec, ProblemInstance};
        use wmn_model::rng::rng_from_seed;

        fn paper_instance() -> ProblemInstance {
            InstanceSpec::paper_uniform().unwrap().generate(1).unwrap()
        }

        #[test]
        fn exact_config_preserves_pattern() {
            let inst = paper_instance();
            let pattern: Vec<Point> = (0..64).map(|i| Point::new(i as f64, i as f64)).collect();
            let mut rng = rng_from_seed(1);
            let placed = scatter(&inst.area(), pattern.clone(), 1.0, 0.0, &mut rng);
            assert_eq!(placed.as_slice(), pattern.as_slice());
        }

        #[test]
        fn apply_clamps_out_of_area_pattern_points() {
            let inst = paper_instance();
            let pattern = vec![Point::new(-10.0, 500.0)];
            let mut rng = rng_from_seed(2);
            let placed = scatter(&inst.area(), pattern, 1.0, 0.0, &mut rng);
            assert!(inst.area().contains(placed.as_slice()[0]));
        }

        #[test]
        fn default_config_mostly_follows_pattern() {
            let inst = paper_instance();
            let center = inst.area().center();
            let pattern = vec![center; 500];
            let mut rng = rng_from_seed(3);
            let placed = scatter(&inst.area(), pattern, ADHERENCE, JITTER_FRACTION, &mut rng);
            // With 90% adherence and small jitter, most points stay near center.
            let near = placed
                .as_slice()
                .iter()
                .filter(|p| p.distance_squared(center) < 15.0 * 15.0)
                .count();
            assert!(near > 400, "only {near}/500 points near the pattern");
            // And some breakers exist (probability of zero breakers ~ 1e-23).
            assert!(near < 500, "adherence must leave room for pattern breakers");
        }

        #[test]
        fn zero_adherence_is_uniform_random() {
            let inst = paper_instance();
            let corner = Point::origin();
            let pattern = vec![corner; 400];
            let mut rng = rng_from_seed(4);
            let placed = scatter(&inst.area(), pattern, 0.0, 0.0, &mut rng);
            let far = placed
                .as_slice()
                .iter()
                .filter(|p| p.distance_squared(corner) > 64.0 * 64.0)
                .count();
            assert!(far > 100, "uniform placement must spread out, {far} far");
        }

        #[test]
        fn apply_always_validates() {
            let inst = paper_instance();
            let pattern: Vec<Point> = (0..64).map(|_| Point::new(1e9, -1e9)).collect();
            let mut rng = rng_from_seed(5);
            let placed = scatter(&inst.area(), pattern, ADHERENCE, JITTER_FRACTION, &mut rng);
            assert!(inst.validate_placement(&placed).is_ok());
        }

        #[test]
        fn segment_points_include_endpoints() {
            let a = Point::new(0.0, 0.0);
            let b = Point::new(10.0, 10.0);
            let pts = points_along_segment(a, b, 5);
            assert_eq!(pts.len(), 5);
            assert_eq!(pts[0], a);
            assert_eq!(pts[4], b);
            assert_eq!(pts[2], Point::new(5.0, 5.0));
        }

        #[test]
        fn segment_degenerate_counts() {
            let a = Point::new(0.0, 0.0);
            let b = Point::new(10.0, 0.0);
            assert!(points_along_segment(a, b, 0).is_empty());
            assert_eq!(points_along_segment(a, b, 1), vec![Point::new(5.0, 0.0)]);
        }
    }
}

#[cfg(test)]
mod random {
    mod tests {
        use crate::AdHocMethod;
        use wmn_model::instance::InstanceSpec;
        use wmn_model::rng::rng_from_seed;

        #[test]
        fn placement_is_valid_and_deterministic() {
            let inst = InstanceSpec::paper_uniform().unwrap().generate(1).unwrap();
            let a = AdHocMethod::Random.place(&inst, &mut rng_from_seed(9));
            let b = AdHocMethod::Random.place(&inst, &mut rng_from_seed(9));
            assert_eq!(a, b);
            assert!(inst.validate_placement(&a).is_ok());
        }

        #[test]
        fn spreads_over_all_quadrants() {
            let inst = InstanceSpec::paper_uniform().unwrap().generate(2).unwrap();
            let p = AdHocMethod::Random.place(&inst, &mut rng_from_seed(1));
            let c = inst.area().center();
            let quads = [
                p.as_slice().iter().any(|q| q.x < c.x && q.y < c.y),
                p.as_slice().iter().any(|q| q.x >= c.x && q.y < c.y),
                p.as_slice().iter().any(|q| q.x < c.x && q.y >= c.y),
                p.as_slice().iter().any(|q| q.x >= c.x && q.y >= c.y),
            ];
            assert!(
                quads.iter().all(|&b| b),
                "64 uniform points hit all quadrants"
            );
        }
    }
}

#[cfg(test)]
mod col_left {
    mod tests {
        use crate::AdHocMethod;
        use wmn_model::instance::{InstanceSpec, ProblemInstance};
        use wmn_model::rng::rng_from_seed;

        fn paper_instance() -> ProblemInstance {
            InstanceSpec::paper_uniform().unwrap().generate(1).unwrap()
        }

        #[test]
        fn mass_is_on_the_left() {
            let inst = paper_instance();
            let p = AdHocMethod::ColLeft.place(&inst, &mut rng_from_seed(7));
            assert!(inst.validate_placement(&p).is_ok());
            let left_half = p.as_slice().iter().filter(|q| q.x < 64.0).count();
            assert!(
                left_half >= 55,
                "ColLeft should keep most of 64 routers on the left, got {left_half}"
            );
        }

        #[test]
        fn columns_fill_top_to_bottom() {
            let inst = paper_instance();
            let p = AdHocMethod::ColLeft.pattern(&inst, &mut rng_from_seed(1));
            // First column: 12 routers (128 height / 10 diameter), evenly spaced.
            let first_col_x = p[0].x;
            let mut ys: Vec<f64> = p
                .iter()
                .filter(|q| (q.x - first_col_x).abs() < 1e-9)
                .map(|q| q.y)
                .collect();
            assert!(ys.len() >= 2);
            ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Evenly spaced: consecutive gaps equal.
            let gap = ys[1] - ys[0];
            for w in ys.windows(2) {
                assert!((w[1] - w[0] - gap).abs() < 1e-6);
            }
        }

        #[test]
        fn deterministic_per_seed() {
            let inst = paper_instance();
            let m = AdHocMethod::ColLeft;
            assert_eq!(
                m.place(&inst, &mut rng_from_seed(5)),
                m.place(&inst, &mut rng_from_seed(5))
            );
        }
    }
}

#[cfg(test)]
mod diag {
    mod tests {
        use crate::AdHocMethod;
        use wmn_model::geometry::Point;
        use wmn_model::instance::{InstanceSpec, ProblemInstance};
        use wmn_model::rng::rng_from_seed;

        fn paper_instance() -> ProblemInstance {
            InstanceSpec::paper_uniform().unwrap().generate(1).unwrap()
        }

        #[test]
        fn routers_hug_the_main_diagonal() {
            let inst = paper_instance();
            let p = AdHocMethod::Diag.place(&inst, &mut rng_from_seed(3));
            assert!(inst.validate_placement(&p).is_ok());
            // Distance from y = x line (square area): |y - x| / sqrt(2).
            let near = p
                .as_slice()
                .iter()
                .filter(|q| (q.y - q.x).abs() / 2f64.sqrt() < 8.0)
                .count();
            assert!(near >= 55, "most routers near diagonal, got {near}/64");
        }

        #[test]
        fn exact_pattern_spans_corner_to_corner() {
            let inst = paper_instance();
            let s = AdHocMethod::Diag.pattern(&inst, &mut rng_from_seed(1));
            // The ends sit 2% in from the corners of the 128 x 128 area.
            assert_eq!(s[0], Point::new(128.0 * 0.02, 128.0 * 0.02));
            assert_eq!(s[63], Point::new(128.0 * 0.98, 128.0 * 0.98));
            // Monotone along the diagonal.
            for w in s.windows(2) {
                assert!(w[1].x > w[0].x && w[1].y > w[0].y);
            }
        }
    }
}

#[cfg(test)]
mod cross {
    mod tests {
        use crate::AdHocMethod;
        use wmn_model::geometry::Point;
        use wmn_model::instance::{InstanceSpec, ProblemInstance};
        use wmn_model::rng::rng_from_seed;

        fn paper_instance() -> ProblemInstance {
            InstanceSpec::paper_uniform().unwrap().generate(1).unwrap()
        }

        fn diagonal_distance(q: &Point) -> f64 {
            // Min distance to either diagonal of the 128x128 square.
            let main = (q.y - q.x).abs() / 2f64.sqrt();
            let anti = (q.y + q.x - 128.0).abs() / 2f64.sqrt();
            main.min(anti)
        }

        #[test]
        fn routers_hug_one_of_the_diagonals() {
            let inst = paper_instance();
            let p = AdHocMethod::Cross.place(&inst, &mut rng_from_seed(8));
            assert!(inst.validate_placement(&p).is_ok());
            let near = p
                .as_slice()
                .iter()
                .filter(|q| diagonal_distance(q) < 8.0)
                .count();
            assert!(near >= 55, "most routers near a diagonal, got {near}/64");
        }

        #[test]
        fn both_arms_are_populated() {
            let inst = paper_instance();
            let p = AdHocMethod::Cross.pattern(&inst, &mut rng_from_seed(1));
            let on_main = p.iter().filter(|q| (q.y - q.x).abs() < 1e-6).count();
            let on_anti = p
                .iter()
                .filter(|q| (q.y + q.x - 128.0).abs() < 1e-6)
                .count();
            assert_eq!(on_main, 32);
            assert_eq!(on_anti, 32);
        }

        #[test]
        fn odd_router_count_splits_evenly() {
            // n = 9: main diagonal gets 5 points (including the center, which
            // lies on both diagonals), anti diagonal gets 4 (center-free).
            let spec = InstanceSpec::new(
                wmn_model::Area::square(100.0).unwrap(),
                9,
                10,
                wmn_model::ClientDistribution::Uniform,
                wmn_model::RadioProfile::paper_default(),
            )
            .unwrap();
            let inst = spec.generate(1).unwrap();
            let p = AdHocMethod::Cross.pattern(&inst, &mut rng_from_seed(1));
            assert_eq!(p.len(), 9);
            let on_main = p.iter().filter(|q| (q.y - q.x).abs() < 1e-6).count();
            let on_anti = p
                .iter()
                .filter(|q| (q.y + q.x - 100.0).abs() < 1e-6)
                .count();
            assert_eq!(on_main, 5, "main diagonal takes the extra router");
            assert_eq!(on_anti, 5, "anti diagonal holds 4 plus the shared center");
        }
    }
}

#[cfg(test)]
mod near {
    mod tests {
        use crate::AdHocMethod;
        use wmn_model::instance::{InstanceSpec, ProblemInstance};
        use wmn_model::rng::rng_from_seed;

        fn paper_instance() -> ProblemInstance {
            InstanceSpec::paper_uniform().unwrap().generate(1).unwrap()
        }

        #[test]
        fn routers_sit_in_the_central_rectangle() {
            let inst = paper_instance();
            let p = AdHocMethod::Near.place(&inst, &mut rng_from_seed(5));
            assert!(inst.validate_placement(&p).is_ok());
            let central = p
                .as_slice()
                .iter()
                .filter(|q| q.x >= 28.0 && q.x <= 100.0 && q.y >= 28.0 && q.y <= 100.0)
                .count();
            assert!(central >= 55, "most routers central, got {central}/64");
        }

        #[test]
        fn exact_grid_fills_rows_and_columns() {
            let inst = paper_instance();
            let p = AdHocMethod::Near.pattern(&inst, &mut rng_from_seed(1));
            // 64 routers -> 8x8 grid in [32, 96]^2: distinct xs = 8, distinct ys = 8.
            let mut xs: Vec<i64> = p.iter().map(|q| (q.x * 1000.0) as i64).collect();
            xs.sort_unstable();
            xs.dedup();
            assert_eq!(xs.len(), 8);
            let inside = p
                .iter()
                .all(|q| q.x > 32.0 && q.x < 96.0 && q.y > 32.0 && q.y < 96.0);
            assert!(inside);
        }
    }
}

#[cfg(test)]
mod corners {
    mod tests {
        use crate::registry::corner_rects;
        use crate::AdHocMethod;
        use wmn_model::instance::{InstanceSpec, ProblemInstance};
        use wmn_model::rng::rng_from_seed;

        fn paper_instance() -> ProblemInstance {
            InstanceSpec::paper_uniform().unwrap().generate(1).unwrap()
        }

        /// How many pattern points fall in each corner square.
        fn per_corner(inst: &ProblemInstance) -> Vec<usize> {
            let p = AdHocMethod::Corners.pattern(inst, &mut rng_from_seed(1));
            corner_rects(&inst.area())
                .iter()
                .map(|r| p.iter().filter(|q| r.contains(**q)).count())
                .collect()
        }

        #[test]
        fn routers_sit_in_corner_squares() {
            let inst = paper_instance();
            let p = AdHocMethod::Corners.place(&inst, &mut rng_from_seed(4));
            assert!(inst.validate_placement(&p).is_ok());
            let rects = corner_rects(&inst.area());
            // Inflate by jitter reach for the count.
            let near = p
                .as_slice()
                .iter()
                .filter(|q| {
                    rects
                        .iter()
                        .any(|r| r.clamp_point(**q).distance_squared(**q) < 36.0)
                })
                .count();
            assert!(near >= 55, "most routers in/near corners, got {near}/64");
        }

        #[test]
        fn exact_pattern_splits_evenly_across_corners() {
            assert_eq!(per_corner(&paper_instance()), vec![16, 16, 16, 16]);
        }

        #[test]
        fn uneven_count_deals_round_robin() {
            let spec = InstanceSpec::new(
                wmn_model::Area::square(100.0).unwrap(),
                6,
                8,
                wmn_model::ClientDistribution::Uniform,
                wmn_model::RadioProfile::paper_default(),
            )
            .unwrap();
            assert_eq!(per_corner(&spec.generate(1).unwrap()), vec![2, 2, 1, 1]);
        }

        #[test]
        fn corner_rects_are_disjoint_for_small_fraction() {
            let rects = corner_rects(&paper_instance().area());
            for (i, a) in rects.iter().enumerate() {
                for b in rects.iter().skip(i + 1) {
                    assert!(!a.intersects(b), "corner squares must not overlap");
                }
            }
        }
    }
}

#[cfg(test)]
mod hotspot {
    mod tests {
        use crate::registry::{hotspot_density, HOTSPOT_CELLS};
        use crate::AdHocMethod;
        use wmn_model::geometry::Point;
        use wmn_model::instance::{InstanceBuilder, InstanceSpec, ProblemInstance};
        use wmn_model::rng::rng_from_seed;
        use wmn_model::{Area, RadioProfile};

        /// `n` clients spread evenly over the disk of radius `spread` around
        /// `center` (a sunflower spiral).
        fn cluster(center: Point, n: usize, spread: f64) -> impl Iterator<Item = Point> {
            (0..n).map(move |k| {
                let (r, a) = (spread * (k as f64 / n as f64).sqrt(), k as f64 * 2.4);
                Point::new(center.x + r * a.cos(), center.y + r * a.sin())
            })
        }

        /// `routers` routers with distinct radii spanning `[2, 8]`, so the
        /// power order is the reverse of the router order, and the given
        /// clients, on the paper's 128 × 128 area.
        fn instance(routers: usize, clients: impl Iterator<Item = Point>) -> ProblemInstance {
            let profile = RadioProfile::paper_default();
            let mut builder = InstanceBuilder::new(Area::square(128.0).unwrap());
            for i in 0..routers {
                builder = builder.router(profile, 2.0 + 6.0 * i as f64 / routers as f64);
            }
            builder.clients(clients).build().unwrap()
        }

        fn clustered_instance() -> ProblemInstance {
            // A heavy cluster of 160 clients at (20, 20), a light one of 40
            // at (100, 100).
            let heavy = cluster(Point::new(20.0, 20.0), 160, 10.0);
            instance(16, heavy.chain(cluster(Point::new(100.0, 100.0), 40, 10.0)))
        }

        #[test]
        fn placement_is_valid_on_paper_instance() {
            let inst = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
            let p = AdHocMethod::HotSpot.place(&inst, &mut rng_from_seed(3));
            assert!(inst.validate_placement(&p).is_ok());
        }

        #[test]
        fn most_powerful_router_lands_in_densest_zone() {
            let inst = clustered_instance();
            let p = AdHocMethod::HotSpot.pattern(&inst, &mut rng_from_seed(1));
            let strongest = inst.routers_by_power_desc()[0];
            let pos = p[strongest.index()];
            assert!(
                pos.distance_squared(Point::new(20.0, 20.0)) < 25.0 * 25.0,
                "strongest router {pos} should sit at the heavy cluster"
            );
        }

        #[test]
        fn routers_concentrate_on_client_mass() {
            let inst = clustered_instance();
            let p = AdHocMethod::HotSpot.place(&inst, &mut rng_from_seed(2));
            let near_spots = p
                .as_slice()
                .iter()
                .filter(|q| {
                    q.distance_squared(Point::new(20.0, 20.0)) < 40.0 * 40.0
                        || q.distance_squared(Point::new(100.0, 100.0)) < 40.0 * 40.0
                })
                .count();
            assert!(
                near_spots >= 12,
                "most of 16 routers near the clusters, got {near_spots}"
            );
        }

        #[test]
        fn zone_ranking_respects_power_order() {
            let inst = clustered_instance();
            let p = AdHocMethod::HotSpot.pattern(&inst, &mut rng_from_seed(1));
            let map = hotspot_density(&inst);
            let by_power = inst.routers_by_power_desc();
            // Count clients within the zone around each of the two strongest
            // routers: the strongest must sit on at least as many clients.
            let zone_count = |pos: Point| {
                let (cx, cy) = map.cell_of(pos);
                let w = wmn_graph::density::CellWindow {
                    cx: cx.saturating_sub(1),
                    cy: cy.saturating_sub(1),
                    w: 2,
                    h: 2,
                };
                map.window_count(&w)
            };
            let first = zone_count(p[by_power[0].index()]);
            let last = zone_count(p[by_power[by_power.len() - 1].index()]);
            assert!(
                first >= last,
                "densest zone ({first}) must not be sparser than the last zone ({last})"
            );
        }

        #[test]
        fn more_routers_than_zones_cycles() {
            // 48 routers, and every client close to one of two cell
            // centers: only those two cells reach 2 clients, so the routers
            // cycle through the two zones in power order.
            let pitch = 128.0 / HOTSPOT_CELLS as f64;
            let first = cluster(Point::new(2.5 * pitch, 2.5 * pitch), 20, 0.05 * pitch);
            let second = cluster(Point::new(12.5 * pitch, 9.5 * pitch), 20, 0.05 * pitch);
            let inst = instance(48, first.chain(second));
            let p = AdHocMethod::HotSpot.pattern(&inst, &mut rng_from_seed(1));
            let by_power = inst.routers_by_power_desc();
            let mut zones: Vec<Point> = Vec::new();
            for id in &by_power {
                if !zones.contains(&p[id.index()]) {
                    zones.push(p[id.index()]);
                }
            }
            assert_eq!(zones.len(), 2, "one zone per client cluster");
            for (rank, id) in by_power.iter().enumerate() {
                assert_eq!(p[id.index()], zones[rank % zones.len()]);
            }
        }

        #[test]
        fn deterministic_per_seed() {
            let inst = clustered_instance();
            let m = AdHocMethod::HotSpot;
            assert_eq!(
                m.place(&inst, &mut rng_from_seed(9)),
                m.place(&inst, &mut rng_from_seed(9))
            );
        }
    }
}

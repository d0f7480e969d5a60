//! Property-based tests for the model crate's core invariants.

use proptest::prelude::*;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point, Rect};
use wmn_model::placement::Placement;
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;
use wmn_model::spatial::axis_cell;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e6..1.0e6
}

fn point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn axis_cell_matches_the_floor_formula(
        bits in any::<u64>(),
        pick in 0usize..66,
    ) {
        // Any bit pattern (NaNs, infinities, subnormals, huge magnitudes)
        // on axes of 1 to 64 cells, 2^16 cells and u32::MAX cells.
        let cells = match pick {
            64 => 65_536,
            65 => u32::MAX as usize,
            _ => pick + 1,
        };
        let v = f64::from_bits(bits);
        let floor_cell = (v.floor().max(0.0) as usize).min(cells - 1);
        prop_assert_eq!(axis_cell(v, cells), floor_cell);
    }

    #[test]
    fn distance_is_symmetric(a in point(), b in point()) {
        prop_assert_eq!(a.distance_squared(b), b.distance_squared(a));
    }

    #[test]
    fn distance_triangle_inequality(a in point(), b in point(), c in point()) {
        let direct = a.distance_squared(c).sqrt();
        let via = a.distance_squared(b).sqrt() + b.distance_squared(c).sqrt();
        // Tolerate floating rounding at large magnitudes.
        prop_assert!(direct <= via + 1e-6 * via.max(1.0));
    }

    #[test]
    fn distance_squared_consistent(a in point(), b in point()) {
        prop_assert!(a.distance_squared(b) >= 0.0);
        prop_assert_eq!(a.distance_squared(a), 0.0);
    }

    #[test]
    fn rect_normalization_contains_both_corners(a in point(), b in point()) {
        let r = Rect::new(a, b);
        prop_assert!(r.contains(a));
        prop_assert!(r.contains(b));
        prop_assert!(r.width() >= 0.0 && r.height() >= 0.0);
    }

    #[test]
    fn rect_clamp_lands_inside(a in point(), b in point(), p in point()) {
        let r = Rect::new(a, b);
        let c = r.clamp_point(p);
        prop_assert!(r.contains(c));
        // Clamping is idempotent.
        prop_assert_eq!(r.clamp_point(c), c);
    }

    #[test]
    fn rect_intersection_is_contained(
        a in point(), b in point(), c in point(), d in point()
    ) {
        // Two rectangles meet exactly when the point of one nearest the
        // other's center lies in the other.
        let r1 = Rect::new(a, b);
        let r2 = Rect::new(c, d);
        prop_assert_eq!(r1.intersects(&r2), r2.intersects(&r1));
        prop_assert_eq!(r1.intersects(&r2), r2.contains(r1.clamp_point(r2.center())));
    }

    #[test]
    fn area_clamp_lands_inside(w in 1.0..1000.0f64, h in 1.0..1000.0f64, p in point()) {
        let area = Area::new(w, h).unwrap();
        prop_assert!(area.contains(area.clamp_point(p)));
    }

    #[test]
    fn radio_samples_respect_profile(lo in 0.1..50.0f64, span in 0.0..50.0f64, seed in any::<u64>()) {
        let profile = RadioProfile::new(lo, lo + span).unwrap();
        let mut rng = rng_from_seed(seed);
        for _ in 0..32 {
            let r = profile.sample(&mut rng);
            prop_assert!(profile.contains(r));
        }
    }

    #[test]
    fn distributions_sample_in_area(
        seed in any::<u64>(),
        which in 0usize..4,
        w in 10.0..500.0f64,
        h in 10.0..500.0f64,
    ) {
        let area = Area::new(w, h).unwrap();
        let dist = match which {
            0 => ClientDistribution::Uniform,
            1 => ClientDistribution::paper_normal(&area).unwrap(),
            2 => ClientDistribution::paper_exponential(&area).unwrap(),
            _ => ClientDistribution::paper_weibull(&area).unwrap(),
        };
        let mut rng = rng_from_seed(seed);
        for p in dist.sample_points(&area, 64, &mut rng) {
            prop_assert!(area.contains(p), "sample {p} escaped {area}");
        }
    }

    #[test]
    fn placement_swap_is_involutive(points in proptest::collection::vec(point(), 2..20), i in 0usize..20, j in 0usize..20) {
        let n = points.len();
        let (i, j) = (i % n, j % n);
        let original = Placement::from_points(points);
        let mut p = original.clone();
        p.swap(wmn_model::RouterId(i), wmn_model::RouterId(j));
        p.swap(wmn_model::RouterId(i), wmn_model::RouterId(j));
        prop_assert_eq!(p, original);
    }

    #[test]
    fn clamped_placement_validates(points in proptest::collection::vec(point(), 1..30)) {
        let area = Area::square(100.0).unwrap();
        let n = points.len();
        let p: Placement = points.iter().map(|q| area.clamp_point(*q)).collect();
        prop_assert!(p.validate(&area, n).is_ok());
    }
}

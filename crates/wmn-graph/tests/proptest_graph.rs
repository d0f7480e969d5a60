//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use wmn_graph::adjacency::MeshAdjacency;
use wmn_graph::components::Components;
use wmn_graph::density::{CellWindow, DensityMap};
use wmn_graph::dsu::UnionFind;
use wmn_graph::topology::WmnTopology;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::InstanceSpec;
use wmn_model::node::RouterId;
use wmn_model::rng::rng_from_seed;
use wmn_model::spatial::GridIndex;

fn in_area_point(side: f64) -> impl Strategy<Value = Point> {
    (0.0..side, 0.0..side).prop_map(|(x, y)| Point::new(x, y))
}

fn layout(side: f64, max_n: usize) -> impl Strategy<Value = (Vec<Point>, Vec<f64>)> {
    proptest::collection::vec((0.0..side, 0.0..side, 1.0..10.0f64), 1..max_n).prop_map(|v| {
        let pts = v.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
        let radii = v.iter().map(|&(_, _, r)| r).collect();
        (pts, radii)
    })
}

/// Naive partition of `0..n` induced by a union operation sequence.
fn naive_partition(n: usize, unions: &[(usize, usize)]) -> Vec<usize> {
    let mut label: Vec<usize> = (0..n).collect();
    for &(a, b) in unions {
        let (la, lb) = (label[a], label[b]);
        if la != lb {
            for l in label.iter_mut() {
                if *l == lb {
                    *l = la;
                }
            }
        }
    }
    label
}

proptest! {
    #[test]
    fn dsu_matches_naive_partition(
        n in 1usize..40,
        ops in proptest::collection::vec((0usize..40, 0usize..40), 0..80)
    ) {
        let ops: Vec<(usize, usize)> = ops.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &ops {
            uf.union(a, b);
        }
        let naive = naive_partition(n, &ops);
        let roots: Vec<usize> = (0..n).map(|i| uf.find(i)).collect();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    roots[i] == roots[j],
                    naive[i] == naive[j],
                    "connectivity mismatch for ({}, {})", i, j
                );
            }
        }
        // Root count and per-root sizes agree with the naive labels.
        let distinct: std::collections::HashSet<usize> = naive.iter().copied().collect();
        let root_set: std::collections::HashSet<usize> = roots.iter().copied().collect();
        prop_assert_eq!(root_set.len(), distinct.len());
        for i in 0..n {
            let naive_size = naive.iter().filter(|&&l| l == naive[i]).count();
            let root_size = roots.iter().filter(|&&r| r == roots[i]).count();
            prop_assert_eq!(root_size, naive_size);
        }
    }

    #[test]
    fn spatial_index_equals_brute_force(
        (pts, _) in layout(100.0, 120),
        center in in_area_point(100.0),
        radius in 0.0..60.0f64,
        cell in 1.0..30.0f64,
    ) {
        let area = Area::square(100.0).unwrap();
        let index = GridIndex::build(&area, pts.clone(), cell);
        let mut fast = Vec::new();
        index.within_radius_into(center, radius, &mut fast);
        fast.sort_unstable();
        let slow = GridIndex::brute_force_within_radius(&pts, center, radius);
        prop_assert_eq!(fast.iter().map(|&i| i as usize).collect::<Vec<_>>(), slow);
    }

    #[test]
    fn adjacency_indexed_equals_brute_force(
        (pts, radii) in layout(100.0, 100),
        side in 20.0..100.0f64,
        clustered in any::<bool>(),
        exact in proptest::collection::vec(
            (1u32..=80, 1u32..=80, 1u32..5, 0u32..1600, any::<bool>()),
            0..8,
        ),
    ) {
        // Points drawn over 100 × 100 and squeezed into a `side` corner:
        // from sparse meshes to nearly complete ones. Clustered, the
        // corner is 1.9 wide, inside one router-grid cell (cells are
        // twice the largest radius, and at least 2).
        let area = Area::square(100.0).unwrap();
        let scale = if clustered { 0.019 } else { side / 100.0 };
        let mut pts: Vec<Point> = pts.iter().map(|p| Point::new(p.x * scale, p.y * scale)).collect();
        let mut radii = radii;
        // Pairs exactly min(r_i, r_j) apart, straddling the `edge`-th cell
        // edge of the grid the build lays, across x or (`vertical`) y.
        // Radii in eighths and coordinates in sixteenths keep every
        // distance exact, so each pair links.
        let eighths = |k: u32| f64::from(k) / 8.0;
        let cell = 2.0 * exact
            .iter()
            .flat_map(|&(a, b, ..)| [eighths(a), eighths(b)])
            .chain(radii.iter().copied())
            .fold(1.0_f64, f64::max);
        for &(a, b, edge, along, vertical) in &exact {
            let (ri, rj) = (eighths(a), eighths(b));
            let d = ri.min(rj);
            let near = ((f64::from(edge) * cell - d / 2.0) * 16.0).floor() / 16.0;
            let at = f64::from(along) / 16.0;
            let (p, q) = if vertical {
                (Point::new(at, near), Point::new(at, near + d))
            } else {
                (Point::new(near, at), Point::new(near + d, at))
            };
            prop_assert_eq!(p.distance_squared(q), d * d);
            pts.extend([p, q]);
            radii.extend([ri, rj]);
        }
        let fast = MeshAdjacency::build(&area, &pts, &radii);
        let slow = MeshAdjacency::build_brute_force(&pts, &radii);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn components_bfs_equals_dsu((pts, radii) in layout(50.0, 100)) {
        let area = Area::square(100.0).unwrap();
        let adj = MeshAdjacency::build(&area, &pts, &radii);
        prop_assert_eq!(
            Components::from_adjacency(&adj),
            Components::from_adjacency_dsu(&adj)
        );
    }

    #[test]
    fn giant_size_bounds((pts, radii) in layout(50.0, 100)) {
        let area = Area::square(100.0).unwrap();
        let adj = MeshAdjacency::build(&area, &pts, &radii);
        let c = Components::from_adjacency(&adj);
        prop_assert!(c.giant_size() >= 1);
        prop_assert!(c.giant_size() <= pts.len());
        prop_assert_eq!(c.sizes().iter().map(|&s| s as usize).sum::<usize>(), pts.len());
    }

    #[test]
    fn density_sat_equals_naive(
        pts in proptest::collection::vec(in_area_point(64.0), 0..200),
        cols in 1usize..20,
        rows in 1usize..20,
    ) {
        // Every point is binned once, at any grid shape.
        let area = Area::square(64.0).unwrap();
        let map = DensityMap::from_points(&area, pts.iter().copied(), cols, rows);
        prop_assert_eq!(map.total(), pts.len() as u64);
    }

    #[test]
    fn density_cells_match_the_floor_formula(
        x in any::<u64>(),
        y in any::<u64>(),
        cols in 1usize..40,
        rows in 1usize..40,
    ) {
        // Any coordinates, NaN and infinities included, map to the cell of
        // the old floor formula on a grid whose cell sides are inexact.
        let area = Area::new(33.0, 21.0).unwrap();
        let map = DensityMap::from_points(&area, [], cols, rows);
        let p = Point::new(f64::from_bits(x), f64::from_bits(y));
        let floor_cell = |v: f64, cells: usize| (v.floor().max(0.0) as usize).min(cells - 1);
        let expected = (
            floor_cell(p.x / (33.0 / cols as f64), cols),
            floor_cell(p.y / (21.0 / rows as f64), rows),
        );
        prop_assert_eq!(map.cell_of(p), expected);
    }

    #[test]
    fn densest_window_is_maximal(
        pts in proptest::collection::vec(in_area_point(64.0), 0..150),
        w in 1usize..6,
        h in 1usize..6,
    ) {
        let area = Area::square(64.0).unwrap();
        let map = DensityMap::from_points(&area, pts.iter().copied(), 8, 8);
        // The first ranked window is the densest of its size.
        let dense = map.ranked_disjoint_windows(w, h, 1)[0];
        let dense_count = map.window_count(&dense);
        for cy in 0..=(8 - h) {
            for cx in 0..=(8 - w) {
                let c = map.window_count(&CellWindow { cx, cy, w, h });
                prop_assert!(c <= dense_count);
            }
        }
    }

    #[test]
    fn topology_incremental_equals_full_rebuild(
        seed in any::<u64>(),
        moves in proptest::collection::vec((0usize..16, 0.0..64.0f64, 0.0..64.0f64), 1..12),
    ) {
        let area = Area::square(64.0).unwrap();
        let spec = InstanceSpec::new(
            area,
            16,
            24,
            wmn_model::distribution::ClientDistribution::Uniform,
            wmn_model::radio::RadioProfile::paper_default(),
        ).unwrap();
        let instance = spec.generate(seed).unwrap();
        let mut rng = rng_from_seed(seed ^ 0x55);
        let placement = instance.random_placement(&mut rng);
        let mut topo = WmnTopology::build(&instance, &placement).unwrap();
        for (i, x, y) in moves {
            topo.move_router(RouterId(i), Point::new(x, y));
            let incr = (topo.giant_size(), topo.covered_count());
            let mut full = topo.clone();
            full.rebuild_full();
            prop_assert_eq!(incr, (full.giant_size(), full.covered_count()));
        }
    }
}

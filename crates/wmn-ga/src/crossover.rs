//! Single-point crossover on placement chromosomes.
//!
//! The chromosome is the vector of router positions, indexed by router id.
//! Crossover only copies genes between parents, never invents positions,
//! so children of valid parents are valid.

use rand::{Rng, RngCore};
use wmn_model::geometry::Point;
use wmn_model::placement::Placement;

/// Cuts both router vectors at one uniform point in `0..=n` and exchanges
/// the tails, producing two children.
///
/// # Panics
///
/// Panics if the parents have different lengths.
pub fn single_point(a: &Placement, b: &Placement, rng: &mut dyn RngCore) -> (Placement, Placement) {
    assert_eq!(a.len(), b.len(), "parents must have equal router counts");
    let n = a.len();
    if n == 0 {
        return (Placement::new(), Placement::new());
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cut = rng.gen_range(0..=n);
    let c1: Vec<Point> = av[..cut].iter().chain(&bv[cut..]).copied().collect();
    let c2: Vec<Point> = bv[..cut].iter().chain(&av[cut..]).copied().collect();
    (c1.into(), c2.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_model::rng::rng_from_seed;
    use wmn_model::Area;

    fn parents(n: usize) -> (Placement, Placement) {
        let a: Placement = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        let b: Placement = (0..n).map(|i| Point::new(i as f64, 100.0)).collect();
        (a, b)
    }

    #[test]
    fn children_inherit_every_gene_from_some_parent() {
        let (a, b) = parents(16);
        let mut rng = rng_from_seed(1);
        let (c1, c2) = single_point(&a, &b, &mut rng);
        for k in 0..16 {
            let (pa, pb) = (a.as_slice()[k], b.as_slice()[k]);
            for c in [&c1, &c2] {
                let g = c.as_slice()[k];
                assert!(g == pa || g == pb, "gene {k} invented {g}");
            }
        }
        // Genes swap pairwise: c1[k] == a[k] iff c2[k] == b[k].
        for k in 0..16 {
            let (pa, pb) = (a.as_slice()[k], b.as_slice()[k]);
            if c1.as_slice()[k] == pa {
                assert_eq!(c2.as_slice()[k], pb);
            } else {
                assert_eq!(c2.as_slice()[k], pa);
            }
        }
    }

    #[test]
    fn children_stay_in_area_for_in_area_parents() {
        let area = Area::square(100.0).unwrap();
        let (a, b) = parents(12);
        let mut rng = rng_from_seed(3);
        let (c1, c2) = single_point(&a, &b, &mut rng);
        for c in [c1, c2] {
            assert!(c.validate(&area, 12).is_ok(), "child escaped the area");
        }
    }

    #[test]
    fn single_point_preserves_prefix_suffix_structure() {
        let (a, b) = parents(10);
        let mut rng = rng_from_seed(7);
        let (c1, _) = single_point(&a, &b, &mut rng);
        // c1 must be a-prefix then b-suffix: find the switch point and check
        // monotonicity (no interleaving).
        let ys: Vec<f64> = c1.as_slice().iter().map(|p| p.y).collect();
        let first_b = ys.iter().position(|&y| y == 100.0).unwrap_or(10);
        assert!(ys[..first_b].iter().all(|&y| y == 0.0));
        assert!(ys[first_b..].iter().all(|&y| y == 100.0));
    }

    #[test]
    fn empty_parents_yield_empty_children() {
        let mut rng = rng_from_seed(1);
        let (c1, c2) = single_point(&Placement::new(), &Placement::new(), &mut rng);
        assert!(c1.is_empty() && c2.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal router counts")]
    fn mismatched_parents_panic() {
        let (a, _) = parents(5);
        let (b, _) = parents(6);
        let mut rng = rng_from_seed(1);
        let _ = single_point(&a, &b, &mut rng);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, b) = parents(20);
        let r1 = single_point(&a, &b, &mut rng_from_seed(9));
        let r2 = single_point(&a, &b, &mut rng_from_seed(9));
        assert_eq!(r1, r2);
    }
}

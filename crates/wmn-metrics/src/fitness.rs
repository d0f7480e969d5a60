//! The scalar fitness every search and GA run maximizes.
//!
//! The paper states that "network connectivity is considered as more
//! important than user coverage" without fixing a formula; its results pin
//! the semantics down. Its best GA solutions pair a *fully connected* mesh
//! with mediocre coverage (Table 1 HotSpot: giant 64, coverage 86 of 192),
//! which only arises when no amount of coverage can veto a connectivity
//! improvement — a lexicographic order, not a weighted sum (under a
//! weighted sum, coverage-rich placements brake the final merges).

use crate::measurement::NetworkMeasurement;

/// Lexicographic fitness of a measurement; larger is better. The giant
/// component strictly dominates and covered clients break ties, scalarized
/// as `giant_size * (client_count + 1) + covered_clients`, which preserves
/// the lexicographic order exactly for integral objectives.
pub fn score(m: &NetworkMeasurement) -> f64 {
    m.giant_size as f64 * (m.client_count as f64 + 1.0) + m.covered_clients as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(giant: usize, covered: usize) -> NetworkMeasurement {
        NetworkMeasurement {
            giant_size: giant,
            covered_clients: covered,
            router_count: 64,
            client_count: 192,
            component_count: 1,
            link_count: 0,
        }
    }

    #[test]
    fn lexicographic_ignores_coverage_unless_tied() {
        assert!(score(&m(33, 0)) > score(&m(32, 192)));
        assert!(score(&m(32, 100)) > score(&m(32, 99)));
        assert_eq!(score(&m(32, 100)), score(&m(32, 100)));
    }

    #[test]
    fn scores_are_monotone_in_both_objectives() {
        assert!(score(&m(33, 96)) > score(&m(32, 96)));
        assert!(score(&m(32, 97)) > score(&m(32, 96)));
    }
}

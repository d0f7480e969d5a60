//! Composite fitness functions.
//!
//! The paper states that "network connectivity is considered as more
//! important than user coverage" without fixing a formula. Two standard
//! composites are provided:
//!
//! * [`FitnessFunction::Lexicographic`] — connectivity strictly dominates;
//!   coverage only breaks ties. Scalarized monotonically so neighborhood
//!   search and GA can still compare `f64` values. This is the workspace
//!   default; the paper's own results imply it (see
//!   [`FitnessFunction::paper_default`]).
//! * [`FitnessFunction::Weighted`] — `α·giant_ratio + (1-α)·coverage_ratio`
//!   (the weighting used in the authors' follow-up WMN placement work).

use crate::measurement::NetworkMeasurement;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default connectivity weight for [`FitnessFunction::Weighted`].
pub const DEFAULT_ALPHA: f64 = 0.7;

/// A scalar fitness over network measurements (maximization).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FitnessFunction {
    /// Weighted sum of normalized objectives:
    /// `alpha * giant_ratio + (1 - alpha) * coverage_ratio`.
    Weighted {
        /// Connectivity weight in `[0, 1]`.
        alpha: f64,
    },
    /// Connectivity first, coverage as tie-breaker. The scalarization is
    /// `giant_size * (client_count + 1) + covered_clients`, which preserves
    /// the lexicographic order exactly for integral objectives.
    Lexicographic,
}

impl FitnessFunction {
    /// The calibrated reproduction fitness: **lexicographic** — the giant
    /// component strictly dominates, coverage breaks ties.
    ///
    /// The paper says connectivity "is considered as more important than
    /// user coverage" without a formula; its results pin the semantics
    /// down. Its best GA solutions pair a *fully connected* mesh with
    /// mediocre coverage (Table 1 HotSpot: giant 64, coverage 86 of 192),
    /// which only arises when no amount of coverage can veto a
    /// connectivity improvement — i.e. lexicographic order, not a weighted
    /// sum (under a weighted sum, coverage-rich placements brake the final
    /// merges). The weighted composite remains available
    /// via [`FitnessFunction::weighted`].
    pub fn paper_default() -> Self {
        FitnessFunction::Lexicographic
    }

    /// A validated weighted fitness.
    ///
    /// # Errors
    ///
    /// Returns [`wmn_model::ModelError::InvalidDistribution`]-style
    /// validation as `Err(alpha)` when `alpha` is outside `[0, 1]` or
    /// non-finite. (A plain value error keeps this crate free of new error
    /// types for one constructor.)
    pub fn weighted(alpha: f64) -> Result<Self, f64> {
        if alpha.is_finite() && (0.0..=1.0).contains(&alpha) {
            Ok(FitnessFunction::Weighted { alpha })
        } else {
            Err(alpha)
        }
    }

    /// Scalar fitness of a measurement; larger is better.
    pub fn score(&self, m: &NetworkMeasurement) -> f64 {
        match self {
            FitnessFunction::Weighted { alpha } => {
                alpha * m.giant_ratio() + (1.0 - alpha) * m.coverage_ratio()
            }
            FitnessFunction::Lexicographic => {
                m.giant_size as f64 * (m.client_count as f64 + 1.0) + m.covered_clients as f64
            }
        }
    }

    /// Compares two measurements under this fitness; `Greater` means `a`
    /// is strictly better than `b`.
    pub fn compare(&self, a: &NetworkMeasurement, b: &NetworkMeasurement) -> std::cmp::Ordering {
        self.score(a)
            .partial_cmp(&self.score(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl Default for FitnessFunction {
    fn default() -> Self {
        FitnessFunction::paper_default()
    }
}

impl fmt::Display for FitnessFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitnessFunction::Weighted { alpha } => write!(f, "weighted(alpha={alpha})"),
            FitnessFunction::Lexicographic => write!(f, "lexicographic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

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
    fn weighted_score_formula() {
        let f = FitnessFunction::Weighted { alpha: 0.7 };
        let v = f.score(&m(32, 96));
        assert!((v - (0.7 * 0.5 + 0.3 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn weighted_prefers_connectivity_with_high_alpha() {
        let f = FitnessFunction::Weighted { alpha: 0.7 };
        // +1 router in giant (1/64 * 0.7 ≈ 0.0109) beats +2 clients (2/192 * 0.3 ≈ 0.0031).
        assert_eq!(f.compare(&m(33, 96), &m(32, 98)), Ordering::Greater);
    }

    #[test]
    fn lexicographic_ignores_coverage_unless_tied() {
        let f = FitnessFunction::Lexicographic;
        assert_eq!(f.compare(&m(33, 0), &m(32, 192)), Ordering::Greater);
        assert_eq!(f.compare(&m(32, 100), &m(32, 99)), Ordering::Greater);
        assert_eq!(f.compare(&m(32, 100), &m(32, 100)), Ordering::Equal);
    }

    #[test]
    fn weighted_constructor_validates() {
        assert!(FitnessFunction::weighted(0.0).is_ok());
        assert!(FitnessFunction::weighted(1.0).is_ok());
        assert!(FitnessFunction::weighted(-0.1).is_err());
        assert!(FitnessFunction::weighted(1.1).is_err());
        assert!(FitnessFunction::weighted(f64::NAN).is_err());
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(FitnessFunction::default(), FitnessFunction::Lexicographic);
    }

    #[test]
    fn scores_are_monotone_in_both_objectives() {
        for f in [
            FitnessFunction::paper_default(),
            FitnessFunction::Lexicographic,
        ] {
            assert!(f.score(&m(33, 96)) > f.score(&m(32, 96)), "{f}");
            assert!(f.score(&m(32, 97)) > f.score(&m(32, 96)), "{f}");
        }
    }

    #[test]
    fn display_names() {
        assert!(FitnessFunction::weighted(0.7)
            .unwrap()
            .to_string()
            .contains("0.7"));
        assert_eq!(FitnessFunction::Lexicographic.to_string(), "lexicographic");
    }
}

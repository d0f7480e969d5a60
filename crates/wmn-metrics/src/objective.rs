//! Individual optimization objectives.
//!
//! The paper optimizes two objectives: the size of the giant component
//! (network connectivity) and the number of covered clients (user
//! coverage), with connectivity "considered as more important". Objectives
//! are small stateless types implementing [`Objective`]; the fitness that
//! combines them lives in [`fitness`](crate::fitness).

use crate::measurement::NetworkMeasurement;
use std::fmt::Debug;

/// A scalar objective over network measurements (maximization).
///
/// Implementors return both a raw value (in natural units — routers,
/// clients) and a normalized value in `[0, 1]`.
pub trait Objective: Debug {
    /// Raw objective value in natural units.
    fn raw(&self, m: &NetworkMeasurement) -> f64;

    /// Normalized objective value in `[0, 1]`.
    fn normalized(&self, m: &NetworkMeasurement) -> f64;

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// Size of the giant component (paper objective 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GiantComponentSize;

impl Objective for GiantComponentSize {
    fn raw(&self, m: &NetworkMeasurement) -> f64 {
        m.giant_size as f64
    }

    fn normalized(&self, m: &NetworkMeasurement) -> f64 {
        m.giant_ratio()
    }

    fn name(&self) -> &'static str {
        "giant-component"
    }
}

/// Number of covered clients (paper objective 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UserCoverage;

impl Objective for UserCoverage {
    fn raw(&self, m: &NetworkMeasurement) -> f64 {
        m.covered_clients as f64
    }

    fn normalized(&self, m: &NetworkMeasurement) -> f64 {
        m.coverage_ratio()
    }

    fn name(&self) -> &'static str {
        "user-coverage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> NetworkMeasurement {
        NetworkMeasurement {
            giant_size: 16,
            covered_clients: 48,
            router_count: 64,
            client_count: 192,
            component_count: 10,
            link_count: 20,
        }
    }

    #[test]
    fn giant_component_values() {
        let o = GiantComponentSize;
        assert_eq!(o.raw(&m()), 16.0);
        assert_eq!(o.normalized(&m()), 0.25);
        assert_eq!(o.name(), "giant-component");
    }

    #[test]
    fn user_coverage_values() {
        let o = UserCoverage;
        assert_eq!(o.raw(&m()), 48.0);
        assert_eq!(o.normalized(&m()), 0.25);
        assert_eq!(o.name(), "user-coverage");
    }

    #[test]
    fn objectives_are_object_safe() {
        let objs: Vec<Box<dyn Objective>> =
            vec![Box::new(GiantComponentSize), Box::new(UserCoverage)];
        for o in &objs {
            assert!(o.normalized(&m()) <= 1.0);
        }
    }
}

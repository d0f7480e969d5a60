//! Individuals: placements with cached evaluations.

use serde::{Deserialize, Serialize};
use wmn_metrics::evaluator::Evaluation;
use wmn_model::placement::Placement;

/// One member of a GA population: a candidate placement (the chromosome is
/// the router position vector) plus its cached evaluation.
///
/// The cache is invalidated by any genetic operator that touches the
/// placement; the engine re-evaluates lazily once per generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Individual {
    placement: Placement,
    evaluation: Option<Evaluation>,
}

impl Individual {
    /// Wraps a placement as an unevaluated individual.
    pub fn new(placement: Placement) -> Self {
        Individual {
            placement,
            evaluation: None,
        }
    }

    /// The chromosome.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Mutable access to the chromosome; clears the evaluation cache.
    pub fn placement_mut(&mut self) -> &mut Placement {
        self.evaluation = None;
        &mut self.placement
    }

    /// The cached evaluation, if still valid.
    pub fn evaluation(&self) -> Option<Evaluation> {
        self.evaluation
    }

    /// Caches an evaluation.
    pub fn set_evaluation(&mut self, evaluation: Evaluation) {
        self.evaluation = Some(evaluation);
    }

    /// Cached fitness, or `f64::NEG_INFINITY` when unevaluated (so sorting
    /// unevaluated individuals last is safe).
    pub fn fitness(&self) -> f64 {
        self.evaluation.map_or(f64::NEG_INFINITY, |e| e.fitness)
    }

    /// Returns `true` if the evaluation cache is filled.
    pub fn is_evaluated(&self) -> bool {
        self.evaluation.is_some()
    }
}

impl From<Placement> for Individual {
    fn from(placement: Placement) -> Self {
        Individual::new(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_metrics::measurement::NetworkMeasurement;
    use wmn_model::geometry::Point;

    fn eval(fit: f64) -> Evaluation {
        Evaluation {
            measurement: NetworkMeasurement::default(),
            fitness: fit,
        }
    }

    #[test]
    fn cache_lifecycle() {
        let mut ind = Individual::new(Placement::from_points(vec![Point::new(1.0, 1.0)]));
        assert!(!ind.is_evaluated());
        assert_eq!(ind.fitness(), f64::NEG_INFINITY);
        ind.set_evaluation(eval(0.5));
        assert!(ind.is_evaluated());
        assert_eq!(ind.fitness(), 0.5);
        // Mutation invalidates.
        ind.placement_mut().push(Point::new(2.0, 2.0));
        assert!(!ind.is_evaluated());
    }

    #[test]
    fn read_access_keeps_cache() {
        let mut ind = Individual::new(Placement::new());
        ind.set_evaluation(eval(0.25));
        let _ = ind.placement();
        assert!(ind.is_evaluated());
    }

    #[test]
    fn conversions() {
        let p = Placement::from_points(vec![Point::new(3.0, 4.0)]);
        let ind: Individual = p.clone().into();
        assert_eq!(ind.placement(), &p);
    }
}

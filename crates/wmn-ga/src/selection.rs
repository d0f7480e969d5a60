//! Parent selection: `k`-tournament (the paper reproduction runs `k = 3`).

use crate::population::Population;
use rand::{Rng, RngCore};

/// Samples `k` individuals of an evaluated `population` uniformly (with
/// replacement) and returns the index of the fittest; ties keep the
/// earliest sample. Larger `k` means stronger selection pressure.
///
/// # Panics
///
/// Panics if the population is empty or `k == 0`.
pub(crate) fn tournament(population: &Population, k: usize, rng: &mut dyn RngCore) -> usize {
    let n = population.len();
    assert!(n > 0, "cannot select from an empty population");
    assert!(k > 0, "tournament size must be positive");
    let mut best = rng.gen_range(0..n);
    for _ in 1..k {
        let challenger = rng.gen_range(0..n);
        if population.individuals()[challenger].fitness() > population.individuals()[best].fitness()
        {
            best = challenger;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromosome::Individual;
    use wmn_metrics::evaluator::Evaluation;
    use wmn_metrics::measurement::NetworkMeasurement;
    use wmn_model::geometry::Point;
    use wmn_model::placement::Placement;
    use wmn_model::rng::rng_from_seed;

    fn population(fitnesses: &[f64]) -> Population {
        fitnesses
            .iter()
            .map(|&f| {
                let mut i = Individual::new(Placement::from_points(vec![Point::new(0.0, 0.0)]));
                i.set_evaluation(Evaluation {
                    measurement: NetworkMeasurement::default(),
                    fitness: f,
                });
                i
            })
            .collect()
    }

    fn selection_histogram(k: usize, pop: &Population, trials: usize) -> Vec<usize> {
        let mut rng = rng_from_seed(42);
        let mut counts = vec![0usize; pop.len()];
        for _ in 0..trials {
            counts[tournament(pop, k, &mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn tournament_prefers_fitter() {
        let pop = population(&[0.1, 0.9, 0.5]);
        let counts = selection_histogram(3, &pop, 3000);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[0]);
    }

    #[test]
    fn tournament_k1_is_uniform() {
        let pop = population(&[0.1, 0.9]);
        let counts = selection_histogram(1, &pop, 4000);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (0.85..1.18).contains(&ratio),
            "k=1 should be uniform, got {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_population_panics() {
        let pop = Population::new();
        let mut rng = rng_from_seed(0);
        let _ = tournament(&pop, 3, &mut rng);
    }
}

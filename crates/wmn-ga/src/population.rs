//! Populations of individuals.

use crate::chromosome::Individual;
use wmn_metrics::evaluator::Evaluation;

/// Reproduction metadata for one child of a generation: the indices (into
/// the parent generation) of the two individuals whose genetic material
/// produced it. Clones and elites record the copied parent in both slots.
///
/// The topology-backed evaluation path uses this to pick the child's
/// *lineage parent* — the recorded parent whose placement differs in the
/// fewest genes — and evaluate the child as that parent's live topology
/// plus the diff, instead of rebuilding from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lineage {
    /// First recorded parent (the prefix donor of single-point crossover).
    pub a: usize,
    /// Second recorded parent.
    pub b: usize,
}

impl Lineage {
    /// Lineage of a straight copy (clone child or elite).
    pub fn cloned(parent: usize) -> Self {
        Lineage {
            a: parent,
            b: parent,
        }
    }
}

/// A GA population.
///
/// Invariant maintained by the engine (not the type): all individuals are
/// evaluated between selection and reproduction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Population {
    individuals: Vec<Individual>,
}

impl Population {
    /// An empty population.
    pub fn new() -> Self {
        Population::default()
    }

    /// Wraps a vector of individuals.
    pub fn from_individuals(individuals: Vec<Individual>) -> Self {
        Population { individuals }
    }

    /// Number of individuals.
    pub fn len(&self) -> usize {
        self.individuals.len()
    }

    /// Returns `true` when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.individuals.is_empty()
    }

    /// The individuals.
    pub fn individuals(&self) -> &[Individual] {
        &self.individuals
    }

    /// Mutable access to the individuals.
    pub fn individuals_mut(&mut self) -> &mut [Individual] {
        &mut self.individuals
    }

    /// Adds an individual.
    pub fn push(&mut self, individual: Individual) {
        self.individuals.push(individual);
    }

    /// Index of the best (highest-fitness) individual, `None` when empty.
    /// Ties break toward the lowest index.
    pub fn best_index(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, ind) in self.individuals.iter().enumerate() {
            let f = ind.fitness();
            if best.is_none_or(|(_, bf)| f > bf) {
                best = Some((i, f));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The best individual, `None` when empty.
    pub fn best(&self) -> Option<&Individual> {
        self.best_index().map(|i| &self.individuals[i])
    }

    /// The best evaluation, `None` when empty or unevaluated.
    pub fn best_evaluation(&self) -> Option<Evaluation> {
        self.best().and_then(|b| b.evaluation())
    }

    /// Mean fitness over evaluated individuals (0 when none).
    pub fn mean_fitness(&self) -> f64 {
        let evaluated: Vec<f64> = self
            .individuals
            .iter()
            .filter(|i| i.is_evaluated())
            .map(|i| i.fitness())
            .collect();
        if evaluated.is_empty() {
            0.0
        } else {
            evaluated.iter().sum::<f64>() / evaluated.len() as f64
        }
    }

    /// Indices sorted by fitness descending (ties by index; unevaluated
    /// individuals sink to the end).
    pub fn ranked_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.individuals.len()).collect();
        idx.sort_by(|&a, &b| {
            self.individuals[b]
                .fitness()
                .partial_cmp(&self.individuals[a].fitness())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }

    /// Population diversity: mean over routers of the standard deviation of
    /// each coordinate across individuals. Zero for a converged population.
    pub fn positional_diversity(&self) -> f64 {
        if self.individuals.len() < 2 {
            return 0.0;
        }
        let n_routers = self.individuals[0].placement().len();
        if n_routers == 0 {
            return 0.0;
        }
        let m = self.individuals.len() as f64;
        let mut total = 0.0;
        for r in 0..n_routers {
            let (mut sx, mut sy, mut sx2, mut sy2) = (0.0, 0.0, 0.0, 0.0);
            for ind in &self.individuals {
                let p = ind.placement().as_slice()[r];
                sx += p.x;
                sy += p.y;
                sx2 += p.x * p.x;
                sy2 += p.y * p.y;
            }
            let var_x = (sx2 / m - (sx / m) * (sx / m)).max(0.0);
            let var_y = (sy2 / m - (sy / m) * (sy / m)).max(0.0);
            total += var_x.sqrt() + var_y.sqrt();
        }
        total / (2.0 * n_routers as f64)
    }
}

impl FromIterator<Individual> for Population {
    fn from_iter<I: IntoIterator<Item = Individual>>(iter: I) -> Self {
        Population {
            individuals: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_metrics::measurement::NetworkMeasurement;
    use wmn_model::geometry::Point;
    use wmn_model::placement::Placement;

    fn ind(points: Vec<Point>, fitness: Option<f64>) -> Individual {
        let mut i = Individual::new(Placement::from_points(points));
        if let Some(f) = fitness {
            i.set_evaluation(Evaluation {
                measurement: NetworkMeasurement::default(),
                fitness: f,
            });
        }
        i
    }

    #[test]
    fn best_and_ranking() {
        let pop = Population::from_individuals(vec![
            ind(vec![Point::new(0.0, 0.0)], Some(0.3)),
            ind(vec![Point::new(1.0, 1.0)], Some(0.9)),
            ind(vec![Point::new(2.0, 2.0)], Some(0.6)),
        ]);
        assert_eq!(pop.best_index(), Some(1));
        assert_eq!(pop.ranked_indices(), vec![1, 2, 0]);
        assert!((pop.mean_fitness() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn unevaluated_sink_to_the_end() {
        let pop = Population::from_individuals(vec![
            ind(vec![Point::new(0.0, 0.0)], None),
            ind(vec![Point::new(1.0, 1.0)], Some(0.1)),
        ]);
        assert_eq!(pop.ranked_indices(), vec![1, 0]);
        assert_eq!(pop.best_index(), Some(1));
    }

    #[test]
    fn empty_population() {
        let pop = Population::new();
        assert!(pop.is_empty());
        assert_eq!(pop.best_index(), None);
        assert_eq!(pop.mean_fitness(), 0.0);
        assert_eq!(pop.positional_diversity(), 0.0);
    }

    #[test]
    fn diversity_zero_when_converged() {
        let pop = Population::from_individuals(vec![
            ind(vec![Point::new(5.0, 5.0)], None),
            ind(vec![Point::new(5.0, 5.0)], None),
            ind(vec![Point::new(5.0, 5.0)], None),
        ]);
        assert_eq!(pop.positional_diversity(), 0.0);
    }

    #[test]
    fn diversity_positive_when_spread() {
        let pop = Population::from_individuals(vec![
            ind(vec![Point::new(0.0, 0.0)], None),
            ind(vec![Point::new(10.0, 10.0)], None),
        ]);
        assert!(pop.positional_diversity() > 0.0);
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let pop = Population::from_individuals(vec![
            ind(vec![Point::new(0.0, 0.0)], Some(0.5)),
            ind(vec![Point::new(1.0, 1.0)], Some(0.5)),
        ]);
        assert_eq!(pop.best_index(), Some(0));
    }
}

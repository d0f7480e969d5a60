//! Population initialization, including ad-hoc-seeded populations.
//!
//! The paper's second evaluation scenario uses the ad hoc methods "for
//! generating the initial population of GA", observing that their solution
//! diversity drives the GA's convergence (Figures 1–3). [`PopulationInit`]
//! reproduces that: every individual is one [`AdHocMethod::place`] call
//! of the chosen method, each on its own RNG stream, so the methods'
//! pattern breakers and jitter diversify the population.

use crate::chromosome::Individual;
use crate::population::Population;
use rand::RngCore;
use wmn_model::instance::ProblemInstance;
use wmn_model::rng::rng_from_seed;
use wmn_placement::registry::AdHocMethod;

/// Strategy for building the initial population: every individual from
/// one ad hoc method, the paper's scenario. The paper's pure random start
/// is `AdHoc(AdHocMethod::Random)`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PopulationInit {
    /// Every individual from one ad hoc method.
    AdHoc(AdHocMethod),
}

impl PopulationInit {
    /// Builds a population of `size` individuals.
    ///
    /// Each individual draws from a dedicated RNG stream derived from
    /// `rng`, so the population is deterministic per seed yet internally
    /// diverse.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn build(
        &self,
        instance: &ProblemInstance,
        size: usize,
        rng: &mut dyn RngCore,
    ) -> Population {
        assert!(size > 0, "population size must be positive");
        let mut population = Population::new();
        for i in 0..size {
            let mut stream = rng_from_seed(rng.next_u64() ^ (i as u64).wrapping_mul(0x9E37));
            let placement = match self {
                PopulationInit::AdHoc(method) => method.place(instance, &mut stream),
            };
            population.push(Individual::new(placement));
        }
        population
    }

    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            PopulationInit::AdHoc(m) => m.name().to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_model::instance::InstanceSpec;

    fn instance() -> ProblemInstance {
        InstanceSpec::paper_normal().unwrap().generate(3).unwrap()
    }

    #[test]
    fn builds_requested_size_with_valid_individuals() {
        let inst = instance();
        for init in [
            PopulationInit::AdHoc(AdHocMethod::HotSpot),
            PopulationInit::AdHoc(AdHocMethod::Random),
        ] {
            let pop = init.build(&inst, 16, &mut rng_from_seed(1));
            assert_eq!(pop.len(), 16);
            for ind in pop.individuals() {
                assert!(inst.validate_placement(ind.placement()).is_ok());
            }
        }
    }

    #[test]
    fn individuals_are_diverse() {
        let inst = instance();
        let pop =
            PopulationInit::AdHoc(AdHocMethod::HotSpot).build(&inst, 12, &mut rng_from_seed(2));
        assert!(
            pop.positional_diversity() > 0.0,
            "ad hoc population must not collapse to one point"
        );
        // No two individuals identical.
        for i in 0..pop.len() {
            for j in (i + 1)..pop.len() {
                assert_ne!(
                    pop.individuals()[i].placement(),
                    pop.individuals()[j].placement()
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = instance();
        let init = PopulationInit::AdHoc(AdHocMethod::Corners);
        let a = init.build(&inst, 8, &mut rng_from_seed(5));
        let b = init.build(&inst, 8, &mut rng_from_seed(5));
        assert_eq!(a, b);
    }

    #[test]
    fn names() {
        assert_eq!(PopulationInit::AdHoc(AdHocMethod::Diag).name(), "Diag");
        assert_eq!(PopulationInit::AdHoc(AdHocMethod::Random).name(), "Random");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let inst = instance();
        let init = PopulationInit::AdHoc(AdHocMethod::Random);
        let _ = init.build(&inst, 0, &mut rng_from_seed(0));
    }
}

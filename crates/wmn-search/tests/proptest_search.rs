//! Property-based tests for the search crate: apply/undo integrity and
//! search invariants on arbitrary instances.

use proptest::prelude::*;
use wmn_metrics::Evaluator;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::Area;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig};

fn arbitrary_instance() -> impl Strategy<Value = ProblemInstance> {
    (
        40.0..200.0f64,
        2usize..32,
        1usize..64,
        0usize..3,
        any::<u64>(),
    )
        .prop_map(|(side, routers, clients, which, seed)| {
            let area = Area::square(side).unwrap();
            let dist = match which {
                0 => ClientDistribution::Uniform,
                1 => ClientDistribution::paper_normal(&area).unwrap(),
                _ => ClientDistribution::paper_exponential(&area).unwrap(),
            };
            InstanceSpec::new(area, routers, clients, dist, RadioProfile::paper_default())
                .unwrap()
                .generate(seed)
                .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn moves_apply_and_undo_cleanly(instance in arbitrary_instance(), seed in any::<u64>()) {
        let evaluator = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(seed);
        let placement = instance.random_placement(&mut rng);
        let mut topo = evaluator.topology(&placement).unwrap();
        let movements: Vec<Box<dyn Movement>> = vec![
            Box::new(RandomMovement::new(&instance)),
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        ];
        for movement in &movements {
            let snapshot = (topo.giant_size(), topo.covered_count(), topo.placement());
            for _ in 0..8 {
                let action = movement.propose(&topo, &mut rng);
                let undo = action.apply(&mut topo);
                undo.undo(&mut topo);
            }
            prop_assert_eq!(
                (topo.giant_size(), topo.covered_count(), topo.placement()),
                snapshot,
                "{} left the topology dirty", movement.name()
            );
        }
    }

    #[test]
    fn applied_moves_keep_topology_consistent(
        instance in arbitrary_instance(),
        seed in any::<u64>(),
    ) {
        let evaluator = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(seed);
        let placement = instance.random_placement(&mut rng);
        let mut topo = evaluator.topology(&placement).unwrap();
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        for _ in 0..6 {
            let action = movement.propose(&topo, &mut rng);
            let _ = action.apply(&mut topo);
        }
        // Incremental state equals a full rebuild.
        topo.assert_consistent();
        // And the resulting placement is still a valid solution.
        prop_assert!(instance.validate_placement(&topo.placement()).is_ok());
    }

    #[test]
    fn search_outcome_invariants(instance in arbitrary_instance(), seed in any::<u64>()) {
        let evaluator = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(seed);
        let initial = instance.random_placement(&mut rng);
        let search = NeighborhoodSearch::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            SearchConfig {
                budget: ExplorationBudget::sampled(4),
                phases: 5,
            },
        );
        let mut topo = evaluator.topology(&initial).unwrap();
        let outcome = search.run(&mut topo, &mut rng, &mut wmn_obs::NoopRecorder);
        // Best never below initial; best placement validates; trace fitness
        // is monotone under strict-improvement acceptance.
        prop_assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
        prop_assert!(instance.validate_placement(&outcome.best_placement).is_ok());
        let mut prev = f64::NEG_INFINITY;
        for p in outcome.trace.phases() {
            prop_assert!(p.fitness() >= prev - 1e-9);
            prev = p.fitness();
        }
        // Re-evaluating the reported best placement reproduces its score.
        let re = evaluator.evaluate(&outcome.best_placement).unwrap();
        prop_assert_eq!(re, outcome.best_evaluation);
    }
}

//! Pins the incremental delta-evaluation engine to its reference oracle:
//! neighborhood search, run over the default dynamic-connectivity topology
//! ([`ConnectivityMode::Dynamic`]), must produce **bit-identical** outcomes
//! (best placement, evaluations, full traces) to the full-rebuild
//! reference ([`ConnectivityMode::FullRebuild`]) — for both movements, on
//! two instances.

use wmn_graph::topology::ConnectivityMode;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::instance::InstanceSpec;
use wmn_model::rng::rng_from_seed;
use wmn_obs::NoopRecorder;
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig};

#[test]
fn neighborhood_search_is_bit_identical_to_rebuild_only() {
    for k in 0..2u64 {
        let instance = InstanceSpec::paper_normal()
            .unwrap()
            .generate(11 + k)
            .unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let initial = instance.random_placement(&mut rng_from_seed(1));
        let movements: [Box<dyn Movement>; 2] = [
            Box::new(RandomMovement::new(&instance)),
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        ];
        for movement in movements {
            let search = NeighborhoodSearch::new(
                &evaluator,
                movement,
                SearchConfig {
                    budget: ExplorationBudget::sampled(8),
                    phases: 10,
                },
            );
            // Same RNG stream, dynamic connectivity vs rebuild-only.
            let seed = 42 + k;
            let mut inc = evaluator.topology(&initial).unwrap();
            assert_eq!(inc.connectivity_mode(), ConnectivityMode::Dynamic);
            let mut reb = evaluator.topology(&initial).unwrap();
            reb.set_connectivity_mode(ConnectivityMode::FullRebuild);
            let out_inc = search.run(&mut inc, &mut rng_from_seed(seed), &mut NoopRecorder);
            let out_reb = search.run(&mut reb, &mut rng_from_seed(seed), &mut NoopRecorder);
            assert_eq!(out_inc, out_reb, "incremental vs rebuild-only diverged");
            // The final *current* states must agree too.
            assert_eq!(inc.placement(), reb.placement());
            assert_eq!(inc.giant_size(), reb.giant_size());
            assert_eq!(inc.covered_count(), reb.covered_count());
            assert_eq!(inc.components(), reb.components());
            inc.assert_consistent();
        }
    }
}

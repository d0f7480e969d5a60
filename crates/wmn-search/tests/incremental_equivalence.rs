//! Pins the incremental delta-evaluation engine to its reference oracle:
//! every search driver, run over the default dynamic-connectivity topology
//! ([`ConnectivityMode::Dynamic`]), must produce **bit-identical** outcomes
//! (best placement, evaluations, full traces) to the full-rebuild
//! reference ([`ConnectivityMode::FullRebuild`]) — for both movements and
//! under both coverage rules.

use rand::RngCore;
use wmn_graph::topology::{ConnectivityMode, CoverageRule, TopologyConfig, WmnTopology};
use wmn_metrics::evaluator::Evaluator;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::placement::Placement;
use wmn_model::rng::rng_from_seed;
use wmn_search::annealing::{AnnealingConfig, SimulatedAnnealing};
use wmn_search::hill_climb::{HillClimb, HillClimbConfig};
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig, StoppingCondition};
use wmn_search::tabu::{TabuConfig, TabuSearch};

fn paper_instance(seed: u64) -> ProblemInstance {
    InstanceSpec::paper_normal()
        .unwrap()
        .generate(seed)
        .unwrap()
}

fn configs() -> [TopologyConfig; 2] {
    [
        TopologyConfig::paper_default(),
        TopologyConfig {
            coverage_rule: CoverageRule::AnyRouter,
            ..TopologyConfig::paper_default()
        },
    ]
}

fn movements(instance: &ProblemInstance) -> Vec<Box<dyn Movement>> {
    vec![
        Box::new(RandomMovement::new(instance)),
        Box::new(SwapMovement::new(instance, SwapConfig::default())),
    ]
}

/// Drives one driver twice — dynamic connectivity vs rebuild-only — with
/// identical RNG streams and asserts the outcomes are equal.
fn assert_driver_equivalence<O: PartialEq + std::fmt::Debug>(
    evaluator: &Evaluator<'_>,
    initial: &Placement,
    seed: u64,
    mut run: impl FnMut(&mut WmnTopology, &mut dyn RngCore) -> O,
) {
    let mut inc = evaluator.topology(initial).unwrap();
    assert_eq!(inc.connectivity_mode(), ConnectivityMode::Dynamic);
    let mut reb = evaluator.topology(initial).unwrap();
    reb.set_connectivity_mode(ConnectivityMode::FullRebuild);
    let out_inc = run(&mut inc, &mut rng_from_seed(seed));
    let out_reb = run(&mut reb, &mut rng_from_seed(seed));
    assert_eq!(out_inc, out_reb, "incremental vs rebuild-only diverged");
    // The final *current* states must agree too.
    assert_eq!(inc.placement(), reb.placement());
    assert_eq!(inc.giant_size(), reb.giant_size());
    assert_eq!(inc.covered_count(), reb.covered_count());
    assert_eq!(inc.components(), reb.components());
    inc.assert_consistent();
}

#[test]
fn neighborhood_search_is_bit_identical_to_rebuild_only() {
    for (k, config) in configs().into_iter().enumerate() {
        let instance = paper_instance(11 + k as u64);
        let evaluator = Evaluator::new(
            &instance,
            config,
            wmn_metrics::fitness::FitnessFunction::paper_default(),
        );
        let initial = instance.random_placement(&mut rng_from_seed(1));
        for movement in movements(&instance) {
            let search = NeighborhoodSearch::new(
                &evaluator,
                movement,
                SearchConfig {
                    budget: ExplorationBudget::sampled(8),
                    stopping: StoppingCondition::fixed_phases(10),
                },
            );
            assert_driver_equivalence(&evaluator, &initial, 42 + k as u64, |topo, rng| {
                search.run_with_topology(topo, rng)
            });
        }
    }
}

#[test]
fn hill_climb_is_bit_identical_to_rebuild_only() {
    for (k, config) in configs().into_iter().enumerate() {
        let instance = paper_instance(13 + k as u64);
        let evaluator = Evaluator::new(
            &instance,
            config,
            wmn_metrics::fitness::FitnessFunction::paper_default(),
        );
        let initial = instance.random_placement(&mut rng_from_seed(2));
        for movement in movements(&instance) {
            let climber = HillClimb::new(
                &evaluator,
                movement,
                HillClimbConfig {
                    max_phases: 12,
                    samples_per_phase: 16,
                    patience: 4,
                },
            );
            assert_driver_equivalence(&evaluator, &initial, 7 + k as u64, |topo, rng| {
                climber.run_with_topology(topo, rng)
            });
        }
    }
}

#[test]
fn annealing_is_bit_identical_to_rebuild_only() {
    for (k, config) in configs().into_iter().enumerate() {
        let instance = paper_instance(17 + k as u64);
        let evaluator = Evaluator::new(
            &instance,
            config,
            wmn_metrics::fitness::FitnessFunction::paper_default(),
        );
        let initial = instance.random_placement(&mut rng_from_seed(3));
        for movement in movements(&instance) {
            let sa = SimulatedAnnealing::new(
                &evaluator,
                movement,
                AnnealingConfig {
                    phases: 10,
                    moves_per_phase: 12,
                    ..AnnealingConfig::default()
                },
            );
            assert_driver_equivalence(&evaluator, &initial, 23 + k as u64, |topo, rng| {
                sa.run_with_topology(topo, rng)
            });
        }
    }
}

#[test]
fn tabu_is_bit_identical_to_rebuild_only() {
    for (k, config) in configs().into_iter().enumerate() {
        let instance = paper_instance(19 + k as u64);
        let evaluator = Evaluator::new(
            &instance,
            config,
            wmn_metrics::fitness::FitnessFunction::paper_default(),
        );
        let initial = instance.random_placement(&mut rng_from_seed(4));
        for movement in movements(&instance) {
            let tabu = TabuSearch::new(
                &evaluator,
                movement,
                TabuConfig {
                    phases: 10,
                    candidates_per_phase: 12,
                    ..TabuConfig::default()
                },
            );
            assert_driver_equivalence(&evaluator, &initial, 31 + k as u64, |topo, rng| {
                tabu.run_with_topology(topo, rng)
            });
        }
    }
}

#[test]
fn run_and_run_with_topology_agree() {
    // The convenience `run` entry point must equal an explicit topology.
    let instance = paper_instance(29);
    let evaluator = Evaluator::paper_default(&instance);
    let initial = instance.random_placement(&mut rng_from_seed(5));
    let movement = SwapMovement::new(&instance, SwapConfig::default());
    let search = NeighborhoodSearch::new(
        &evaluator,
        Box::new(movement),
        SearchConfig {
            budget: ExplorationBudget::sampled(8),
            stopping: StoppingCondition::fixed_phases(8),
        },
    );
    let via_run = search.run(&initial, &mut rng_from_seed(6)).unwrap();
    let mut topo = evaluator.topology(&initial).unwrap();
    let via_topo = search.run_with_topology(&mut topo, &mut rng_from_seed(6));
    assert_eq!(via_run, via_topo);
}

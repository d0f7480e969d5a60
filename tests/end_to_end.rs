//! End-to-end pipelines across the whole workspace: generate → place →
//! search → evolve, all through the public facade.

use wmn::prelude::*;

fn quick_instance(seed: u64) -> ProblemInstance {
    InstanceSpec::new(
        Area::square(96.0).expect("valid area"),
        24,
        72,
        ClientDistribution::paper_normal(&Area::square(96.0).expect("valid area"))
            .expect("valid distribution"),
        RadioProfile::new(2.0, 8.0).expect("valid radio"),
    )
    .expect("valid spec")
    .generate(seed)
    .expect("generation succeeds")
}

#[test]
fn full_pipeline_adhoc_search_ga() {
    let instance = quick_instance(1);
    let evaluator = Evaluator::paper_default(&instance);
    let mut rng = rng_from_seed(2);

    // Ad hoc placement.
    let placement = AdHocMethod::HotSpot.place(&instance, &mut rng);
    let adhoc = evaluator.evaluate(&placement).expect("valid placement");

    // Neighborhood search refinement.
    let search = NeighborhoodSearch::new(
        &evaluator,
        Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        SearchConfig {
            budget: ExplorationBudget::sampled(8),
            phases: 10,
        },
    );
    let mut topo = evaluator.topology(&placement).expect("valid placement");
    let searched = search.run(&mut topo, &mut rng, &mut NoopRecorder);
    assert!(searched.best_evaluation.fitness >= adhoc.fitness);

    // GA refinement from the same method as initializer.
    let config = GaConfig::builder()
        .population_size(10)
        .generations(10)
        .build()
        .expect("valid config");
    let engine = GaEngine::new(&evaluator, config);
    let evolved = engine
        .run(
            &PopulationInit::AdHoc(AdHocMethod::HotSpot),
            &mut rng,
            &mut NoopRecorder,
        )
        .expect("ga runs");
    assert!(instance.validate_placement(&evolved.best_placement).is_ok());
    assert_eq!(evolved.trace.len(), 11);
}

#[test]
fn whole_pipeline_is_deterministic_per_seed() {
    let run = || {
        let instance = quick_instance(3);
        let evaluator = Evaluator::paper_default(&instance);
        let mut rng = rng_from_seed(4);
        let placement = AdHocMethod::Cross.place(&instance, &mut rng);
        let search = NeighborhoodSearch::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            SearchConfig {
                budget: ExplorationBudget::sampled(6),
                phases: 8,
            },
        );
        let mut topo = evaluator.topology(&placement).expect("valid placement");
        let outcome = search.run(&mut topo, &mut rng, &mut NoopRecorder);
        (
            placement,
            outcome.best_placement,
            outcome.best_evaluation.fitness,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn every_method_feeds_every_search_algorithm() {
    let instance = quick_instance(7);
    let evaluator = Evaluator::paper_default(&instance);
    let config = SearchConfig {
        budget: ExplorationBudget::sampled(4),
        phases: 4,
    };
    for method in AdHocMethod::all() {
        let mut rng = rng_from_seed(method.name().len() as u64);
        let placement = method.place(&instance, &mut rng);
        let movements: [Box<dyn Movement>; 2] = [
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            Box::new(RandomMovement::new(&instance)),
        ];
        for movement in movements {
            let name = movement.name();
            let search = NeighborhoodSearch::new(&evaluator, movement, config);
            let mut topo = evaluator.topology(&placement).expect("valid placement");
            let outcome = search.run(&mut topo, &mut rng, &mut NoopRecorder);
            assert!(
                outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness,
                "{method} / {name}"
            );
            assert_eq!(outcome.trace.len(), 4);
            assert!(instance.validate_placement(&outcome.best_placement).is_ok());
        }
    }
}

#[test]
fn topology_counts_match_evaluator_measurements() {
    let instance = quick_instance(9);
    let evaluator = Evaluator::paper_default(&instance);
    let mut rng = rng_from_seed(10);
    for _ in 0..5 {
        let placement = instance.random_placement(&mut rng);
        let topo = evaluator.topology(&placement).expect("builds");
        let eval = evaluator.evaluate(&placement).expect("evaluates");
        assert_eq!(eval.giant_size(), topo.giant_size());
        assert_eq!(eval.covered_clients(), topo.covered_count());
        assert_eq!(eval.measurement.link_count, topo.adjacency().edge_count());
        assert_eq!(eval.measurement.component_count, topo.components().count());
    }
}

//! The paper's qualitative claims, verified at reduced scale on every run
//! of the test suite. (The full-scale numbers are generated by
//! `cargo run --release -p wmn-experiments --bin run_all`.)

use wmn::prelude::*;

/// Paper claim (Figure 4): the swap movement grows the giant component
/// faster and further than the purely random movement.
#[test]
fn swap_movement_beats_random_movement() {
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(2009)
        .expect("generates");
    let evaluator = Evaluator::paper_default(&instance);
    let initial = instance.random_placement(&mut rng_from_seed(1));
    let topology = || evaluator.topology(&initial).expect("valid placement");
    let config = SearchConfig {
        budget: ExplorationBudget::sampled(8),
        phases: 25,
    };

    let swap = NeighborhoodSearch::new(
        &evaluator,
        Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        config,
    )
    .run(&mut topology(), &mut rng_from_seed(2), &mut NoopRecorder);

    let random = NeighborhoodSearch::new(
        &evaluator,
        Box::new(RandomMovement::new(&instance)),
        config,
    )
    .run(&mut topology(), &mut rng_from_seed(2), &mut NoopRecorder);

    let swap_giant = swap.best_evaluation.giant_size();
    let random_giant = random.best_evaluation.giant_size();
    assert!(
        swap_giant > random_giant,
        "swap ({swap_giant}) must beat random ({random_giant}) within 25 phases"
    );
    // "achieves fast improvements": already well above the start midway.
    let start = swap.initial_evaluation.giant_size();
    let midway = swap
        .trace
        .phases()
        .get(12)
        .map(|p| p.giant_size())
        .unwrap_or(0);
    assert!(
        midway >= start + 5,
        "swap should improve fast: {start} -> {midway} by phase 13"
    );
}

/// Paper claim (Tables 1-3): the GA improves every ad hoc method far above
/// its standalone quality.
#[test]
fn ga_improves_every_adhoc_method() {
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(2009)
        .expect("generates");
    let evaluator = Evaluator::paper_default(&instance);
    let config = GaConfig::builder()
        .population_size(12)
        .generations(25)
        .build()
        .expect("valid config");

    for method in AdHocMethod::all() {
        let mut rng = rng_from_seed(3);
        let standalone = evaluator
            .evaluate(&method.place(&instance, &mut rng))
            .expect("valid placement");
        let engine = GaEngine::new(&evaluator, config.clone());
        let outcome = engine
            .run(
                &PopulationInit::AdHoc(method),
                &mut rng_from_seed(4),
                &mut NoopRecorder,
            )
            .expect("ga runs");
        assert!(
            outcome.best_evaluation.giant_size() > standalone.giant_size(),
            "{method}: GA giant {} must exceed standalone {}",
            outcome.best_evaluation.giant_size(),
            standalone.giant_size()
        );
    }
}

/// Paper claim (Figures 1-3 and §5.2.1): HotSpot is the strongest GA
/// initializer — here checked against the pure-random initialization on
/// the Normal instance at reduced scale.
#[test]
fn hotspot_init_beats_uniform_random_init() {
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(2009)
        .expect("generates");
    let evaluator = Evaluator::paper_default(&instance);
    let config = GaConfig::builder()
        .population_size(16)
        .generations(40)
        .build()
        .expect("valid config");

    let hotspot = GaEngine::new(&evaluator, config.clone())
        .run(
            &PopulationInit::AdHoc(AdHocMethod::HotSpot),
            &mut rng_from_seed(5),
            &mut NoopRecorder,
        )
        .expect("ga runs");
    let uniform = GaEngine::new(&evaluator, config)
        .run(
            &PopulationInit::AdHoc(AdHocMethod::Random),
            &mut rng_from_seed(5),
            &mut NoopRecorder,
        )
        .expect("ga runs");

    assert!(
        hotspot.best_evaluation.fitness > uniform.best_evaluation.fitness,
        "HotSpot init (giant {}, cov {}) must beat uniform random (giant {}, cov {})",
        hotspot.best_evaluation.giant_size(),
        hotspot.best_evaluation.covered_clients(),
        uniform.best_evaluation.giant_size(),
        uniform.best_evaluation.covered_clients()
    );
}

/// Paper setup (§2): standalone ad hoc placements on the paper instance sit
/// far below full connectivity — the gap the search methods exist to close.
#[test]
fn standalone_placements_are_subcritical() {
    for (name, spec) in [
        ("normal", InstanceSpec::paper_normal().expect("valid")),
        (
            "exponential",
            InstanceSpec::paper_exponential().expect("valid"),
        ),
        ("weibull", InstanceSpec::paper_weibull().expect("valid")),
    ] {
        let instance = spec.generate(2009).expect("generates");
        let evaluator = Evaluator::paper_default(&instance);
        for method in AdHocMethod::all() {
            let placement = method.place(&instance, &mut rng_from_seed(6));
            let eval = evaluator.evaluate(&placement).expect("valid placement");
            assert!(
                eval.giant_size() <= 32,
                "{name}/{method}: standalone giant {} should stay below half the routers",
                eval.giant_size()
            );
        }
    }
}

/// Paper claim (§5, initial population diversity): ad-hoc-seeded
/// populations are diverse, not clones of one layout.
#[test]
fn adhoc_populations_are_diverse() {
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(2009)
        .expect("generates");
    for method in AdHocMethod::all() {
        let pop = PopulationInit::AdHoc(method).build(&instance, 10, &mut rng_from_seed(7));
        assert!(
            pop.positional_diversity() > 0.5,
            "{method}: population diversity {} too low",
            pop.positional_diversity()
        );
    }
}

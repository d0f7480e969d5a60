//! Full-run equivalence suite for the topology-backed GA: complete GA runs
//! under [`ConnectivityMode::Dynamic`] must be **bit-identical** to the
//! full-rebuild reference ([`ConnectivityMode::FullRebuild`]) — traces,
//! best placements, and final
//! populations — at every thread count, for ad-hoc and random
//! initializations. Both modes share the engine's slot pool, so every run
//! is also checked against an independent reference: each final
//! individual's evaluation must equal a fresh build of its placement
//! (`Evaluator::evaluate`).

use wmn_ga::engine::{GaConfig, GaEngine, GaOutcome};
use wmn_ga::init::PopulationInit;
use wmn_graph::topology::ConnectivityMode;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::instance::ProblemInstance;
use wmn_model::rng::rng_from_seed;
use wmn_obs::NoopRecorder;
use wmn_placement::registry::AdHocMethod;

fn instance(seed: u64) -> ProblemInstance {
    wmn_model::instance::InstanceSpec::paper_normal()
        .unwrap()
        .generate(seed)
        .unwrap()
}

fn run(
    instance: &ProblemInstance,
    init: &PopulationInit,
    mode: ConnectivityMode,
    threads: usize,
    seed: u64,
) -> GaOutcome {
    let evaluator = Evaluator::paper_default(instance);
    let config = GaConfig::builder()
        .population_size(14)
        .generations(12)
        .threads(threads)
        .eval_mode(mode)
        .build()
        .unwrap();
    let engine = GaEngine::new(&evaluator, config);
    let outcome = engine
        .run(init, &mut rng_from_seed(seed), &mut NoopRecorder)
        .unwrap();
    for (i, ind) in outcome.final_population.individuals().iter().enumerate() {
        let fresh = evaluator.evaluate(ind.placement()).unwrap();
        assert_eq!(
            ind.evaluation(),
            Some(fresh),
            "{mode} @{threads} threads: individual {i} differs from a fresh build"
        );
    }
    outcome
}

fn assert_outcomes_identical(a: &GaOutcome, b: &GaOutcome, context: &str) {
    assert_eq!(a.trace, b.trace, "{context}: trace diverged");
    assert_eq!(
        a.best_placement, b.best_placement,
        "{context}: best placement diverged"
    );
    assert_eq!(
        a.best_evaluation, b.best_evaluation,
        "{context}: best evaluation diverged"
    );
    assert_eq!(
        a.final_population, b.final_population,
        "{context}: final population diverged"
    );
}

#[test]
fn incremental_equals_rebuild_across_thread_counts() {
    let inst = instance(2009);
    for init in [
        PopulationInit::AdHoc(AdHocMethod::HotSpot),
        PopulationInit::AdHoc(AdHocMethod::Random),
    ] {
        let baseline = run(&inst, &init, ConnectivityMode::FullRebuild, 1, 42);
        for threads in [1usize, 2, 8] {
            let incremental = run(&inst, &init, ConnectivityMode::Dynamic, threads, 42);
            assert_outcomes_identical(
                &baseline,
                &incremental,
                &format!("{} incremental @{threads} threads", init.name()),
            );
            let rebuild = run(&inst, &init, ConnectivityMode::FullRebuild, threads, 42);
            assert_outcomes_identical(
                &baseline,
                &rebuild,
                &format!("{} rebuild @{threads} threads", init.name()),
            );
        }
    }
}

#[test]
fn equivalence_holds_across_seeds_and_methods() {
    // A broader (but shallower) sweep: several (method, seed) cells, serial
    // incremental vs serial rebuild.
    for (i, method) in [AdHocMethod::Corners, AdHocMethod::Diag, AdHocMethod::Near]
        .into_iter()
        .enumerate()
    {
        let inst = instance(100 + i as u64);
        let init = PopulationInit::AdHoc(method);
        let a = run(&inst, &init, ConnectivityMode::Dynamic, 1, 7 + i as u64);
        let b = run(&inst, &init, ConnectivityMode::FullRebuild, 1, 7 + i as u64);
        assert_outcomes_identical(&a, &b, method.name());
    }
}

#[test]
fn default_mode_is_incremental_and_matches_explicit() {
    let inst = instance(5);
    let init = PopulationInit::AdHoc(AdHocMethod::Cross);
    assert_eq!(
        GaConfig::paper_default().connectivity,
        ConnectivityMode::Dynamic
    );
    let default_cfg = run(&inst, &init, GaConfig::paper_default().connectivity, 2, 11);
    let explicit = run(&inst, &init, ConnectivityMode::Dynamic, 2, 11);
    assert_outcomes_identical(&default_cfg, &explicit, "default mode");
}

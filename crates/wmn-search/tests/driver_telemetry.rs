//! Run telemetry of every search driver: a fixed-seed run into a
//! `TelemetryRecorder` must report move counters that agree with the
//! driver's outcome, attribute them under `search > <driver> > {propose,
//! apply, evaluate}`, and put exactly the topology's engine work-counter
//! delta under `apply`.

use std::collections::BTreeMap;
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::rng::rng_from_seed;
use wmn_obs::{EngineStats, PhaseNode, TelemetryRecorder};
use wmn_search::annealing::{AnnealingConfig, SimulatedAnnealing};
use wmn_search::hill_climb::{HillClimb, HillClimbConfig};
use wmn_search::movement::{RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig, StoppingCondition};
use wmn_search::tabu::{TabuConfig, TabuSearch};

fn instance() -> ProblemInstance {
    InstanceSpec::paper_normal().unwrap().generate(31).unwrap()
}

/// Runs `run` over a fresh topology of a fixed random start and returns
/// its result, the recorder it fed, and the topology's engine-stat delta
/// over the run.
fn record<O>(
    evaluator: &Evaluator<'_>,
    run: impl FnOnce(&mut WmnTopology, &mut TelemetryRecorder) -> O,
) -> (O, TelemetryRecorder, EngineStats) {
    let initial = evaluator.instance().random_placement(&mut rng_from_seed(5));
    let mut topo = evaluator.topology(&initial).unwrap();
    let before = topo.engine_stats();
    let mut recorder = TelemetryRecorder::new();
    let outcome = run(&mut topo, &mut recorder);
    (outcome, recorder, topo.engine_stats().delta_since(&before))
}

/// Every counter in the subtree rooted at `node`, summed by name.
fn subtree_counters(node: &PhaseNode) -> BTreeMap<String, u64> {
    fn walk(node: &PhaseNode, out: &mut BTreeMap<String, u64>) {
        for (name, &v) in &node.counters {
            *out.entry((*name).to_owned()).or_insert(0) += v;
        }
        for child in node.children.values() {
            walk(child, out);
        }
    }
    let mut out = BTreeMap::new();
    walk(node, &mut out);
    out
}

/// Checks the flat move counters against the outcome, the attribution
/// paths, and that `apply` holds the engine delta (and that the flat
/// engine counters equal it too).
fn assert_driver_telemetry(
    driver: &str,
    recorder: &TelemetryRecorder,
    delta: &EngineStats,
    phases: usize,
    proposed: usize,
    accepted: usize,
) {
    let counters = recorder.counters();
    let flat = |name: &str| counters.get(name).copied();
    assert_eq!(
        flat(&format!("search.{driver}.phases")),
        Some(phases as u64)
    );
    assert_eq!(
        flat(&format!("search.{driver}.moves_proposed")),
        Some(proposed as u64)
    );
    assert_eq!(
        flat(&format!("search.{driver}.moves_accepted")),
        Some(accepted as u64)
    );

    let root = recorder.attribution();
    let node = |stage: &str| {
        root.get(&["search", driver, stage])
            .unwrap_or_else(|| panic!("search > {driver} > {stage} is missing"))
    };
    assert_eq!(
        subtree_counters(node("propose")),
        BTreeMap::from([(format!("search.{driver}.moves_proposed"), proposed as u64)])
    );
    assert_eq!(
        node("evaluate")
            .counters
            .get(format!("search.{driver}.moves_accepted").as_str()),
        Some(&(accepted as u64))
    );

    let mut expected = BTreeMap::new();
    delta.for_each(|name, v| {
        if v != 0 {
            expected.insert(name.to_owned(), v);
        }
    });
    assert!(!expected.is_empty(), "{driver}: the run did no engine work");
    assert_eq!(subtree_counters(node("apply")), expected, "{driver}: apply");
    for (name, v) in &expected {
        assert_eq!(
            counters.get(name.as_str()),
            Some(v),
            "{driver}: flat {name}"
        );
    }
    // Nothing but the three stages sits under the driver.
    let stages: Vec<&str> = root
        .get(&["search", driver])
        .unwrap()
        .children
        .keys()
        .copied()
        .collect();
    assert_eq!(stages, ["apply", "evaluate", "propose"]);
}

#[test]
fn neighborhood_search_telemetry_matches_its_outcome() {
    let instance = instance();
    let evaluator = Evaluator::paper_default(&instance);
    let search = NeighborhoodSearch::new(
        &evaluator,
        Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        SearchConfig {
            budget: ExplorationBudget::sampled(6),
            stopping: StoppingCondition::fixed_phases(9),
        },
    );
    let (outcome, recorder, delta) = record(&evaluator, |topo, rec| {
        search.run(topo, &mut rng_from_seed(11), rec)
    });
    assert!(outcome.trace.accepted_count() > 0);
    assert_driver_telemetry(
        "ns",
        &recorder,
        &delta,
        outcome.trace.len(),
        outcome.trace.len() * 6,
        outcome.trace.accepted_count(),
    );
}

#[test]
fn hill_climb_telemetry_matches_its_outcome() {
    let instance = instance();
    let evaluator = Evaluator::paper_default(&instance);
    let climber = HillClimb::new(
        &evaluator,
        Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        HillClimbConfig {
            max_phases: 10,
            samples_per_phase: 8,
            patience: 3,
        },
    );
    let (outcome, recorder, delta) = record(&evaluator, |topo, rec| {
        climber.run(topo, &mut rng_from_seed(12), rec)
    });
    assert!(outcome.trace.accepted_count() > 0);
    // First improvement stops a phase early, so the proposal count is
    // whatever the driver reports; it is bounded by the full budget.
    let proposed = recorder.counters()["search.hc.moves_proposed"] as usize;
    assert!(proposed <= outcome.trace.len() * 8);
    assert!(proposed >= outcome.trace.len());
    assert_driver_telemetry(
        "hc",
        &recorder,
        &delta,
        outcome.trace.len(),
        proposed,
        outcome.trace.accepted_count(),
    );
}

#[test]
fn annealing_telemetry_matches_its_outcome() {
    let instance = instance();
    let evaluator = Evaluator::paper_default(&instance);
    let sa = SimulatedAnnealing::new(
        &evaluator,
        Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        AnnealingConfig {
            phases: 7,
            moves_per_phase: 5,
            ..AnnealingConfig::default()
        },
    );
    let (outcome, recorder, delta) = record(&evaluator, |topo, rec| {
        sa.run(topo, &mut rng_from_seed(13), rec)
    });
    assert!(outcome.accepted_moves > 0);
    assert_driver_telemetry(
        "sa",
        &recorder,
        &delta,
        outcome.trace.len(),
        7 * 5,
        outcome.accepted_moves,
    );
}

#[test]
fn tabu_telemetry_matches_its_outcome() {
    let instance = instance();
    let evaluator = Evaluator::paper_default(&instance);
    let tabu = TabuSearch::new(
        &evaluator,
        Box::new(RandomMovement::new(&instance)),
        TabuConfig {
            tenure: 10,
            candidates_per_phase: 12,
            phases: 16,
        },
    );
    let (outcome, recorder, delta) = record(&evaluator, |topo, rec| {
        tabu.run(topo, &mut rng_from_seed(7), rec)
    });
    assert!(outcome.trace.accepted_count() > 0);
    // The seed is chosen so the aspiration criterion fires.
    assert!(outcome.aspirations > 0);
    assert_driver_telemetry(
        "tabu",
        &recorder,
        &delta,
        outcome.trace.len(),
        16 * 12,
        outcome.trace.accepted_count(),
    );
    assert_eq!(
        recorder.counters().get("search.tabu.aspirations"),
        Some(&(outcome.aspirations as u64))
    );
    assert_eq!(
        recorder
            .attribution()
            .get(&["search", "tabu", "evaluate"])
            .unwrap()
            .counters
            .get("search.tabu.aspirations"),
        Some(&(outcome.aspirations as u64))
    );
}

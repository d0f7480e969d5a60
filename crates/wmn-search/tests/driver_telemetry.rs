//! Run telemetry of the neighborhood search driver: a fixed-seed run into
//! a `TelemetryRecorder` must report move counters that agree with the
//! run's outcome, attribute them under `search > ns > {propose, apply,
//! evaluate}`, and put exactly the topology's engine work-counter delta
//! under `apply`.

use std::collections::BTreeMap;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::instance::InstanceSpec;
use wmn_model::rng::rng_from_seed;
use wmn_obs::{PhaseNode, TelemetryRecorder};
use wmn_search::movement::{SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig};

/// Every counter in the subtree rooted at `node`, summed by name.
fn subtree_counters(node: &PhaseNode) -> BTreeMap<String, u64> {
    fn walk(node: &PhaseNode, out: &mut BTreeMap<String, u64>) {
        for (name, &v) in &node.counters {
            *out.entry(name.clone()).or_insert(0) += v;
        }
        for child in node.children.values() {
            walk(child, out);
        }
    }
    let mut out = BTreeMap::new();
    walk(node, &mut out);
    out
}

#[test]
fn neighborhood_search_telemetry_matches_its_outcome() {
    let instance = InstanceSpec::paper_normal().unwrap().generate(31).unwrap();
    let evaluator = Evaluator::paper_default(&instance);
    let search = NeighborhoodSearch::new(
        &evaluator,
        Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        SearchConfig {
            budget: ExplorationBudget::sampled(6),
            phases: 9,
        },
    );
    let initial = instance.random_placement(&mut rng_from_seed(5));
    let mut topo = evaluator.topology(&initial).unwrap();
    let before = topo.engine_stats();
    let mut recorder = TelemetryRecorder::new();
    let outcome = search.run(&mut topo, &mut rng_from_seed(11), &mut recorder);
    let delta = topo.engine_stats().delta_since(&before);
    let phases = outcome.trace.len() as u64;
    let accepted = outcome.trace.accepted_count() as u64;
    assert!(accepted > 0);

    // The flat move counters agree with the outcome.
    let counters = recorder.counters();
    assert_eq!(counters.get("search.ns.phases"), Some(&phases));
    assert_eq!(
        counters.get("search.ns.moves_proposed"),
        Some(&(phases * 6))
    );
    assert_eq!(counters.get("search.ns.moves_accepted"), Some(&accepted));

    let root = recorder.attribution();
    let node = |stage: &str| {
        root.get(&["search", "ns", stage])
            .unwrap_or_else(|| panic!("search > ns > {stage} is missing"))
    };
    assert_eq!(
        subtree_counters(node("propose")),
        BTreeMap::from([("search.ns.moves_proposed".to_owned(), phases * 6)])
    );
    assert_eq!(
        node("evaluate").counters.get("search.ns.moves_accepted"),
        Some(&accepted)
    );

    // `apply` holds exactly the engine delta, and so do the flat totals.
    let mut expected = BTreeMap::new();
    delta.for_each(|name, v| {
        if v != 0 {
            expected.insert(name.to_owned(), v);
        }
    });
    assert!(!expected.is_empty(), "the run did no engine work");
    assert_eq!(subtree_counters(node("apply")), expected, "apply");
    for (name, v) in &expected {
        assert_eq!(counters.get(name.as_str()), Some(v), "flat {name}");
    }
    // Nothing but the three stages sits under the driver.
    let stages: Vec<&str> = root
        .get(&["search", "ns"])
        .unwrap()
        .children
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(stages, ["apply", "evaluate", "propose"]);
}

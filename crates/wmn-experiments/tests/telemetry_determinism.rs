//! Determinism guarantees of the telemetry layer.
//!
//! 1. The rendered `telemetry.json` document of a fixed-seed figure run
//!    is **byte-identical for every thread count** — both
//!    experiment-runtime workers and GA evaluation threads — under each
//!    connectivity mode (`Dynamic`, `FullRebuild`): both GA pipelines
//!    evaluate child `i` in slot `i`.
//! 2. The modes produce the **same figures** but **different work
//!    profiles** — the property `scripts/check_counters.sh` turns into a
//!    perf-regression gate.
//! 3. `run_all` runs each scenario's seven GAs once: its telemetry counts
//!    every GA run one time, though Table N and Figure N both report it.

use std::path::Path;
use wmn_experiments::analyze::{flame, parse_doc};
use wmn_experiments::artifact::{self, PAPER};
use wmn_experiments::cli::CliOptions;
use wmn_experiments::figures::run_ns_figure_recorded;
use wmn_experiments::scenario::{ExperimentConfig, Scenario};
use wmn_experiments::tables::run_ga_grid;
use wmn_experiments::telemetry::render_telemetry_json;
use wmn_graph::topology::ConnectivityMode;
use wmn_obs::TelemetryRecorder;

/// A sub-`--quick` config: full code coverage, test-suite-friendly cost.
fn small() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.population = 8;
    config.generations = 10;
    config.ns_phases = 8;
    config
}

fn ga_telemetry(config: &ExperimentConfig) -> String {
    let mut recorder = TelemetryRecorder::new();
    run_ga_grid(Scenario::Weibull, config, Some(&mut recorder)).unwrap();
    render_telemetry_json("fig3", config, &recorder)
}

#[test]
fn ga_figure_telemetry_is_byte_identical_across_thread_counts() {
    let mut config = small();
    config.runner_threads = 1;
    config.threads = 1;
    let reference = ga_telemetry(&config);
    assert!(reference.contains("\"ga.generations\""));
    for (runner, ga) in [(2, 2), (8, 4)] {
        config.runner_threads = runner;
        config.threads = ga;
        assert_eq!(
            ga_telemetry(&config),
            reference,
            "runner_threads = {runner}, ga threads = {ga}"
        );
    }
}

#[test]
fn ns_figure_telemetry_is_byte_identical_across_thread_counts() {
    let mut config = small();
    let telemetry = |config: &ExperimentConfig| {
        let mut recorder = TelemetryRecorder::new();
        run_ns_figure_recorded(config, Some(&mut recorder)).unwrap();
        render_telemetry_json("fig4", config, &recorder)
    };
    config.runner_threads = 1;
    let reference = telemetry(&config);
    assert!(reference.contains("\"search.ns.phases\""));
    for runner in [2, 8] {
        config.runner_threads = runner;
        assert_eq!(telemetry(&config), reference, "runner_threads = {runner}");
    }
}

/// The phase-attribution tree — and the flamegraph rendered from it — is
/// as thread-invariant as the flat counters: the GA run's work lands in
/// the `ga > evaluate > apply_moves > {edge_repair, component_repair,
/// coverage}` scopes with identical weights at every thread count, so
/// `wmn-report flame` output is a reproducible artifact.
#[test]
fn phase_attribution_and_flame_are_thread_invariant() {
    let mut config = small();
    config.runner_threads = 1;
    config.threads = 1;
    let reference = ga_telemetry(&config);
    let doc = parse_doc(Path::new("fig3.json"), &reference).unwrap();
    let apply = &doc.attribution.children["ga"].children["evaluate"].children["apply_moves"];
    for bucket in ["edge_repair", "component_repair", "coverage"] {
        assert!(
            apply.children[bucket].total() > 0,
            "{bucket} should hold attributed work"
        );
    }
    // Attribution re-partitions the flat counters; it never invents work.
    assert!(doc.attribution.total() <= doc.counter_total());
    let reference_flame = flame(&doc);
    for (runner, ga) in [(2, 2), (8, 4)] {
        config.runner_threads = runner;
        config.threads = ga;
        let rendered = ga_telemetry(&config);
        let doc = parse_doc(Path::new("fig3.json"), &rendered).unwrap();
        assert_eq!(
            flame(&doc),
            reference_flame,
            "runner_threads = {runner}, ga threads = {ga}"
        );
    }
}

#[test]
fn connectivity_oracles_are_reproducible_and_distinguishable() {
    let mut config = small();
    let mut grids = Vec::new();
    let mut documents = Vec::new();
    for mode in [ConnectivityMode::Dynamic, ConnectivityMode::FullRebuild] {
        config.connectivity = mode;
        let mut reference = None;
        for (runner, ga) in [(1, 1), (2, 2), (8, 4)] {
            config.runner_threads = runner;
            config.threads = ga;
            let mut recorder = TelemetryRecorder::new();
            let grid = run_ga_grid(Scenario::Weibull, &config, Some(&mut recorder)).unwrap();
            let doc = render_telemetry_json("fig3", &config, &recorder);
            match &reference {
                None => reference = Some((grid, doc)),
                Some((first_grid, first_doc)) => {
                    assert_eq!(&grid, first_grid, "{mode}: grid at ({runner}, {ga})");
                    assert_eq!(
                        &doc, first_doc,
                        "{mode}: telemetry at runner_threads = {runner}, ga threads = {ga}"
                    );
                }
            }
        }
        let (grid, doc) = reference.expect("three runs");
        grids.push(grid);
        documents.push(doc);
    }

    // Same results, different work: the grids agree across modes...
    assert_eq!(grids[0], grids[1]);
    // ...but each mode leaves a distinct counter fingerprint (this is
    // exactly what lets check_counters.sh catch a pessimized build).
    assert_ne!(documents[0], documents[1]);
    // The dynamic engine does component-local BFS work; the full-rebuild
    // oracle never does.
    assert!(documents[0].contains("\"connectivity.bfs_edge_visits\""));
    assert!(!documents[1].contains("\"connectivity.bfs_edge_visits\""));
    assert!(documents[1].contains("\"topology.full_rebuilds\""));
}

/// The counter names attributed to `ga > evaluate` itself and to each
/// scope under `ga > evaluate > apply_moves`.
fn evaluate_scopes(config: &ExperimentConfig) -> (Vec<String>, Vec<(String, Vec<String>)>) {
    let rendered = ga_telemetry(config);
    let doc = parse_doc(Path::new("fig3.json"), &rendered).unwrap();
    let evaluate = &doc.attribution.children["ga"].children["evaluate"];
    let own = evaluate.counters.keys().map(|k| k.to_string()).collect();
    let apply = &evaluate.children["apply_moves"];
    assert!(apply.counters.is_empty(), "apply_moves holds only sections");
    let sections = apply
        .children
        .iter()
        .map(|(name, node)| {
            assert!(node.children.is_empty(), "{name} is a leaf");
            (
                name.to_string(),
                node.counters.keys().map(|k| k.to_string()).collect(),
            )
        })
        .collect();
    (own, sections)
}

/// Every child repairs its diff through the topology's one repair
/// routine — one-gene children included (`fig3 --quick` has some) — so
/// the only engine work left on `evaluate` itself is the state copies.
#[test]
fn evaluate_holds_only_state_copies() {
    let mut config = ExperimentConfig::quick();
    config.runner_threads = 1;
    config.threads = 1;
    let (own, sections) = evaluate_scopes(&config);
    assert_eq!(own, ["topology.clone_from_reuses"]);
    let names: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["component_repair", "coverage", "edge_repair"]);
    for (name, counters) in &sections {
        for counter in counters {
            assert_eq!(
                wmn_obs::repair_section(counter, false),
                Some(name.as_str()),
                "{counter} under {name}"
            );
        }
    }
}

/// Under the full-rebuild reference every child's repair is a rebuild,
/// so `apply_moves` holds the one `full_rebuild` section.
#[test]
fn full_rebuild_reference_attributes_every_repair_to_full_rebuild() {
    let mut config = small();
    config.connectivity = ConnectivityMode::FullRebuild;
    let (own, sections) = evaluate_scopes(&config);
    assert_eq!(own, ["topology.clone_from_reuses"]);
    assert_eq!(sections.len(), 1);
    let (name, counters) = &sections[0];
    assert_eq!(name, "full_rebuild");
    assert!(counters.contains(&"topology.full_rebuilds".to_owned()));
}

/// Table N and Figure N are two views of one GA grid, so `run_all`'s
/// telemetry counts each of its 3 scenarios × 7 methods GA runs once.
#[test]
fn run_all_telemetry_counts_each_ga_once() {
    let scratch =
        std::env::temp_dir().join(format!("wmn-run-all-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut config = small();
    config.population = 6;
    config.generations = 4;
    config.ns_phases = 4;
    config.ns_budget = 3;
    let telemetry = scratch.join("telemetry");
    let opts = CliOptions {
        config,
        out_dir: scratch.join("out"),
        telemetry: Some(telemetry.clone()),
        resume: false,
    };
    artifact::run("run_all", &PAPER, &opts).unwrap();
    let text = std::fs::read_to_string(telemetry.join("telemetry.json")).unwrap();
    let doc = parse_doc(&telemetry, &text).unwrap();
    let runs = (3 * 7) as u64;
    assert_eq!(
        doc.counters.get("ga.generations"),
        Some(&(runs * config.generations as u64))
    );
    assert_eq!(
        doc.counters.get("search.ns.phases"),
        Some(&(2 * config.ns_phases as u64))
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

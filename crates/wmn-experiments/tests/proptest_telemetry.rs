//! Round trips of the counter documents: a `TelemetryRecorder` filled with
//! counters, histogram values and nested phases is rendered as
//! `telemetry.json` (`telemetry::render_telemetry_json`) and read back
//! (`analyze::parse_doc`); the document is then rendered as a counter
//! baseline (`analyze::render_baseline`) and read back again. Nothing the
//! recorder held may be lost or changed on the way.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use wmn_experiments::analyze::{parse_doc, render_baseline, DocKind};
use wmn_experiments::scenario::ExperimentConfig;
use wmn_experiments::telemetry::render_telemetry_json;
use wmn_graph::topology::ConnectivityMode;
use wmn_obs::{Recorder, TelemetryRecorder};

/// Phase names of the program's attribution tree.
const PHASES: &[&str] = &[
    "ga",
    "init",
    "evaluate",
    "apply_moves",
    "edge_repair",
    "component_repair",
    "coverage",
    "full_rebuild",
    "search",
    "ns",
    "propose",
    "apply",
];

/// Counter names of the program's taxonomy.
const COUNTERS: &[&str] = &[
    "topology.swaps",
    "topology.single_moves",
    "topology.batch_repairs",
    "topology.disk_cache_hits",
    "connectivity.repairs",
    "connectivity.bfs_edge_visits",
    "search.ns.phases",
    "ga.generations",
    "ga.children_evaluated",
];

/// Histogram names of the program.
const HISTOGRAMS: &[&str] = &[
    "ga.generation.diff_routers",
    "ga.generation.connectivity_repairs",
];

/// The deepest phase path a run opens is far below this.
const MAX_DEPTH: usize = 8;

/// Workload labels for the baseline, plain and needing escapes.
const WORKLOADS: &[&str] = &[
    "fig3 --quick --threads 1 --ga-threads 1 (fixed seeds 2009/42)",
    "",
    "tab\there \"quoted\" back\\slash \u{1} é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn telemetry_and_baseline_documents_round_trip(
        ops in proptest::collection::vec((0u8..4, 0usize..16, 0u64..(1 << 40)), 0..64),
        full in any::<bool>(),
        workload in 0..WORKLOADS.len(),
    ) {
        // Fill the recorder, and keep the reader's view of what it holds:
        // the flat counters, the histogram names and every attributed
        // counter under its `phase.<path>.<counter>` key.
        let mut rec = TelemetryRecorder::new();
        let mut path: Vec<&str> = Vec::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms = std::collections::BTreeSet::new();
        let mut attributed: BTreeMap<String, u64> = BTreeMap::new();
        for (kind, pick, value) in ops {
            match kind {
                0 if path.len() < MAX_DEPTH => {
                    let phase = PHASES[pick % PHASES.len()];
                    rec.phase_enter(phase);
                    path.push(phase);
                }
                1 if !path.is_empty() => {
                    rec.phase_exit();
                    path.pop();
                }
                2 => {
                    let name = HISTOGRAMS[pick % HISTOGRAMS.len()];
                    rec.value(name, value);
                    histograms.insert(name);
                }
                _ => {
                    let name = COUNTERS[pick % COUNTERS.len()];
                    rec.counter(name, value);
                    *counters.entry(name.to_owned()).or_default() += value;
                    if !path.is_empty() {
                        let key = format!("phase.{}.{name}", path.join("."));
                        *attributed.entry(key).or_default() += value;
                    }
                }
            }
        }
        let config = ExperimentConfig {
            connectivity: if full {
                ConnectivityMode::FullRebuild
            } else {
                ConnectivityMode::Dynamic
            },
            ..ExperimentConfig::quick()
        };
        let connectivity = config.connectivity.to_string();

        let text = render_telemetry_json("fig3", &config, &rec);
        let doc = parse_doc(Path::new("telemetry.json"), &text).expect("telemetry parses");
        prop_assert_eq!(doc.kind, DocKind::Telemetry);
        prop_assert_eq!(doc.bin.as_deref(), Some("fig3"));
        prop_assert_eq!(doc.connectivity.as_deref(), Some(connectivity.as_str()));
        prop_assert_eq!(&doc.counters, &counters);
        prop_assert_eq!(doc.histograms, histograms.len());
        prop_assert_eq!(doc.attribution.flatten(), attributed);

        let baseline = render_baseline(&doc, WORKLOADS[workload]);
        let back = parse_doc(Path::new("baseline.json"), &baseline).expect("baseline parses");
        prop_assert_eq!(back.kind, DocKind::Baseline);
        prop_assert_eq!(&back.counters, &counters);
        prop_assert_eq!(back.attribution.flatten(), attributed);
        prop_assert_eq!(back.connectivity.as_deref(), Some(connectivity.as_str()));
        prop_assert_eq!(render_baseline(&back, WORKLOADS[workload]), baseline);
    }
}

//! Round trips of the counter document: a `TelemetryRecorder` filled with
//! counters, histogram values and nested phases is rendered as
//! `telemetry.json` (`telemetry::render_telemetry_json`) and read back
//! (`analyze::parse_doc`). A counter baseline is a copy of that document,
//! so this one round trip covers both. Nothing the recorder held may be
//! lost or changed on the way: the parsed counters and attribution tree
//! equal the recorder's.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use wmn_experiments::analyze::parse_doc;
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

/// Binary names, plain and needing escapes.
const BINS: &[&str] = &["fig3", "", "tab\there \"quoted\" back\\slash \u{1} é"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn telemetry_and_baseline_documents_round_trip(
        ops in proptest::collection::vec((0u8..4, 0usize..16, 0u64..(1 << 40)), 0..64),
        full in any::<bool>(),
        bin in 0..BINS.len(),
    ) {
        let mut rec = TelemetryRecorder::new();
        for (kind, pick, value) in ops {
            match kind {
                0 if rec.phase_depth() < MAX_DEPTH => rec.phase_enter(PHASES[pick % PHASES.len()]),
                1 if rec.phase_depth() > 0 => rec.phase_exit(),
                2 => rec.value(HISTOGRAMS[pick % HISTOGRAMS.len()], value),
                _ => rec.counter(COUNTERS[pick % COUNTERS.len()], value),
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

        let text = render_telemetry_json(BINS[bin], &config, &rec);
        let doc = parse_doc(Path::new("telemetry.json"), &text).expect("telemetry parses");
        prop_assert_eq!(doc.bin.as_deref(), Some(BINS[bin]));
        prop_assert_eq!(doc.connectivity.as_deref(), Some(connectivity.as_str()));
        let counters: BTreeMap<String, u64> =
            rec.counters().iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        prop_assert_eq!(&doc.counters, &counters);
        prop_assert_eq!(doc.histograms, rec.histograms().len());
        prop_assert_eq!(&doc.attribution, rec.attribution());
    }
}

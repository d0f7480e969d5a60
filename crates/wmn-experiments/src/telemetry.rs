//! Structured run telemetry artifacts (`--telemetry <dir>`).
//!
//! With `--telemetry <dir>`, the artifact driver ([`crate::artifact::run`])
//! collects the engine-wide work-counter profile of the binary's run into
//! one [`TelemetryRecorder`] and writes two files:
//!
//! * `telemetry.json` — the one counter document of the workspace, a
//!   `wmn-telemetry/v2` object with the members `schema`, `bin`, `config`,
//!   `counters`, `histograms` and `attribution`, written from the
//!   recorder's accessors by [`render_telemetry_json`]. It is
//!   pretty-printed, two spaces per level and one member per line (the
//!   shape `jq .` prints), except `config`, which stays on one line: it
//!   is the block [`crate::checkpoint::fingerprint`] hashes. Only
//!   deterministic data goes here — counters, histograms of work counts,
//!   and the phase-attribution tree (counter deltas rolled up under
//!   nested phase scopes; see `wmn_obs::PhaseNode`) — so the file is
//!   **byte-identical for every thread count** (the per-job recorders
//!   merge in job-index order; see `wmn_runtime::pool::Runtime::run`).
//!   The `config` block deliberately excludes the thread knobs for the
//!   same reason: two runs that differ only in parallelism produce the
//!   same document.
//! * `spans.jsonl` — one
//!   `{"span":name,"path":...,"parent":...,"depth":D,"index":I,"nanos":N}`
//!   line per recorded wall-clock span, sorted by `(path, index)` with
//!   the phase-derived parentage made explicit. Spans are
//!   nondeterministic by nature and are kept out of the byte-compared
//!   JSON.
//!
//! A counter baseline is a copy of a gate run's `telemetry.json`:
//! `scripts/check_counters.sh` runs two fixed-seed workloads and compares
//! each run's document with its committed copy (`COUNTERS_baseline.json`,
//! `COUNTERS_baseline_fig4.json`) through `wmn-report diff`, turning the
//! counter profile into a deterministic perf-regression gate;
//! `wmn-report flame` renders the attribution tree as a counter-weighted
//! flamegraph. The v1 → v2 schema bump was a breaking reader change (new
//! `attribution` member, restructured spans), so readers reject
//! mismatched schema strings loudly instead of guessing.

use crate::error::{create_dir, write_file, ExperimentError};
use crate::json;
use crate::scenario::ExperimentConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wmn_obs::{PhaseNode, TelemetryRecorder};

/// Identifier (and version) of the `telemetry.json` document shape.
pub const SCHEMA: &str = "wmn-telemetry/v2";

/// Renders the determinism-relevant configuration block on one line.
/// Thread counts (`threads`, `runner_threads`) are excluded on purpose:
/// counters are thread-invariant, and including them would break the
/// byte-identity of otherwise-equal runs.
pub(crate) fn config_json(config: &ExperimentConfig) -> String {
    format!(
        "{{\"instance_seed\":{},\"run_seed\":{},\"population\":{},\"generations\":{},\
         \"ns_phases\":{},\"ns_budget\":{},\"sample_every\":{},\"scale_routers\":{},\
         \"scale_clients\":{},\"scale_area\":{},\"connectivity\":\"{}\"}}",
        config.instance_seed,
        config.run_seed,
        config.population,
        config.generations,
        config.ns_phases,
        config.ns_budget,
        config.sample_every,
        config.scale.routers,
        config.scale.clients,
        config.scale.area,
        json::escape(&config.connectivity.to_string())
    )
}

/// Writes `members` as a JSON object one member per line, indented two
/// spaces per level for an object at nesting `depth`; `{}` when empty.
/// `value` writes each member's value at its own depth.
fn object<K: AsRef<str>, V>(
    out: &mut String,
    depth: usize,
    members: impl IntoIterator<Item = (K, V)>,
    value: impl Fn(&mut String, usize, V),
) {
    let pad = "  ".repeat(depth + 1);
    let mut empty = true;
    out.push('{');
    for (key, v) in members {
        let comma = if empty { "" } else { "," };
        let _ = write!(out, "{comma}\n{pad}\"{}\": ", json::escape(key.as_ref()));
        value(out, depth + 1, v);
        empty = false;
    }
    if !empty {
        let _ = write!(out, "\n{}", "  ".repeat(depth));
    }
    out.push('}');
}

fn number(out: &mut String, _depth: usize, n: &u64) {
    let _ = write!(out, "{n}");
}

/// Writes one attribution node at nesting `depth`: its own counters,
/// then its children.
fn phase_node(out: &mut String, depth: usize, node: &PhaseNode) {
    let pad = "  ".repeat(depth + 1);
    let _ = write!(out, "{{\n{pad}\"counters\": ");
    object(out, depth + 1, &node.counters, number);
    let _ = write!(out, ",\n{pad}\"children\": ");
    object(out, depth + 1, &node.children, phase_node);
    let _ = write!(out, "\n{}}}", "  ".repeat(depth));
}

/// Renders the full `telemetry.json` document, trailing newline included.
pub fn render_telemetry_json(
    bin: &str,
    config: &ExperimentConfig,
    recorder: &TelemetryRecorder,
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{}\",\n  \"bin\": \"{}\",\n  \"config\": {},\n  \"counters\": ",
        json::escape(SCHEMA),
        json::escape(bin),
        config_json(config)
    );
    object(&mut out, 1, recorder.counters(), number);
    out.push_str(",\n  \"histograms\": ");
    object(&mut out, 1, recorder.histograms(), |out, depth, h| {
        let fields = [
            ("count", &h.count),
            ("sum", &h.sum),
            ("min", &h.min),
            ("max", &h.max),
        ];
        object(out, depth, fields, number);
    });
    out.push_str(",\n  \"attribution\": ");
    object(&mut out, 1, &recorder.attribution().children, phase_node);
    out.push_str("\n}\n");
    out
}

/// Writes `telemetry.json` and `spans.jsonl` into `dir` (created if
/// missing) and returns the JSON path.
///
/// # Errors
///
/// Returns [`ExperimentError::Io`] naming the offending path.
pub fn write_telemetry(
    dir: &Path,
    bin: &str,
    config: &ExperimentConfig,
    recorder: &TelemetryRecorder,
) -> Result<PathBuf, ExperimentError> {
    create_dir(dir)?;
    let json_path = dir.join("telemetry.json");
    write_file(&json_path, &render_telemetry_json(bin, config, recorder))?;
    write_file(&dir.join("spans.jsonl"), &recorder.render_spans_jsonl())?;
    Ok(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_obs::Recorder;

    fn sample_recorder() -> TelemetryRecorder {
        let mut rec = TelemetryRecorder::new();
        rec.counter("ga.generations", 40);
        {
            let mut ga = wmn_obs::phase(&mut rec, "ga");
            ga.counter("topology.single_moves", 7);
        }
        rec.value("ga.generation.diff_routers", 12);
        rec.span("run", 1234);
        rec
    }

    #[test]
    fn document_shape_is_stable() {
        let config = ExperimentConfig::quick();
        let doc = render_telemetry_json("fig3", &config, &sample_recorder());
        // Two spaces per level, one member per line, `config` on one line.
        let expected = format!(
            "{{\n  \"schema\": \"wmn-telemetry/v2\",\n  \"bin\": \"fig3\",\n  \
             \"config\": {},\n  \"counters\": {{\n    \"ga.generations\": 40,\n    \
             \"topology.single_moves\": 7\n  }},\n  \"histograms\": {{\n    \
             \"ga.generation.diff_routers\": {{\n      \"count\": 1,\n      \"sum\": 12,\n      \
             \"min\": 12,\n      \"max\": 12\n    }}\n  }},\n  \"attribution\": {{\n    \
             \"ga\": {{\n      \"counters\": {{\n        \"topology.single_moves\": 7\n      \
             }},\n      \"children\": {{}}\n    }}\n  }}\n}}\n",
            config_json(&config)
        );
        assert_eq!(doc, expected);
        assert!(doc.contains("\"config\": {\"instance_seed\":2009,"));
        assert!(doc.contains("\"connectivity\":\"dynamic\""));
        // Spans (wall-clock, nondeterministic) never leak into the JSON,
        // and the thread knobs are excluded from the config block.
        assert!(!doc.contains("nanos"));
        assert!(!doc.contains("threads"));
        // An empty recorder writes empty objects.
        let empty = render_telemetry_json("fig3", &config, &TelemetryRecorder::new());
        assert!(
            empty.ends_with("\"counters\": {},\n  \"histograms\": {},\n  \"attribution\": {}\n}\n")
        );
    }

    #[test]
    fn document_is_independent_of_thread_knobs() {
        let mut a = ExperimentConfig::quick();
        let mut b = a;
        a.runner_threads = 1;
        a.threads = 1;
        b.runner_threads = 8;
        b.threads = 4;
        let rec = sample_recorder();
        assert_eq!(
            render_telemetry_json("fig3", &a, &rec),
            render_telemetry_json("fig3", &b, &rec)
        );
    }

    #[test]
    fn write_emits_both_artifacts() {
        let dir = std::env::temp_dir().join("wmn-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = sample_recorder();
        let path = write_telemetry(&dir, "table1", &ExperimentConfig::quick(), &rec).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            doc,
            render_telemetry_json("table1", &ExperimentConfig::quick(), &rec)
        );
        assert!(doc.ends_with("}\n"));
        assert_eq!(doc.trim_end().len(), doc.len() - 1);
        let spans = std::fs::read_to_string(dir.join("spans.jsonl")).unwrap();
        assert_eq!(
            spans,
            "{\"span\":\"run\",\"path\":\"run\",\"parent\":\"\",\"depth\":0,\"index\":0,\"nanos\":1234}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

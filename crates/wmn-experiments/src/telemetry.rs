//! Structured run telemetry artifacts (`--telemetry <dir>`).
//!
//! Every experiment binary can collect the engine-wide work-counter
//! profile of its run into a [`TelemetryRecorder`] and write two files:
//!
//! * `telemetry.json` — one JSON object:
//!   `{"schema":"wmn-telemetry/v2","bin":...,"config":{...},"counters":{...},"histograms":{...},"attribution":{...}}`.
//!   Only deterministic data goes here — counters, histograms of work
//!   counts, and the phase-attribution tree (counter deltas rolled up
//!   under nested phase scopes; see `wmn_obs::PhaseNode`) — so the file
//!   is **byte-identical for every thread count** (the per-job recorders
//!   merge in job-index order; see
//!   `wmn_runtime::pool::Runtime::try_execute_isolated_recorded`). The
//!   `config` block deliberately excludes the thread knobs for the same
//!   reason: two runs that differ only in parallelism produce the same
//!   document.
//! * `spans.jsonl` — one
//!   `{"span":name,"path":...,"parent":...,"depth":D,"index":I,"nanos":N}`
//!   line per recorded wall-clock span, sorted by `(path, index)` with
//!   the phase-derived parentage made explicit. Spans are
//!   nondeterministic by nature and are kept out of the byte-compared
//!   JSON.
//!
//! `scripts/check_counters.sh` diffs `telemetry.json`'s counters against
//! the committed `COUNTERS_baseline.json` via `wmn-report diff`, turning
//! the counter profile of a fixed-seed workload into a deterministic
//! perf-regression gate; `wmn-report flame` renders the attribution tree
//! as a counter-weighted flamegraph. The v1 → v2 schema bump is a
//! breaking reader change (new `attribution` member, restructured
//! spans), so readers reject mismatched schema strings loudly instead of
//! guessing.

use crate::cli::CliOptions;
use crate::error::{create_dir, write_file, ExperimentError};
use crate::scenario::ExperimentConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wmn_obs::TelemetryRecorder;

/// Identifier (and version) of the `telemetry.json` document shape.
pub const SCHEMA: &str = "wmn-telemetry/v2";

/// Renders the determinism-relevant configuration block. Thread counts
/// (`threads`, `runner_threads`) are excluded on purpose: counters are
/// thread-invariant, and including them would break the byte-identity of
/// otherwise-equal runs.
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
        config.connectivity
    )
}

/// Renders the full `telemetry.json` document (no trailing newline).
pub fn render_telemetry_json(
    bin: &str,
    config: &ExperimentConfig,
    recorder: &TelemetryRecorder,
) -> String {
    // `render_json` yields `{"counters":{...},"histograms":{...}}`; splice
    // its body after the header fields.
    let body = recorder.render_json();
    let body = body
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("render_json emits one JSON object");
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"bin\":\"{bin}\",\"config\":{},{body}}}",
        config_json(config)
    )
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
    let mut doc = render_telemetry_json(bin, config, recorder);
    doc.push('\n');
    write_file(&json_path, &doc)?;
    write_file(&dir.join("spans.jsonl"), &recorder.render_spans_jsonl())?;
    Ok(json_path)
}

/// A recorder when `--telemetry` was given, else `None` — the binaries'
/// single opt-in point (a `None` keeps every run on the zero-overhead
/// [`wmn_obs::NoopRecorder`] path).
pub fn recorder_if_requested(opts: &CliOptions) -> Option<TelemetryRecorder> {
    opts.telemetry.as_ref().map(|_| TelemetryRecorder::new())
}

/// Records the wall-clock span `name` started at `started`, when
/// telemetry is enabled.
pub fn finish_span(recorder: &mut Option<TelemetryRecorder>, name: &'static str, started: Instant) {
    use wmn_obs::Recorder;
    if let Some(rec) = recorder.as_mut() {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        rec.span(name, nanos);
    }
}

/// The binaries' shared tail: writes the telemetry artifacts when
/// `--telemetry <dir>` was given, reporting the written path on stdout.
///
/// # Errors
///
/// Returns [`ExperimentError::Io`] naming the offending path.
pub fn maybe_write(
    opts: &CliOptions,
    bin: &str,
    recorder: &Option<TelemetryRecorder>,
) -> Result<(), ExperimentError> {
    if let (Some(dir), Some(rec)) = (&opts.telemetry, recorder) {
        let path = write_telemetry(dir, bin, &opts.config, rec)?;
        println!("wrote {} and {}/spans.jsonl", path.display(), dir.display());
    }
    Ok(())
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
        let doc = render_telemetry_json("fig3", &ExperimentConfig::quick(), &sample_recorder());
        assert!(doc.starts_with("{\"schema\":\"wmn-telemetry/v2\",\"bin\":\"fig3\","));
        assert!(doc.contains("\"config\":{\"instance_seed\":2009,"));
        assert!(doc.contains("\"connectivity\":\"dynamic\""));
        assert!(doc.contains("\"counters\":{\"ga.generations\":40,\"topology.single_moves\":7}"));
        assert!(doc.contains("\"histograms\":{\"ga.generation.diff_routers\":"));
        assert!(doc.contains(
            "\"attribution\":{\"ga\":{\"counters\":{\"topology.single_moves\":7},\"children\":{}}}"
        ));
        // Spans (wall-clock, nondeterministic) never leak into the JSON,
        // and the thread knobs are excluded from the config block.
        assert!(!doc.contains("nanos"));
        assert!(!doc.contains("threads"));
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

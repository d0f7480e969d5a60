//! Telemetry analysis behind the `wmn-report` binary.
//!
//! Reads back the one counter document, `telemetry.json` (see
//! [`crate::telemetry`]; a committed counter baseline is a copy of one),
//! and turns it into human-readable reports:
//!
//! * `flame` — renders the phase-attribution tree as a
//!   **counter-weighted flamegraph**: every line is a phase scope,
//!   weighted by the deterministic work counters recorded inside it
//!   rather than by wall-clock samples, so the rendered split (e.g. edge
//!   repair vs component repair vs coverage inside `apply_moves`) is
//!   byte-identical for every thread count and machine.
//! * `diff` — compares the flat counter profiles and the attribution
//!   trees of two documents and lists every drifted key in the
//!   `  <key>: baseline <b> -> run <r>` form that
//!   `scripts/check_counters.sh` gates on, so a counter that moves to
//!   another phase scope drifts even when its flat total does not. A
//!   relative `--threshold` tolerates bounded drift.
//! * `summarize` — a one-screen digest of a document's counters and
//!   phases.
//!
//! Inputs are validated strictly by their `schema` member: the reader
//! accepts `wmn-telemetry/v2` and rejects anything else — the retired
//! `wmn-telemetry/v1` documents and `wmn-counters-baseline/v1` baselines
//! among them — with an error naming both the found and the expected
//! schema, instead of guessing at missing members. The attribution tree
//! reads back as the recorder's own [`PhaseNode`].

use crate::error::ExperimentError;
use crate::json::{self, JsonValue};
use crate::telemetry::SCHEMA;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wmn_obs::PhaseNode;

/// A validated, loaded `telemetry.json` document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Where it was read from (a label in tests).
    pub path: PathBuf,
    /// The producing binary.
    pub bin: Option<String>,
    /// The connectivity mode of the run.
    pub connectivity: Option<String>,
    /// Flat counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Number of recorded histograms.
    pub histograms: usize,
    /// The phase-attribution tree (the root is anonymous; top-level
    /// phases are its children).
    pub attribution: PhaseNode,
}

impl Doc {
    /// Sum of all flat counter values.
    pub fn counter_total(&self) -> u64 {
        self.counters.values().sum()
    }
}

fn counters_from(
    value: &JsonValue,
    what: &str,
    label: &str,
) -> Result<BTreeMap<String, u64>, ExperimentError> {
    let JsonValue::Object(members) = value else {
        return Err(ExperimentError::report(format!(
            "{label}: {what} is not a JSON object"
        )));
    };
    let mut out = BTreeMap::new();
    for (key, v) in members {
        let n = v.as_u64().ok_or_else(|| {
            ExperimentError::report(format!(
                "{label}: {what} member {key:?} is not an integer in [0, 2^53)"
            ))
        })?;
        out.insert(key.clone(), n);
    }
    Ok(out)
}

/// Reads a phase-name → node object: a node's `children`, or the
/// document's `attribution` member (the root's children).
fn children_from(
    value: &JsonValue,
    label: &str,
) -> Result<BTreeMap<String, PhaseNode>, ExperimentError> {
    let JsonValue::Object(kids) = value else {
        return Err(ExperimentError::report(format!(
            "{label}: attribution children is not a JSON object"
        )));
    };
    kids.iter()
        .map(|(name, child)| Ok((name.clone(), attribution_from(child, label)?)))
        .collect()
}

fn attribution_from(value: &JsonValue, label: &str) -> Result<PhaseNode, ExperimentError> {
    let JsonValue::Object(members) = value else {
        return Err(ExperimentError::report(format!(
            "{label}: attribution node is not a JSON object"
        )));
    };
    let mut node = PhaseNode::default();
    for (key, v) in members {
        match key.as_str() {
            "counters" => node.counters = counters_from(v, "attribution counters", label)?,
            "children" => node.children = children_from(v, label)?,
            other => {
                return Err(ExperimentError::report(format!(
                    "{label}: unexpected attribution member {other:?}"
                )))
            }
        }
    }
    Ok(node)
}

/// Flattens an attribution tree to the `phase.<path>.<counter>` keys
/// that `diff` compares and reports.
fn flatten(root: &PhaseNode) -> BTreeMap<String, u64> {
    fn walk(node: &PhaseNode, prefix: &str, out: &mut BTreeMap<String, u64>) {
        for (name, delta) in &node.counters {
            *out.entry(format!("{prefix}.{name}")).or_insert(0) += delta;
        }
        for (name, child) in &node.children {
            walk(child, &format!("{prefix}.{name}"), out);
        }
    }
    let mut out = BTreeMap::new();
    walk(root, "phase", &mut out);
    out
}

/// Parses and validates one `wmn-telemetry/v2` document from its
/// rendered text.
///
/// # Errors
///
/// Rejects malformed JSON, other schemas (naming both found and
/// expected), and structurally invalid members.
pub fn parse_doc(label: &Path, contents: &str) -> Result<Doc, ExperimentError> {
    let display = label.display();
    let value =
        json::parse(contents).map_err(|e| ExperimentError::report(format!("{display}: {e}")))?;
    let schema = value
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| {
            ExperimentError::report(format!("{display}: missing string member \"schema\""))
        })?;
    match schema {
        SCHEMA => {}
        "wmn-telemetry/v1" => {
            return Err(ExperimentError::report(format!(
                "{display}: schema \"wmn-telemetry/v1\" is no longer readable — this tool \
                 expects \"{SCHEMA}\" (v2 added the phase-attribution tree and \
                 parented spans); regenerate the telemetry with a current build"
            )))
        }
        other => {
            return Err(ExperimentError::report(format!(
                "{display}: unsupported schema {other:?} (expected \"{SCHEMA}\")"
            )))
        }
    }
    let label_str = display.to_string();
    let counters = counters_from(
        value.get("counters").ok_or_else(|| {
            ExperimentError::report(format!("{display}: missing member \"counters\""))
        })?,
        "counters",
        &label_str,
    )?;
    let attribution = value.get("attribution").ok_or_else(|| {
        ExperimentError::report(format!(
            "{display}: missing member \"attribution\" (required by {SCHEMA})"
        ))
    })?;
    Ok(Doc {
        path: label.to_path_buf(),
        bin: value
            .get("bin")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        connectivity: value
            .get("config")
            .and_then(|c| c.get("connectivity"))
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        counters,
        histograms: match value.get("histograms") {
            Some(JsonValue::Object(h)) => h.len(),
            _ => 0,
        },
        attribution: PhaseNode {
            counters: BTreeMap::new(),
            children: children_from(attribution, &label_str)?,
        },
    })
}

/// Resolves `path` (a `telemetry.json` or a copy of one, such as a
/// baseline, or a telemetry directory containing `telemetry.json`) and
/// loads the document.
///
/// # Errors
///
/// I/O failures name the file; schema and shape violations are
/// [`ExperimentError::Report`]s.
pub fn load_doc(path: &Path) -> Result<Doc, ExperimentError> {
    let file = if path.is_dir() {
        path.join("telemetry.json")
    } else {
        path.to_path_buf()
    };
    let contents =
        std::fs::read_to_string(&file).map_err(|e| ExperimentError::read(file.clone(), e))?;
    parse_doc(&file, &contents)
}

/// `numerator / denominator` as a per-mille, floor-rounded — integer
/// math so the rendered percentages are bit-identical everywhere.
fn per_mille(numerator: u64, denominator: u64) -> u64 {
    if denominator == 0 {
        0
    } else {
        ((u128::from(numerator) * 1000) / u128::from(denominator)) as u64
    }
}

fn fmt_pct(numerator: u64, denominator: u64) -> String {
    let pm = per_mille(numerator, denominator);
    format!("{}.{}", pm / 10, pm % 10)
}

fn flame_node(out: &mut String, name: &str, node: &PhaseNode, depth: usize, total: u64) {
    let weight = node.total();
    let own: u64 = node.counters.values().sum();
    let indent = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{:>5}% {:>14}  {indent}{name}",
        fmt_pct(weight, total),
        weight
    );
    // Work recorded directly in a scope that also has children renders as
    // a `[self]` leaf, so sibling percentages always sum to the parent.
    if !node.children.is_empty() && own > 0 {
        let _ = writeln!(
            out,
            "{:>5}% {own:>14}  {indent}  [self]",
            fmt_pct(own, total)
        );
    }
    for (child_name, child) in sorted_children(node) {
        flame_node(out, child_name, child, depth + 1, total);
    }
}

/// Children ordered heaviest-first (ties broken by name) — the
/// flamegraph reading order.
fn sorted_children(node: &PhaseNode) -> Vec<(&str, &PhaseNode)> {
    let mut kids: Vec<(&str, &PhaseNode)> =
        node.children.iter().map(|(n, c)| (n.as_str(), c)).collect();
    kids.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(b.0)));
    kids
}

/// Renders the counter-weighted flamegraph of a document.
pub fn flame(doc: &Doc) -> String {
    let mut out = String::new();
    let bin = doc.bin.as_deref().unwrap_or("?");
    let connectivity = doc.connectivity.as_deref().unwrap_or("?");
    let _ = writeln!(
        out,
        "counter-weighted flamegraph: {bin} (connectivity={connectivity})"
    );
    let flat = doc.counter_total();
    let attributed = doc.attribution.total();
    let _ = writeln!(
        out,
        "attributed {attributed} of {flat} counter units ({}%)",
        fmt_pct(attributed, flat)
    );
    if attributed == 0 {
        out.push_str("no phase-attributed work recorded\n");
        return out;
    }
    out.push('\n');
    for (name, child) in sorted_children(&doc.attribution) {
        flame_node(&mut out, name, child, 0, attributed);
    }
    out
}

fn diff_section(
    out: &mut String,
    what: &str,
    baseline: &BTreeMap<String, u64>,
    run: &BTreeMap<String, u64>,
    threshold_pct: f64,
) -> usize {
    let mut keys: Vec<&String> = baseline.keys().chain(run.keys()).collect();
    keys.sort();
    keys.dedup();
    let compared = keys.len();
    let mut drift_lines = String::new();
    let mut drifted = 0usize;
    for key in keys {
        let b = baseline.get(key).copied().unwrap_or(0);
        let r = run.get(key).copied().unwrap_or(0);
        if b == r {
            continue;
        }
        let relative = (r.abs_diff(b) as f64) * 100.0 / (b.max(1) as f64);
        if relative <= threshold_pct {
            continue;
        }
        drifted += 1;
        let _ = writeln!(drift_lines, "  {key}: baseline {b} -> run {r}");
    }
    if drifted == 0 {
        let _ = writeln!(out, "{what}: {compared} keys compared, all match");
    } else {
        let _ = writeln!(out, "{what} drifted ({drifted} of {compared} keys):");
        out.push_str(&drift_lines);
    }
    drifted
}

/// The outcome of a `diff`: the rendered report and whether any key
/// drifted beyond the threshold.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The rendered report.
    pub report: String,
    /// `true` when at least one key drifted beyond the threshold.
    pub drifted: bool,
}

/// Compares two documents' flat counters and attribution trees, so a
/// counter that moved to another phase scope drifts too.
/// `threshold_pct` is the tolerated relative drift per key, in percent
/// (0 = exact).
pub fn diff(baseline: &Doc, run: &Doc, threshold_pct: f64) -> DiffOutcome {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline: {} ({} counters)",
        baseline.path.display(),
        baseline.counters.len()
    );
    let _ = writeln!(
        out,
        "run:      {} ({} counters)",
        run.path.display(),
        run.counters.len()
    );
    let mut drifted = diff_section(
        &mut out,
        "counters",
        &baseline.counters,
        &run.counters,
        threshold_pct,
    );
    drifted += diff_section(
        &mut out,
        "phase attribution",
        &flatten(&baseline.attribution),
        &flatten(&run.attribution),
        threshold_pct,
    );
    DiffOutcome {
        report: out,
        drifted: drifted > 0,
    }
}

/// Counts the lines of `spans.jsonl` next to a telemetry document, if
/// present (spans are wall-clock and stay out of deterministic output;
/// the count itself is structural).
fn span_count(doc_path: &Path) -> Option<usize> {
    let spans = doc_path.parent()?.join("spans.jsonl");
    let text = std::fs::read_to_string(spans).ok()?;
    Some(text.lines().count())
}

/// Renders a one-screen digest of a document.
pub fn summarize(doc: &Doc) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run summary: {} ({SCHEMA})",
        doc.bin.as_deref().unwrap_or("?")
    );
    let _ = writeln!(out, "source: {}", doc.path.display());
    if let Some(connectivity) = &doc.connectivity {
        let _ = writeln!(out, "connectivity: {connectivity}");
    }
    let total = doc.counter_total();
    let _ = writeln!(
        out,
        "counters: {} keys, {total} work units",
        doc.counters.len()
    );
    let mut top: Vec<(&String, &u64)> = doc.counters.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (key, value) in top.into_iter().take(5) {
        let _ = writeln!(out, "  {value:>14}  {key}");
    }
    let attributed = doc.attribution.total();
    let _ = writeln!(
        out,
        "phases: {}% of work units attributed ({attributed} of {total})",
        fmt_pct(attributed, total)
    );
    if attributed > 0 {
        for (name, child) in sorted_children(&doc.attribution) {
            let _ = writeln!(
                out,
                "  {:>5}% {:>14}  {name}",
                fmt_pct(child.total(), attributed),
                child.total()
            );
        }
    }
    let _ = writeln!(out, "histograms: {} recorded", doc.histograms);
    if let Some(n) = span_count(&doc.path) {
        let _ = writeln!(out, "spans: {n} recorded (wall-clock; see spans.jsonl)");
    }
    out
}

/// What a `wmn-report` invocation produced: text for stdout and the
/// process exit code (`diff` exits 1 on drift).
#[derive(Debug, Clone)]
pub struct Report {
    /// Text for stdout.
    pub stdout: String,
    /// Process exit code.
    pub exit_code: i32,
}

const USAGE: &str = "usage: wmn-report <command> ...\n\
  flame <dir|telemetry.json>                     counter-weighted flamegraph\n\
  diff <baseline|dir> <run|dir> [--threshold P]  per-counter/per-phase drift (exit 1 on drift)\n\
  summarize <dir|telemetry.json>                 one-screen run digest";

fn usage_err(detail: &str) -> ExperimentError {
    ExperimentError::report(format!("{detail}\n{USAGE}"))
}

/// Runs one `wmn-report` invocation (everything after the program
/// name). Pure except for reading the inputs.
///
/// # Errors
///
/// Usage errors, unreadable inputs, and schema violations. Counter
/// drift is not an error — it is `exit_code` 1 in the returned
/// [`Report`].
pub fn run(args: &[String]) -> Result<Report, ExperimentError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| usage_err("missing command"))?;
    match command.as_str() {
        "flame" => {
            let [path] = rest else {
                return Err(usage_err("flame takes exactly one input path"));
            };
            let doc = load_doc(Path::new(path))?;
            Ok(Report {
                stdout: flame(&doc),
                exit_code: 0,
            })
        }
        "summarize" => {
            let [path] = rest else {
                return Err(usage_err("summarize takes exactly one input path"));
            };
            let doc = load_doc(Path::new(path))?;
            Ok(Report {
                stdout: summarize(&doc),
                exit_code: 0,
            })
        }
        "diff" => {
            let mut threshold = 0.0f64;
            let mut paths: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                if arg == "--threshold" {
                    let value = it
                        .next()
                        .ok_or_else(|| usage_err("--threshold needs a value"))?;
                    threshold = value.parse().map_err(|_| {
                        usage_err(&format!("--threshold {value:?} is not a number"))
                    })?;
                    if threshold.is_nan() || threshold < 0.0 {
                        return Err(usage_err("--threshold must be >= 0"));
                    }
                } else {
                    paths.push(arg);
                }
            }
            let [baseline_path, run_path] = paths[..] else {
                return Err(usage_err("diff takes exactly two input paths"));
            };
            let baseline = load_doc(Path::new(baseline_path))?;
            let run_doc = load_doc(Path::new(run_path))?;
            let outcome = diff(&baseline, &run_doc, threshold);
            Ok(Report {
                stdout: outcome.report,
                exit_code: i32::from(outcome.drifted),
            })
        }
        other => Err(usage_err(&format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ExperimentConfig;
    use crate::telemetry::render_telemetry_json;
    use wmn_obs::{Recorder, TelemetryRecorder};

    fn label() -> PathBuf {
        PathBuf::from("test/telemetry.json")
    }

    /// A recorder whose attribution reproduces the canonical
    /// edge/component/coverage split under `ga > evaluate > apply_moves`.
    fn sample_recorder() -> TelemetryRecorder {
        let mut rec = TelemetryRecorder::new();
        rec.counter("ga.generations", 40);
        {
            let mut ga = wmn_obs::phase(&mut rec, "ga");
            ga.counter("ga.children_evaluated", 10);
            let mut evaluate = wmn_obs::phase(&mut ga, "evaluate");
            let mut apply = wmn_obs::phase(&mut evaluate, "apply_moves");
            {
                let mut edge = wmn_obs::phase(&mut apply, "edge_repair");
                edge.counter("topology.edges_linked", 45);
            }
            {
                let mut component = wmn_obs::phase(&mut apply, "component_repair");
                component.counter("connectivity.repairs", 30);
            }
            {
                let mut coverage = wmn_obs::phase(&mut apply, "coverage");
                coverage.counter("coverage.disk_queries", 25);
            }
        }
        rec.value("ga.generation.diff_routers", 3);
        rec
    }

    fn sample_doc() -> Doc {
        let rendered =
            render_telemetry_json("fig3", &ExperimentConfig::quick(), &sample_recorder());
        parse_doc(&label(), &rendered).unwrap()
    }

    #[test]
    fn parses_a_real_v2_document() {
        let doc = sample_doc();
        assert_eq!(doc.bin.as_deref(), Some("fig3"));
        assert_eq!(doc.connectivity.as_deref(), Some("dynamic"));
        assert_eq!(doc.counters["ga.generations"], 40);
        assert_eq!(doc.counters["topology.edges_linked"], 45);
        assert_eq!(doc.histograms, 1);
        assert_eq!(doc.attribution.total(), 110);
        let apply = &doc.attribution.children["ga"].children["evaluate"].children["apply_moves"];
        assert_eq!(apply.children["edge_repair"].total(), 45);
        assert_eq!(apply.children["component_repair"].total(), 30);
        assert_eq!(apply.children["coverage"].total(), 25);
    }

    #[test]
    fn rejects_the_retired_v1_schema_loudly() {
        let v1 = "{\"schema\":\"wmn-telemetry/v1\",\"bin\":\"fig3\",\"counters\":{}}";
        let err = parse_doc(&label(), v1).unwrap_err().to_string();
        assert!(err.contains("wmn-telemetry/v1"), "{err}");
        assert!(err.contains("wmn-telemetry/v2"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn rejects_unknown_schemas_and_missing_members() {
        let unknown = "{\"schema\":\"wmn-telemetry/v9\",\"counters\":{}}";
        let err = parse_doc(&label(), unknown).unwrap_err().to_string();
        assert!(err.contains("wmn-telemetry/v9"), "{err}");
        assert!(err.contains("wmn-telemetry/v2"), "{err}");

        let no_attribution = "{\"schema\":\"wmn-telemetry/v2\",\"bin\":\"fig3\",\"counters\":{}}";
        let err = parse_doc(&label(), no_attribution).unwrap_err().to_string();
        assert!(err.contains("attribution"), "{err}");

        // The retired baseline schema is refused like any other.
        let old_baseline = "{\"schema\":\"wmn-counters-baseline/v1\",\"counters\":{}}";
        let err = parse_doc(&label(), old_baseline).unwrap_err().to_string();
        assert!(err.contains("wmn-counters-baseline/v1"), "{err}");
        assert!(err.contains("wmn-telemetry/v2"), "{err}");
    }

    #[test]
    fn counters_past_2_pow_53_are_errors_naming_the_member() {
        let rendered =
            render_telemetry_json("fig3", &ExperimentConfig::quick(), &sample_recorder());
        let huge = rendered.replace(
            "\"ga.generations\": 40",
            "\"ga.generations\": 9007199254740993",
        );
        assert_ne!(huge, rendered);
        let err = parse_doc(&label(), &huge).unwrap_err().to_string();
        assert!(err.contains("\"ga.generations\""), "{err}");
        assert!(err.contains("not an integer in [0, 2^53)"), "{err}");
    }

    /// The committed counter baselines, copies of the gate runs'
    /// `telemetry.json`.
    const BASELINES: [(&str, &str); 2] = [
        ("fig3", include_str!("../../../COUNTERS_baseline.json")),
        ("fig4", include_str!("../../../COUNTERS_baseline_fig4.json")),
    ];

    #[test]
    fn accepts_baseline_documents() {
        for (bin, text) in BASELINES {
            let baseline = parse_doc(Path::new("COUNTERS_baseline.json"), text).unwrap();
            assert_eq!(baseline.bin.as_deref(), Some(bin));
            assert_eq!(baseline.connectivity.as_deref(), Some("dynamic"));
            assert!(!baseline.counters.is_empty(), "{bin}");
            let attributed = baseline.attribution.total();
            assert!(
                attributed > 0 && attributed <= baseline.counter_total(),
                "{bin}"
            );
        }
    }

    /// A baseline's `counters` and `attribution` blocks keep the pretty
    /// shape the retired `jq` refresh path wrote, in a fresh render and in
    /// both committed baselines.
    #[test]
    fn baseline_rendering_matches_the_jq_shape() {
        let mut rec = TelemetryRecorder::new();
        rec.counter("a.b", 1);
        rec.counter("c", 20);
        wmn_obs::phase(&mut rec, "ga").counter("c", 2);
        let rendered = render_telemetry_json("w", &ExperimentConfig::quick(), &rec);
        assert!(
            rendered.ends_with(
                "  \"counters\": {\n    \"a.b\": 1,\n    \"c\": 22\n  },\n  \
                 \"histograms\": {},\n  \"attribution\": {\n    \"ga\": {\n      \
                 \"counters\": {\n        \"c\": 2\n      },\n      \"children\": {}\n    \
                 }\n  }\n}\n"
            ),
            "{rendered}"
        );
        let empty =
            render_telemetry_json("w", &ExperimentConfig::quick(), &TelemetryRecorder::new());
        assert!(
            empty.ends_with("\"counters\": {},\n  \"histograms\": {},\n  \"attribution\": {}\n}\n"),
            "{empty}"
        );
        for (bin, text) in BASELINES {
            let doc = parse_doc(Path::new("COUNTERS_baseline.json"), text).unwrap();
            let members: Vec<String> = doc
                .counters
                .iter()
                .map(|(name, n)| format!("    \"{name}\": {n}"))
                .collect();
            let block = format!("\n  \"counters\": {{\n{}\n  }},\n", members.join(",\n"));
            assert!(text.contains(&block), "{bin}");
        }
    }

    #[test]
    fn baseline_with_control_characters_round_trips() {
        let bin = "a\tb\nc \"q\" \\ \u{1}";
        let rendered = render_telemetry_json(bin, &ExperimentConfig::quick(), &sample_recorder());
        assert!(
            rendered.contains("\"bin\": \"a\\tb\\nc \\\"q\\\" \\\\ \\u0001\","),
            "{rendered}"
        );
        let doc = parse_doc(Path::new("b.json"), &rendered).unwrap();
        assert_eq!(doc.bin.as_deref(), Some(bin));
        assert_eq!(doc.counters, sample_doc().counters);
        assert_eq!(&doc.attribution, sample_recorder().attribution());
    }

    #[test]
    fn flame_renders_the_split_with_deterministic_percentages() {
        let doc = sample_doc();
        let text = flame(&doc);
        assert!(
            text.contains("attributed 110 of 150 counter units (73.3%)"),
            "{text}"
        );
        // Children sort heaviest-first; the 45/30/25 split reads in order.
        let edge = text.find("edge_repair").unwrap();
        let component = text.find("component_repair").unwrap();
        let coverage = text.find("coverage\n").unwrap();
        assert!(edge < component && component < coverage, "{text}");
        assert!(text.contains("40.9%"), "{text}");
        assert!(text.contains("27.2%"), "{text}");
        assert!(text.contains("22.7%"), "{text}");
        // `ga` holds own counters plus children, so a [self] leaf appears.
        assert!(text.contains("[self]"), "{text}");
    }

    #[test]
    fn flame_reads_a_baseline_like_its_telemetry() {
        let (_, text) = BASELINES[0];
        let baseline = flame(&parse_doc(Path::new("COUNTERS_baseline.json"), text).unwrap());
        assert!(
            baseline.starts_with("counter-weighted flamegraph: fig3 (connectivity=dynamic)"),
            "{baseline}"
        );
        for scope in [
            "evaluate",
            "apply_moves",
            "edge_repair",
            "component_repair",
            "coverage",
        ] {
            assert!(baseline.contains(scope), "{scope}: {baseline}");
        }
        // The file name plays no part: a copy renders like the original.
        let copy = flame(&parse_doc(Path::new("telemetry.json"), text).unwrap());
        assert_eq!(copy, baseline);
    }

    #[test]
    fn diff_reports_matching_profiles_cleanly() {
        let doc = sample_doc();
        let outcome = diff(&doc, &doc, 0.0);
        assert!(!outcome.drifted);
        assert!(outcome
            .report
            .contains("counters: 5 keys compared, all match"));
        assert!(outcome
            .report
            .contains("phase attribution: 4 keys compared, all match"));
    }

    #[test]
    fn diff_lists_drift_in_the_gate_format_and_honors_thresholds() {
        let baseline = sample_doc();
        let mut run = sample_doc();
        run.counters.insert("ga.generations".to_owned(), 44);
        run.counters.insert("search.extra".to_owned(), 2);
        let outcome = diff(&baseline, &run, 0.0);
        assert!(outcome.drifted);
        assert!(
            outcome
                .report
                .contains("  ga.generations: baseline 40 -> run 44"),
            "{}",
            outcome.report
        );
        assert!(
            outcome
                .report
                .contains("  search.extra: baseline 0 -> run 2"),
            "{}",
            outcome.report
        );
        // 10% drift on ga.generations tolerated at threshold 10; the new
        // key (relative drift 200% against max(b,1)=1) still fails.
        let tolerant = diff(&baseline, &run, 10.0);
        assert!(tolerant.drifted);
        assert!(
            !tolerant.report.contains("ga.generations"),
            "{}",
            tolerant.report
        );
        let lax = diff(&baseline, &run, 1000.0);
        assert!(!lax.drifted);
    }

    #[test]
    fn diff_compares_phase_attribution_when_both_sides_have_it() {
        let baseline = sample_doc();
        let mut run = sample_doc();
        // Same flat totals, shifted attribution: 5 units move from the
        // edge_repair scope to the coverage scope.
        let apply = &mut run
            .attribution
            .children
            .get_mut("ga")
            .unwrap()
            .children
            .get_mut("evaluate")
            .unwrap()
            .children
            .get_mut("apply_moves")
            .unwrap()
            .children;
        *apply
            .get_mut("edge_repair")
            .unwrap()
            .counters
            .get_mut("topology.edges_linked")
            .unwrap() -= 5;
        *apply
            .get_mut("coverage")
            .unwrap()
            .counters
            .get_mut("coverage.disk_queries")
            .unwrap() += 5;
        let outcome = diff(&baseline, &run, 0.0);
        assert!(outcome.drifted);
        assert!(outcome
            .report
            .contains("counters: 5 keys compared, all match"));
        assert!(
            outcome.report.contains(
                "  phase.ga.evaluate.apply_moves.edge_repair.topology.edges_linked: \
                 baseline 45 -> run 40"
            ),
            "{}",
            outcome.report
        );
    }

    #[test]
    fn diff_flags_a_run_without_the_baselines_tree() {
        let baseline = sample_doc();
        let mut run = sample_doc();
        run.attribution = PhaseNode::default();
        let outcome = diff(&baseline, &run, 0.0);
        assert!(outcome.drifted);
        assert!(
            outcome
                .report
                .contains("phase attribution drifted (4 of 4 keys):"),
            "{}",
            outcome.report
        );
        // Every document's tree is compared, so the reverse drifts too.
        assert!(diff(&run, &baseline, 0.0).drifted);
    }

    #[test]
    fn summarize_is_one_screen_and_names_the_top_work() {
        let doc = sample_doc();
        let text = summarize(&doc);
        assert!(
            text.contains("run summary: fig3 (wmn-telemetry/v2)"),
            "{text}"
        );
        assert!(text.contains("counters: 5 keys, 150 work units"), "{text}");
        assert!(text.contains("73.3%"), "{text}");
        assert!(text.contains("ga.generations"), "{text}");
        assert!(text.lines().count() <= 24, "{text}");
    }

    #[test]
    fn run_dispatches_and_reports_usage_errors() {
        let err = run(&[]).unwrap_err().to_string();
        assert!(err.contains("usage: wmn-report"), "{err}");
        for retired in ["explode", "baseline"] {
            let err = run(&[retired.to_owned()]).unwrap_err().to_string();
            assert!(err.contains("unknown command"), "{err}");
        }
        let err = run(&["diff".to_owned(), "a".to_owned()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("exactly two"), "{err}");
        let err = run(&[
            "diff".to_owned(),
            "a".to_owned(),
            "b".to_owned(),
            "--threshold".to_owned(),
            "x".to_owned(),
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn run_round_trips_through_files() {
        let dir = std::env::temp_dir().join("wmn-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        crate::telemetry::write_telemetry(
            &dir,
            "fig3",
            &ExperimentConfig::quick(),
            &sample_recorder(),
        )
        .unwrap();
        // Directory and explicit-file inputs resolve to the same doc.
        let flame_out = run(&["flame".to_owned(), dir.display().to_string()]).unwrap();
        assert_eq!(flame_out.exit_code, 0);
        assert!(flame_out.stdout.contains("edge_repair"));
        // A baseline is a copy of the run's document.
        let baseline_path = dir.join("base.json");
        std::fs::copy(dir.join("telemetry.json"), &baseline_path).unwrap();
        let clean = run(&[
            "diff".to_owned(),
            baseline_path.display().to_string(),
            dir.display().to_string(),
        ])
        .unwrap();
        assert_eq!(clean.exit_code, 0, "{}", clean.stdout);
        let summary = run(&["summarize".to_owned(), dir.display().to_string()]).unwrap();
        assert!(summary.stdout.contains("spans:"), "{}", summary.stdout);
        let summary = run(&["summarize".to_owned(), baseline_path.display().to_string()]).unwrap();
        assert!(summary.stdout.contains("\nphases: "), "{}", summary.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

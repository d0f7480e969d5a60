//! Fuzzing of the artifact readers: the JSON parser, checkpoint lines
//! (`Checkpoint::load`) and `wmn-report`'s document parser
//! (`analyze::parse_doc`) take text joined from their formats' own pieces
//! and text made of random bytes. They must refuse bad input with an
//! error and never panic. `json::escape` output must parse back to the
//! string it escaped, control characters included, and a checkpoint line
//! must render back to itself whatever its cell and file names hold.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use wmn_experiments::analyze::parse_doc;
use wmn_experiments::checkpoint::{fingerprint, Checkpoint};
use wmn_experiments::json::{self, JsonValue};
use wmn_experiments::scenario::ExperimentConfig;

/// JSON pieces, well-formed and not: structure, literals, numbers at the
/// edges of the number grammar, escapes (lone surrogates included), and
/// raw control and non-ASCII characters.
const JSON_PIECES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00",
    "\\u00e9",
    "\\n",
    "\\x",
    "\"a\"",
    "\"schema\"",
    "true",
    "false",
    "null",
    "tru",
    "nul",
    "0",
    "-",
    "1",
    "1.5e3",
    "e",
    "E",
    "+",
    ".",
    "00",
    "1e999",
    "-0.0",
    " ",
    "\n",
    "\t",
    "\u{1}",
    "é",
    "😀",
    "\u{7f}",
];

/// Pieces of a checkpoint line or a `wmn-report` document.
const DOC_PIECES: &[&str] = &[
    "\"files\":[",
    "\"table1.md\"",
    "\"table\":{",
    "\"scenario\":\"normal\"",
    "\"router_count\":64",
    "\"client_count\":192",
    "\"rows\":[",
    "{\"method\":\"HotSpot\"",
    "\"giant_by_ga\":3",
    "\"coverage_by_ga\":-1",
    "\"counters\":{",
    "\"topology.swaps\":1",
    "\"attribution\":{",
    "\"children\":{",
    "\"config\":{",
    "\"connectivity\":\"full\"",
    "\"histograms\":{",
    "\"bin\":\"fig4\"",
    "\"cell\":\"fig\\\"4\"",
    ",",
    ":",
    "}",
    "]",
    "\"",
    "1.5",
    "null",
    "\n",
];

/// Characters for cell and file names: plain, special to JSON, control
/// and non-ASCII.
const NAME_CHARS: &[char] = &[
    'a', 'Z', '4', '.', '-', '_', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'é', '😀',
];

fn name(picks: Vec<usize>) -> String {
    picks.into_iter().map(|i| NAME_CHARS[i]).collect()
}

fn joined(pieces: &[&str], picks: Vec<usize>) -> String {
    picks.into_iter().map(|i| pieces[i]).collect()
}

fn random_text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A scratch directory for one property's checkpoint files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmn-fuzz-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Writes `contents` as `dir`'s checkpoint and loads it for `config`.
fn load_checkpoint(dir: &Path, config: &ExperimentConfig, contents: &str) -> Option<String> {
    std::fs::write(Checkpoint::file(dir), contents).expect("checkpoint written");
    Checkpoint::load(dir, config).ok().map(|c| c.render())
}

/// JSON's own rules, checked on any text that parses: one complete value
/// followed by garbage, or opened inside an array that never closes, is
/// refused.
fn check_json(text: &str) {
    if json::parse(text).is_ok() {
        assert!(json::parse(&format!("{text},")).is_err(), "{text:?}");
        assert!(json::parse(&format!("[{text}")).is_err(), "{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn json_pieces_parse_or_err(picks in proptest::collection::vec(0..JSON_PIECES.len(), 0..32)) {
        check_json(&joined(JSON_PIECES, picks));
    }

    #[test]
    fn json_random_bytes_parse_or_err(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        check_json(&random_text(&bytes));
    }

    #[test]
    fn escape_then_parse_round_trips(
        units in proptest::collection::vec((0u8..4, any::<u32>()), 0..40),
    ) {
        let s: String = units
            .into_iter()
            .map(|(kind, x)| match kind {
                0 => char::from_u32(x % 0x20).expect("a control character"),
                1 => ['"', '\\', '/', '\u{7f}'][x as usize % 4],
                2 => char::from_u32(0x20 + x % 0x5f).expect("printable ASCII"),
                _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect();
        let literal = format!("\"{}\"", json::escape(&s));
        prop_assert_eq!(json::parse(&literal), Ok(JsonValue::String(s)));
    }

    #[test]
    fn checkpoint_lines_load_or_err(
        cell in proptest::collection::vec(0..NAME_CHARS.len(), 0..8),
        files in proptest::collection::vec(proptest::collection::vec(0..NAME_CHARS.len(), 0..8), 0..4),
        tail in proptest::collection::vec(0..DOC_PIECES.len(), 1..8),
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let config = ExperimentConfig::quick();
        let dir = scratch_dir("checkpoint");
        // Random text is never a checkpoint line: no schema, no fingerprint.
        let text = random_text(&bytes);
        let loaded = load_checkpoint(&dir, &config, &text);
        prop_assert_eq!(loaded.is_some(), text.lines().all(|l| l.trim().is_empty()), "{:?}", text);
        // A well-formed line, whatever its names hold, loads and renders
        // back to itself.
        let quoted = |s: &str| format!("\"{}\"", json::escape(s));
        let files: Vec<String> = files.into_iter().map(|f| quoted(&name(f))).collect();
        let line = format!(
            "{{\"schema\":\"wmn-checkpoint/v1\",\"fingerprint\":\"{}\",\"cell\":{},\"files\":[{}]",
            fingerprint(&config),
            quoted(&name(cell)),
            files.join(","),
        );
        let whole = format!("{line}}}\n");
        prop_assert_eq!(load_checkpoint(&dir, &config, &whole), Some(whole.clone()));
        // With pieces of a table appended, the line reaches the table
        // checks; whatever loads renders to a checkpoint that loads back
        // unchanged.
        let extended = format!("{line},{}", joined(DOC_PIECES, tail));
        if let Some(rendered) = load_checkpoint(&dir, &config, &extended) {
            prop_assert_eq!(load_checkpoint(&dir, &config, &rendered), Some(rendered.clone()));
        }
        std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    }

    #[test]
    fn report_documents_parse_or_err(
        picks in proptest::collection::vec(0..DOC_PIECES.len(), 0..16),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let label = Path::new("fuzz.json");
        prop_assert!(parse_doc(label, &random_text(&bytes)).is_err());
        for schema in ["wmn-telemetry/v2", "wmn-counters-baseline/v1", "wmn-telemetry/v1"] {
            let doc = format!("{{\"schema\":\"{schema}\",{}", joined(DOC_PIECES, picks.clone()));
            let _ = parse_doc(label, &doc);
        }
    }
}

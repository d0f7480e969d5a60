//! Fuzzing of `FaultPlan::parse`: specs joined from the plan grammar's
//! own pieces, and specs made of random bytes, must parse or be refused
//! with an error, never panic.

use proptest::prelude::*;
use wmn_runtime::{FaultPlan, FaultSite};

/// Pieces of the `seed=7;panic@start:p=0.4,n=2` grammar, well-formed and
/// not, so that joined specs reach every branch of the parser.
const PIECES: &[&str] = &[
    "seed=",
    "seed=7",
    "panic",
    "error",
    "blowup",
    "@",
    "start",
    "finish",
    "repair",
    ":",
    "p=",
    "n=",
    "x=",
    ",",
    ";",
    "=",
    "0",
    "1",
    "2",
    "0.4",
    "1.5",
    "-1",
    "NaN",
    "inf",
    "1e400",
    "18446744073709551616",
    " ",
    "\t",
    "\u{0}",
    "é",
    "panic@start",
    "error@finish:p=1,n=2",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn grammar_piece_specs_parse_or_err(
        pieces in proptest::collection::vec(0..PIECES.len(), 0..24),
    ) {
        let spec: String = pieces.into_iter().map(|i| PIECES[i]).collect();
        if let Ok(plan) = FaultPlan::parse(&spec) {
            // An accepted plan decides every coordinate without panicking.
            for job in 0..4 {
                for attempt in 0..3 {
                    let _ = plan.decide(FaultSite::JobStart, job, attempt);
                    let _ = plan.decide(FaultSite::JobFinish, job, attempt);
                }
            }
        }
    }

    #[test]
    fn random_byte_specs_are_refused(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let spec = String::from_utf8_lossy(&bytes);
        let parsed = FaultPlan::parse(&spec);
        // Only blank tokens may be skipped; every other token is a seed or
        // a `<kind>@<site>` rule.
        if spec.chars().all(|c| c == ';' || c.is_whitespace()) {
            prop_assert!(parsed.is_ok(), "{spec:?}");
        } else if !spec.contains("seed=") && !spec.contains('@') {
            prop_assert!(parsed.is_err(), "{spec:?}");
        }
    }
}

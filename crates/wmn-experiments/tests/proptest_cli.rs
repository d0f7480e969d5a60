//! Fuzzing of the experiment binaries' command lines: the flag parser
//! (`cli::parse`) takes argument vectors joined from its own flags and
//! edge values, and random strings. It must return `Ok` or an `Err` and
//! never panic, and a refused flag is named in the error.
//! `proptest_report_args.rs` does the same for `wmn-report`.

mod argv;

use argv::{argv, VALUES};
use proptest::prelude::*;
use wmn_experiments::cli::parse;

/// Every flag of the experiment binaries, `--help` and its short form.
const FLAGS: &[&str] = &[
    "--quick",
    "--seed",
    "--instance-seed",
    "--threads",
    "--ga-threads",
    "--scale",
    "--scale-routers",
    "--scale-clients",
    "--scale-area",
    "--ns-budget",
    "--connectivity",
    "--retries",
    "--fault-plan",
    "--telemetry",
    "--resume",
    "--out",
    "--help",
    "-h",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn flags_parse_or_err_naming_the_flag(
        picks in proptest::collection::vec(0..FLAGS.len() + VALUES.len(), 0..8),
        random in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..12)),
            0..8,
        ),
    ) {
        let random = random.into_iter().map(|(on, bytes)| on.then_some(bytes)).collect();
        let args = argv(FLAGS, picks, random);
        if let Err(err) = parse(args.clone()) {
            let names_a_flag = FLAGS
                .iter()
                .any(|flag| args.iter().any(|a| a == flag) && err.contains(flag));
            let names_an_unknown_flag = args
                .iter()
                .any(|a| err.contains(&format!("unknown flag {a:?}")));
            let asked_for_help = err.starts_with("usage:")
                && args.iter().any(|a| a == "--help" || a == "-h");
            prop_assert!(
                names_a_flag || names_an_unknown_flag || asked_for_help,
                "{err:?} names no flag of {args:?}"
            );
        }
    }
}

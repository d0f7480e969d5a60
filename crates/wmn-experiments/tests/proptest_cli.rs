//! Fuzzing of the experiment binaries' command lines: the flag parser
//! (`cli::parse_from`) and the `WMN_*` environment parser
//! (`cli::config_from_vars`) take argument vectors joined from their own
//! flags and edge values, and random strings. Each must return `Ok` or an
//! `Err` and never panic, and a refused flag or variable is named in the
//! error. `proptest_report_args.rs` does the same for `wmn-report`.

mod argv;

use argv::{argv, random_text, VALUES};
use proptest::prelude::*;
use wmn_experiments::cli::{config_from_vars, parse_from};
use wmn_experiments::scenario::ExperimentConfig;

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

/// Every `WMN_*` variable `config_from_vars` reads.
const VARS: &[&str] = &[
    "WMN_THREADS",
    "WMN_GA_THREADS",
    "WMN_SCALE",
    "WMN_SCALE_ROUTERS",
    "WMN_SCALE_CLIENTS",
    "WMN_SCALE_AREA",
    "WMN_CONNECTIVITY",
    "WMN_RETRIES",
    "WMN_FAULT_PLAN",
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
        if let Err(err) = parse_from(ExperimentConfig::paper(), args.clone()) {
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

    #[test]
    fn variables_parse_or_err_naming_the_variable(
        set in proptest::collection::vec(
            (any::<bool>(), 0..VALUES.len(), proptest::collection::vec(any::<u8>(), 0..12)),
            VARS.len()..=VARS.len(),
        ),
    ) {
        // Each variable is set to an edge value, to random text, or not
        // at all.
        let values: Vec<Option<String>> = set
            .into_iter()
            .map(|(edge, pick, bytes)| match (edge, bytes.len()) {
                (true, _) => Some(VALUES[pick].to_owned()),
                (false, 0) => None,
                (false, _) => Some(random_text(&bytes)),
            })
            .collect();
        let lookup = |name: &str| {
            let i = VARS.iter().position(|v| *v == name)?;
            values[i].clone()
        };
        if let Err(err) = config_from_vars(lookup) {
            let named = VARS
                .iter()
                .zip(&values)
                .any(|(var, value)| value.is_some() && err.contains(var));
            prop_assert!(named, "{err:?} names no variable set in {values:?}");
        }
    }
}

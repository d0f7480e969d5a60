//! Fuzzing of `wmn-report`'s argument handling (`analyze::run`): argument
//! vectors joined from its commands, flags and input paths, edge values
//! and random strings. It runs in a fresh directory where no input path
//! exists, so every invocation must be refused with an `Err`, never panic,
//! and write nothing. The property changes the process's working
//! directory, so it has this test binary to itself.

mod argv;

use argv::{argv, VALUES};
use proptest::prelude::*;
use wmn_experiments::analyze;

/// `wmn-report`'s commands and flags, refused ones (among them the
/// retired `baseline` command and its flags), and input paths, none of
/// which exist in the directory the property runs in.
const REPORT_PIECES: &[&str] = &[
    "flame",
    "summarize",
    "diff",
    "baseline",
    "bogus",
    "--threshold",
    "--out",
    "--workload",
    "missing.json",
    "missing-dir",
    ".",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn report_arguments_run_or_err(
        picks in proptest::collection::vec(0..REPORT_PIECES.len() + VALUES.len(), 0..6),
        random in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..12)),
            0..6,
        ),
    ) {
        // No input path exists in a fresh directory, so every command is
        // refused: by its usage check, or when it reads its input.
        let dir = std::env::temp_dir().join(format!("wmn-fuzz-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        std::env::set_current_dir(&dir).expect("enter the scratch directory");
        let random = random.into_iter().map(|(on, bytes)| on.then_some(bytes)).collect();
        let args = argv(REPORT_PIECES, picks, random);
        prop_assert!(analyze::run(&args).is_err(), "{args:?} ran");
        std::env::set_current_dir(std::env::temp_dir()).expect("leave the scratch directory");
        // Removing fails unless the directory is still empty.
        std::fs::remove_dir(&dir).expect("nothing was written");
    }
}

//! Regenerates the paper's Figure 4 (neighborhood search: swap vs random
//! movement, Normal clients).

use std::process::ExitCode;
use wmn_experiments::artifact::{self, Artifact};
use wmn_experiments::cli;

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("fig4", &[Artifact::NsFigure], opts))
}

//! Regenerates the paper's Table 1 (Normal client distribution).

use std::process::ExitCode;
use wmn_experiments::artifact::{self, Artifact};
use wmn_experiments::{cli, Scenario};

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("table1", &[Artifact::Table(Scenario::Normal)], opts))
}

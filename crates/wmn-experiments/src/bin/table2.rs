//! Regenerates the paper's Table 2 (Exponential client distribution).

use std::process::ExitCode;
use wmn_experiments::artifact::{self, Artifact};
use wmn_experiments::{cli, Scenario};

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("table2", &[Artifact::Table(Scenario::Exponential)], opts))
}

//! Regenerates the paper's Table 3 (Weibull client distribution).

use std::process::ExitCode;
use wmn_experiments::artifact::{self, Artifact};
use wmn_experiments::{cli, Scenario};

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("table3", &[Artifact::Table(Scenario::Weibull)], opts))
}

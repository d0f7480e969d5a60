//! Regenerates the paper's Figure 1 (GA evolution, Normal clients).

use std::process::ExitCode;
use wmn_experiments::artifact::{self, Artifact};
use wmn_experiments::{cli, Scenario};

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("fig1", &[Artifact::GaFigure(Scenario::Normal)], opts))
}

//! Regenerates the paper's Figure 2 (GA evolution, Exponential clients).

use std::process::ExitCode;
use wmn_experiments::artifact::{self, Artifact};
use wmn_experiments::{cli, Scenario};

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("fig2", &[Artifact::GaFigure(Scenario::Exponential)], opts))
}

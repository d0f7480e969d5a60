//! Regenerates the paper's Figure 3 (GA evolution, Weibull clients).

use std::process::ExitCode;
use wmn_experiments::artifact::{self, Artifact};
use wmn_experiments::{cli, Scenario};

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("fig3", &[Artifact::GaFigure(Scenario::Weibull)], opts))
}

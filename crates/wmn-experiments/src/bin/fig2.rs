//! Regenerates the paper's Figure 2 (GA evolution, Exponential clients).

use std::process::ExitCode;
use std::time::Instant;
use wmn_experiments::ascii_plot::plot;
use wmn_experiments::checkpoint::{CellDone, Checkpoint};
use wmn_experiments::cli::{self, CliOptions};
use wmn_experiments::error::ExperimentError;
use wmn_experiments::figures::run_ga_figure_recorded;
use wmn_experiments::report::write_ga_figure;
use wmn_experiments::scenario::Scenario;
use wmn_experiments::telemetry;

fn main() -> ExitCode {
    cli::run(run)
}

fn run(opts: &CliOptions) -> Result<(), ExperimentError> {
    let mut recorder = telemetry::recorder_if_requested(opts);
    let mut checkpoint = Checkpoint::open(opts)?;
    if checkpoint.contains("fig2") {
        println!("fig2: complete in checkpoint, skipped");
        return telemetry::maybe_write(opts, "fig2", &recorder);
    }
    let started = Instant::now();
    let fig = run_ga_figure_recorded(Scenario::Exponential, &opts.config, recorder.as_mut())?;
    telemetry::finish_span(&mut recorder, "fig2.run", started);
    println!(
        "{}",
        plot(
            "Figure 2: size of giant component vs GA generations (Exponential clients)",
            &fig.series,
            72,
            20
        )
    );
    write_ga_figure(&opts.out_dir, &fig)?;
    checkpoint.record(CellDone {
        cell: "fig2".to_owned(),
        files: vec![
            "fig2.csv".to_owned(),
            "fig2.jsonl".to_owned(),
            "fig2.txt".to_owned(),
        ],
        table: None,
    })?;
    println!("wrote {}/fig2.{{csv,jsonl,txt}}", opts.out_dir.display());
    telemetry::maybe_write(opts, "fig2", &recorder)
}

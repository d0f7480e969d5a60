//! Regenerates the paper's Figure 4 (neighborhood search: swap vs random
//! movement, Normal clients).

use std::process::ExitCode;
use std::time::Instant;
use wmn_experiments::ascii_plot::plot;
use wmn_experiments::checkpoint::{CellDone, Checkpoint};
use wmn_experiments::cli::{self, CliOptions};
use wmn_experiments::error::ExperimentError;
use wmn_experiments::figures::run_ns_figure_recorded;
use wmn_experiments::report::write_ns_figure;
use wmn_experiments::telemetry;

fn main() -> ExitCode {
    cli::run(run)
}

fn run(opts: &CliOptions) -> Result<(), ExperimentError> {
    let mut recorder = telemetry::recorder_if_requested(opts);
    let mut checkpoint = Checkpoint::open(opts)?;
    if checkpoint.contains("fig4") {
        println!("fig4: complete in checkpoint, skipped");
        return telemetry::maybe_write(opts, "fig4", &recorder);
    }
    let started = Instant::now();
    let fig = run_ns_figure_recorded(&opts.config, recorder.as_mut())?;
    telemetry::finish_span(&mut recorder, "fig4.run", started);
    println!(
        "{}",
        plot(
            "Figure 4: neighborhood search, swap vs random movement (normal clients)",
            &[fig.swap.clone(), fig.random.clone()],
            72,
            20
        )
    );
    println!(
        "final giant component: swap = {}, random = {}",
        fig.swap.last_y().unwrap_or(0.0),
        fig.random.last_y().unwrap_or(0.0)
    );
    write_ns_figure(&opts.out_dir, &fig)?;
    checkpoint.record(CellDone {
        cell: "fig4".to_owned(),
        files: vec![
            "fig4.csv".to_owned(),
            "fig4.jsonl".to_owned(),
            "fig4.txt".to_owned(),
        ],
        table: None,
    })?;
    println!("wrote {}/fig4.{{csv,jsonl,txt}}", opts.out_dir.display());
    telemetry::maybe_write(opts, "fig4", &recorder)
}

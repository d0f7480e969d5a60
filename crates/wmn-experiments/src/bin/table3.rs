//! Regenerates the paper's Table 3 (Weibull client distribution).

use std::process::ExitCode;
use std::time::Instant;
use wmn_experiments::checkpoint::{CellDone, Checkpoint};
use wmn_experiments::cli::{self, CliOptions};
use wmn_experiments::error::ExperimentError;
use wmn_experiments::report::write_table;
use wmn_experiments::scenario::Scenario;
use wmn_experiments::tables::run_table_recorded;
use wmn_experiments::telemetry;

fn main() -> ExitCode {
    cli::run(run)
}

fn run(opts: &CliOptions) -> Result<(), ExperimentError> {
    let mut recorder = telemetry::recorder_if_requested(opts);
    let mut checkpoint = Checkpoint::open(opts)?;
    let table = match checkpoint.table("table3") {
        Some(done) => {
            println!("table3: complete in checkpoint, skipped");
            done.clone()
        }
        None => {
            let started = Instant::now();
            let table = run_table_recorded(Scenario::Weibull, &opts.config, recorder.as_mut())?;
            telemetry::finish_span(&mut recorder, "table3.run", started);
            write_table(&opts.out_dir, &table)?;
            checkpoint.record(CellDone {
                cell: "table3".to_owned(),
                files: vec!["table3.md".to_owned(), "table3.csv".to_owned()],
                table: Some(table.clone()),
            })?;
            table
        }
    };
    println!("# Table 3 — Weibull distribution (paper: Xhafa/Sánchez/Barolli 2009)\n");
    print!("{}", table.to_markdown());
    println!("\nwrote {}/table3.{{md,csv}}", opts.out_dir.display());
    telemetry::maybe_write(opts, "table3", &recorder)
}

//! Regenerates the paper's Table 2 (Exponential client distribution).

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
    let table = match checkpoint.table("table2") {
        Some(done) => {
            println!("table2: complete in checkpoint, skipped");
            done.clone()
        }
        None => {
            let started = Instant::now();
            let table = run_table_recorded(Scenario::Exponential, &opts.config, recorder.as_mut())?;
            telemetry::finish_span(&mut recorder, "table2.run", started);
            write_table(&opts.out_dir, &table)?;
            checkpoint.record(CellDone {
                cell: "table2".to_owned(),
                files: vec!["table2.md".to_owned(), "table2.csv".to_owned()],
                table: Some(table.clone()),
            })?;
            table
        }
    };
    println!("# Table 2 — Exponential distribution (paper: Xhafa/Sánchez/Barolli 2009)\n");
    print!("{}", table.to_markdown());
    println!("\nwrote {}/table2.{{md,csv}}", opts.out_dir.display());
    telemetry::maybe_write(opts, "table2", &recorder)
}

//! Regenerates every table and figure of the paper in one run, plus the
//! cross-scenario `summary.{csv,jsonl}`.
//!
//! ```bash
//! cargo run --release -p wmn-experiments --bin run_all             # paper scale
//! cargo run --release -p wmn-experiments --bin run_all -- --quick  # CI scale
//! cargo run --release -p wmn-experiments --bin run_all -- --quick --threads 8
//! WMN_THREADS=2 cargo run --release -p wmn-experiments --bin run_all -- --quick
//! ```
//!
//! # Parallelism & determinism
//!
//! Every artifact's grid cells (one per ad hoc method, or per movement for
//! Figure 4) execute on the `wmn-runtime` worker pool. `--threads <n>` (or
//! `WMN_THREADS`) picks the worker count; the default `0` uses one worker
//! per core. Because each cell's RNG seed is derived from its grid
//! coordinates (`wmn_model::rng::stream_seed`) and results are collected
//! by job index, **all outputs are byte-identical for every thread
//! count** — `--threads 8` only finishes sooner. Instance sizes beyond the
//! paper's 64/192/128×128 family are reachable via `--scale`
//! (`--scale-routers` / `--scale-clients` / `--scale-area`).
//!
//! With `--telemetry <dir>` the whole run's work-counter profile (every
//! table, GA figure, and the search figure summed) lands in one
//! `telemetry.json` + `spans.jsonl` pair — also byte-identical for every
//! thread count, since the per-job recorders merge in job-index order.
//!
//! # Checkpoint & resume
//!
//! Every run maintains `checkpoint.jsonl` in the output directory: one
//! line per completed cell (table1–3, fig1–4), written after that cell's
//! artifacts land on disk. `--resume <dir>` reloads it (validating that
//! the configuration fingerprint matches) and skips completed cells, so
//! an interrupted long run finishes the remaining work and produces a
//! byte-identical output directory. Thread counts are excluded from the
//! fingerprint — a run may be resumed with a different `--threads`.

use std::process::ExitCode;
use std::time::Instant;
use wmn_experiments::checkpoint::{CellDone, Checkpoint};
use wmn_experiments::cli::{self, CliOptions};
use wmn_experiments::error::ExperimentError;
use wmn_experiments::figures::{run_ga_figure_recorded, run_ns_figure_recorded};
use wmn_experiments::report::{write_ga_figure, write_ns_figure, write_summary, write_table};
use wmn_experiments::scenario::Scenario;
use wmn_experiments::tables::{run_table_recorded, TableResult};
use wmn_experiments::telemetry;

fn main() -> ExitCode {
    cli::run(run)
}

fn run(opts: &CliOptions) -> Result<(), ExperimentError> {
    let t0 = Instant::now();
    let mut recorder = telemetry::recorder_if_requested(opts);
    println!(
        "experiment runtime: {} worker thread(s)",
        opts.config.runtime().threads()
    );

    let mut checkpoint = Checkpoint::open(opts)?;
    let mut tables: Vec<TableResult> = Vec::with_capacity(3);
    for scenario in Scenario::paper_tables() {
        let n = scenario.table_number().expect("paper scenario");
        let table_cell = format!("table{n}");
        let table = match checkpoint.table(&table_cell) {
            Some(done) => {
                println!("{table_cell} ({scenario}): complete in checkpoint, skipped");
                done.clone()
            }
            None => {
                let started = Instant::now();
                let table = run_table_recorded(scenario, &opts.config, recorder.as_mut())?;
                telemetry::finish_span(&mut recorder, "run_all.table", started);
                write_table(&opts.out_dir, &table)?;
                checkpoint.record(CellDone {
                    cell: table_cell.clone(),
                    files: vec![format!("table{n}.md"), format!("table{n}.csv")],
                    table: Some(table.clone()),
                })?;
                println!(
                    "{table_cell} ({scenario}): done in {:.1?}; best GA method = {}",
                    started.elapsed(),
                    table.best_ga_method().map(|m| m.name()).unwrap_or("n/a")
                );
                table
            }
        };
        tables.push(table);

        let fig_cell = format!("fig{n}");
        if checkpoint.contains(&fig_cell) {
            println!("{fig_cell} ({scenario}): complete in checkpoint, skipped");
        } else {
            let started = Instant::now();
            let fig = run_ga_figure_recorded(scenario, &opts.config, recorder.as_mut())?;
            telemetry::finish_span(&mut recorder, "run_all.ga_figure", started);
            write_ga_figure(&opts.out_dir, &fig)?;
            checkpoint.record(CellDone {
                cell: fig_cell.clone(),
                files: vec![
                    format!("fig{n}.csv"),
                    format!("fig{n}.jsonl"),
                    format!("fig{n}.txt"),
                ],
                table: None,
            })?;
            println!(
                "{fig_cell} ({scenario}): done in {:.1?}; best final curve = {}",
                started.elapsed(),
                fig.best_final_method().unwrap_or("n/a")
            );
        }
    }

    if checkpoint.contains("fig4") {
        println!("fig4: complete in checkpoint, skipped");
    } else {
        let started = Instant::now();
        let ns = run_ns_figure_recorded(&opts.config, recorder.as_mut())?;
        telemetry::finish_span(&mut recorder, "run_all.ns_figure", started);
        write_ns_figure(&opts.out_dir, &ns)?;
        checkpoint.record(CellDone {
            cell: "fig4".to_owned(),
            files: vec![
                "fig4.csv".to_owned(),
                "fig4.jsonl".to_owned(),
                "fig4.txt".to_owned(),
            ],
            table: None,
        })?;
        println!(
            "fig4: done in {:.1?}; swap = {}, random = {}",
            started.elapsed(),
            ns.swap.last_y().unwrap_or(0.0),
            ns.random.last_y().unwrap_or(0.0)
        );
    }

    write_summary(&opts.out_dir, &tables)?;
    println!(
        "all artifacts written to {}/ in {:.1?}",
        opts.out_dir.display(),
        t0.elapsed()
    );
    telemetry::maybe_write(opts, "run_all", &recorder)
}

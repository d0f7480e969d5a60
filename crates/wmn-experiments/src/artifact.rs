//! The artifact driver: every experiment binary runs, writes and
//! checkpoints the paper's tables and figures through [`run`].
//!
//! For each [`Artifact`] in order, [`run`] does one of two things:
//!
//! * If the checkpoint records the artifact and every file its line lists
//!   is still in the output directory, it skips it, restoring a table's
//!   payload for the summary.
//! * Otherwise it runs the artifact on the shared telemetry recorder,
//!   writes its files through the [`crate::report`] writers (each returns
//!   the names it wrote, in write order; that list becomes the checkpoint
//!   line's `files`), records the checkpoint line and prints one progress
//!   line.
//!
//! Table N and Figure N are two views of one GA grid
//! ([`run_ga_grid`]). [`run`] keeps the last grid it ran and serves the
//! next table or GA figure of the same scenario from it, so `run_all` runs
//! each scenario's seven GAs once. It runs a new grid only for another
//! scenario, for example a figure whose table a resume skipped.
//!
//! Given the whole [`PAPER`] list, it then writes `summary.{csv,jsonl}`.
//! With `--telemetry <dir>` it writes `telemetry.json` and `spans.jsonl`
//! under the binary's name.
//!
//! Cell outputs are pure functions of the configuration, every write is
//! atomic, and a cell's checkpoint line is written only after its files.
//! So a run stopped at any cell boundary and restarted with `--resume`
//! leaves the same directory as an uninterrupted run
//! (`tests/robustness.rs` resumes from every such boundary).

use crate::checkpoint::{CellDone, Checkpoint};
use crate::cli::CliOptions;
use crate::error::ExperimentError;
use crate::figures::run_ns_figure_recorded;
use crate::report::{write_ga_figure, write_ns_figure, write_summary, write_table};
use crate::scenario::{ExperimentConfig, Scenario};
use crate::tables::{run_ga_grid, GaGrid};
use crate::telemetry::write_telemetry;
use std::time::Instant;
use wmn_obs::{Recorder, TelemetryRecorder};

/// One of the paper's tables or figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Tables 1–3: each ad hoc method standalone and as GA initializer.
    Table(Scenario),
    /// Figures 1–3: GA evolution, one curve per ad hoc method.
    GaFigure(Scenario),
    /// Figure 4: neighborhood search, swap against random movement.
    NsFigure,
}

/// Every artifact of the paper, in the order `run_all` runs and
/// checkpoints them.
pub const PAPER: [Artifact; 7] = [
    Artifact::Table(Scenario::Normal),
    Artifact::GaFigure(Scenario::Normal),
    Artifact::Table(Scenario::Exponential),
    Artifact::GaFigure(Scenario::Exponential),
    Artifact::Table(Scenario::Weibull),
    Artifact::GaFigure(Scenario::Weibull),
    Artifact::NsFigure,
];

impl Artifact {
    /// The artifact's checkpoint cell: `table1`, `fig3`, `fig4`, ….
    pub fn cell(&self) -> String {
        match self {
            Artifact::Table(s) => format!("table{}", s.table_number()),
            Artifact::GaFigure(s) => format!("fig{}", s.table_number()),
            Artifact::NsFigure => "fig4".to_owned(),
        }
    }

    /// The cell as progress lines name it: with its scenario, when it has
    /// one (`table1 (normal)`).
    fn label(&self) -> String {
        match self {
            Artifact::Table(s) | Artifact::GaFigure(s) => format!("{} ({s})", self.cell()),
            Artifact::NsFigure => self.cell(),
        }
    }

    /// The wall-clock span the artifact's run and writes are recorded as.
    fn span(&self) -> &'static str {
        match self {
            Artifact::Table(_) => "artifact.table",
            Artifact::GaFigure(_) => "artifact.ga_figure",
            Artifact::NsFigure => "artifact.ns_figure",
        }
    }
}

/// Runs, writes and checkpoints `artifacts` in order for the binary `bin`
/// (see the module docs).
///
/// # Errors
///
/// A checkpoint that cannot be resumed, a failed run (naming its grid
/// cell), or a failed write (naming its path).
pub fn run(bin: &str, artifacts: &[Artifact], opts: &CliOptions) -> Result<(), ExperimentError> {
    let started = Instant::now();
    let mut recorder = opts.telemetry.as_ref().map(|_| TelemetryRecorder::new());
    let mut checkpoint = Checkpoint::open(opts)?;
    let (config, dir) = (&opts.config, &opts.out_dir);
    println!(
        "experiment runtime: {} worker thread(s)",
        config.runtime().threads()
    );
    let mut tables = Vec::new();
    let mut last_grid: Option<GaGrid> = None;
    for artifact in artifacts {
        let cell = artifact.cell();
        // A cell is done only while its files are all there, and a table
        // only with its payload: the summary needs it.
        let line = checkpoint
            .get(&cell)
            .filter(|line| line.files.iter().all(|f| dir.join(f).is_file()));
        let done = match artifact {
            Artifact::Table(_) => line.and_then(|line| line.table.clone()).map(Some),
            _ => line.map(|_| None),
        };
        if let Some(table) = done {
            tables.extend(table);
            println!("{}: complete in checkpoint, skipped", artifact.label());
            continue;
        }

        let cell_started = Instant::now();
        let (files, table, note) = match *artifact {
            Artifact::Table(scenario) => {
                let grid = ga_grid(&mut last_grid, scenario, config, recorder.as_mut())?;
                let best = grid.table.best_ga_method().map_or("n/a", |m| m.name());
                let note = format!("best GA method = {best}");
                (
                    write_table(dir, &grid.table)?,
                    Some(grid.table.clone()),
                    note,
                )
            }
            Artifact::GaFigure(scenario) => {
                let grid = ga_grid(&mut last_grid, scenario, config, recorder.as_mut())?;
                let best = grid.figure.best_final_method().unwrap_or("n/a");
                let note = format!("best final curve = {best}");
                (write_ga_figure(dir, &grid.figure)?, None, note)
            }
            Artifact::NsFigure => {
                let fig = run_ns_figure_recorded(config, recorder.as_mut())?;
                let note = format!(
                    "swap = {}, random = {}",
                    fig.swap.last_y().unwrap_or(0.0),
                    fig.random.last_y().unwrap_or(0.0)
                );
                (write_ns_figure(dir, &fig)?, None, note)
            }
        };
        let elapsed = cell_started.elapsed();
        if let Some(rec) = recorder.as_mut() {
            rec.span(
                artifact.span(),
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        checkpoint.record(CellDone {
            cell,
            files,
            table: table.clone(),
        })?;
        println!("{}: done in {elapsed:.1?}; {note}", artifact.label());
        tables.extend(table);
    }

    if artifacts == PAPER {
        write_summary(dir, &tables)?;
    }
    println!(
        "all artifacts written to {}/ in {:.1?}",
        dir.display(),
        started.elapsed()
    );
    if let (Some(telemetry_dir), Some(rec)) = (&opts.telemetry, &recorder) {
        let path = write_telemetry(telemetry_dir, bin, config, rec)?;
        println!(
            "wrote {} and {}/spans.jsonl",
            path.display(),
            telemetry_dir.display()
        );
    }
    Ok(())
}

/// The GA grid of `scenario`: `last` when it holds that scenario's grid,
/// otherwise a new run on `recorder`, which replaces it.
fn ga_grid<'a>(
    last: &'a mut Option<GaGrid>,
    scenario: Scenario,
    config: &ExperimentConfig,
    recorder: Option<&mut TelemetryRecorder>,
) -> Result<&'a GaGrid, ExperimentError> {
    if !matches!(last, Some(grid) if grid.table.scenario == scenario) {
        *last = Some(run_ga_grid(scenario, config, recorder)?);
    }
    Ok(last.as_ref().expect("the scenario's grid"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cells_are_the_checkpoint_names_in_run_order() {
        let cells: Vec<String> = PAPER.iter().map(Artifact::cell).collect();
        assert_eq!(
            cells,
            ["table1", "fig1", "table2", "fig2", "table3", "fig3", "fig4"]
        );
        assert_eq!(PAPER[0].label(), "table1 (normal)");
        assert_eq!(Artifact::NsFigure.label(), "fig4");
    }
}

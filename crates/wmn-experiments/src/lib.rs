//! Experiment harness reproducing every table and figure of the paper.
//!
//! | Artifact | [`artifact::Artifact`] | Runner | Binary |
//! |---|---|---|---|
//! | Table 1 (Normal) | `Table(Normal)` | [`tables::run_ga_grid`]`.table` | `table1` |
//! | Table 2 (Exponential) | `Table(Exponential)` | [`tables::run_ga_grid`]`.table` | `table2` |
//! | Table 3 (Weibull) | `Table(Weibull)` | [`tables::run_ga_grid`]`.table` | `table3` |
//! | Figure 1 (GA evolution, Normal) | `GaFigure(Normal)` | [`tables::run_ga_grid`]`.figure` | `fig1` |
//! | Figure 2 (GA evolution, Exponential) | `GaFigure(Exponential)` | [`tables::run_ga_grid`]`.figure` | `fig2` |
//! | Figure 3 (GA evolution, Weibull) | `GaFigure(Weibull)` | [`tables::run_ga_grid`]`.figure` | `fig3` |
//! | Figure 4 (NS swap vs random) | `NsFigure` | [`figures::run_ns_figure`] | `fig4` |
//!
//! Table N and Figure N are two views of one GA grid: each scenario's
//! seven GA runs, one per ad hoc method. [`figures::run_ga_figure`] is the
//! figure view on its own.
//!
//! Every binary is one call to the artifact driver, [`artifact::run`]: it
//! skips what the checkpoint records, runs the rest, writes their files
//! ([`report`]), checkpoints each cell ([`checkpoint`]) and prints one
//! progress line per artifact. `run_all` passes [`artifact::PAPER`], all
//! seven in order, runs each GA grid once for its table and figure, and
//! also gets the cross-table `summary.{csv,jsonl}`.
//!
//! Every binary accepts `--quick` (reduced scale), `--seed <n>` (run seed),
//! `--threads <n>` (parallel experiment workers; results are identical for
//! every value), `--telemetry <dir>` (structured work-counter telemetry,
//! see [`telemetry`]), `--connectivity <mode>` (repair-strategy oracle
//! selection) and `--out <dir>` (default `results/`). See [`cli`] for the
//! full flag reference (the binaries read no environment variable), and
//! [`scenario::ScenarioScale`] for running beyond-paper instance sizes.
//!
//! ```bash
//! cargo run --release -p wmn-experiments --bin run_all
//! cargo run --release -p wmn-experiments --bin run_all -- --quick --threads 8
//! cargo run --release -p wmn-experiments --bin table1 -- --quick --threads 2
//! ```
//!
//! Experiment grids execute on the `wmn-runtime` worker pool; per-cell RNG
//! seeds are derived from grid coordinates, so output is bit-identical
//! regardless of thread count.
//!
//! The `wmn-report` binary (see [`analyze`]) reads the telemetry
//! artifacts back: `wmn-report flame <dir>` renders the counter-weighted
//! flamegraph, `wmn-report diff <baseline> <run>` powers the
//! `scripts/check_counters.sh` perf gate, and `wmn-report summarize`
//! digests a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod artifact;
pub mod ascii_plot;
pub mod checkpoint;
pub mod cli;
pub mod csv;
pub mod error;
pub mod figures;
pub mod json;
pub mod report;
pub mod scenario;
pub mod tables;
pub mod telemetry;

pub use error::ExperimentError;
pub use scenario::{ExperimentConfig, Scenario, ScenarioScale};

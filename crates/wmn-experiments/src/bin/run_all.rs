//! Regenerates every table and figure of the paper in one run, plus the
//! cross-scenario `summary.{csv,jsonl}`.
//!
//! ```bash
//! cargo run --release -p wmn-experiments --bin run_all             # paper scale
//! cargo run --release -p wmn-experiments --bin run_all -- --quick  # CI scale
//! cargo run --release -p wmn-experiments --bin run_all -- --quick --threads 8
//! ```
//!
//! Table N and Figure N report the same seven GA runs (as in the paper),
//! so `run_all` runs each scenario's GA grid once and writes both from it.
//!
//! # Parallelism & determinism
//!
//! Every artifact's grid cells (one per ad hoc method, or per movement for
//! Figure 4) execute on the `wmn-runtime` worker pool. `--threads <n>`
//! picks the worker count; the default `0` uses one worker per core. Because each cell's RNG seed is derived from its grid
//! coordinates (`wmn_model::rng::stream_seed`) and results are collected
//! by job index, **all outputs are byte-identical for every thread
//! count** — `--threads 8` only finishes sooner. Instance sizes beyond the
//! paper's 64/192/128×128 family are reachable via `--scale`
//! (`--scale-routers` / `--scale-clients` / `--scale-area`).
//!
//! With `--telemetry <dir>` the whole run's work-counter profile (the
//! three GA grids, each GA run counted once, and the search figure summed)
//! lands in one `telemetry.json` + `spans.jsonl` pair — also
//! byte-identical for every thread count, since the per-job recorders
//! merge in job-index order.
//!
//! # Checkpoint & resume
//!
//! Every run maintains `checkpoint.jsonl` in the output directory: one
//! line per completed cell (table1–3, fig1–4), written after that cell's
//! artifacts land on disk. Every binary runs through the same artifact
//! driver, so the single `table1`…`fig4` binaries can fill one directory
//! cell by cell and `run_all --resume` finishes it. `--resume <dir>` reloads it (validating that
//! the configuration fingerprint matches) and skips completed cells, so
//! an interrupted long run finishes the remaining work and produces a
//! byte-identical output directory. Thread counts are excluded from the
//! fingerprint — a run may be resumed with a different `--threads`.

use std::process::ExitCode;
use wmn_experiments::artifact::{self, PAPER};
use wmn_experiments::cli;

fn main() -> ExitCode {
    cli::run(|opts| artifact::run("run_all", &PAPER, opts))
}

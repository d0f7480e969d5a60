//! Reproduction of Tables 1–3, giant component and user coverage per ad
//! hoc method, standalone and as GA initializer, and of the GA runs that
//! Figures 1–3 plot.
//!
//! [`run_ga_grid`] runs one scenario's seven GAs once and returns both
//! views of them: Table N ([`TableResult`]) and Figure N ([`GaFigure`]).
//! Each method is one independent job of the experiment grid, executed on
//! [`ExperimentConfig::runtime`]'s worker pool. Per-cell RNG seeds are
//! derived from grid coordinates (`[domain, scenario, method]`, see
//! [`wmn_runtime::grid`]), so the grid is bit-identical for every worker
//! count.

use crate::error::ExperimentError;
use crate::figures::GaFigure;
use crate::scenario::{ExperimentConfig, Scenario};
use wmn_ga::engine::{GaConfig, GaEngine};
use wmn_ga::init::PopulationInit;
use wmn_metrics::evaluator::Evaluator;
use wmn_metrics::stats::Trace;
use wmn_model::ModelError;
use wmn_model::ProblemInstance;
use wmn_obs::{Recorder, RobustnessStats, TelemetryRecorder};
use wmn_placement::registry::AdHocMethod;
use wmn_runtime::grid::{domain, Cell};
use wmn_runtime::JobFailure;

/// One row of a paper table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRow {
    /// The ad hoc method.
    pub method: AdHocMethod,
    /// Giant component size of the GA best (ad hoc method initializing GA).
    pub giant_by_ga: usize,
    /// User coverage of the GA best.
    pub coverage_by_ga: usize,
    /// Giant component size of the standalone ad hoc placement.
    pub giant_standalone: usize,
    /// User coverage of the standalone ad hoc placement.
    pub coverage_standalone: usize,
}

/// A full reproduced table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableResult {
    /// The client-distribution scenario.
    pub scenario: Scenario,
    /// Routers in the evaluated instance (64 at paper scale; more under
    /// [`crate::scenario::ScenarioScale`]).
    pub router_count: usize,
    /// Clients in the evaluated instance (192 at paper scale).
    pub client_count: usize,
    /// One row per ad hoc method, in paper order.
    pub rows: Vec<TableRow>,
}

impl TableResult {
    /// The row for `method`, if present.
    pub fn row(&self, method: AdHocMethod) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.method == method)
    }

    /// The method with the largest GA giant component (the paper's winner —
    /// HotSpot on all three tables).
    pub fn best_ga_method(&self) -> Option<AdHocMethod> {
        self.rows
            .iter()
            .max_by_key(|r| (r.giant_by_ga, r.coverage_by_ga))
            .map(|r| r.method)
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| Method | Giant comp. by GA | Coverage by GA | Giant comp. (standalone) | Coverage (standalone) |\n|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                r.method.name(),
                r.giant_by_ga,
                r.coverage_by_ga,
                r.giant_standalone,
                r.coverage_standalone
            ));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<Vec<String>> = vec![vec![
            "method".to_owned(),
            "giant_by_ga".to_owned(),
            "coverage_by_ga".to_owned(),
            "giant_standalone".to_owned(),
            "coverage_standalone".to_owned(),
        ]];
        for r in &self.rows {
            rows.push(vec![
                r.method.name().to_owned(),
                r.giant_by_ga.to_string(),
                r.coverage_by_ga.to_string(),
                r.giant_standalone.to_string(),
                r.coverage_standalone.to_string(),
            ]);
        }
        crate::csv::render(&rows)
    }
}

/// The GA-run grid cell for `(scenario, method)`: its coordinates seed
/// the one GA run that both Table N's row and Figure N's curve report (as
/// in the paper), and its label names the run when it fails.
fn ga_cell(scenario: Scenario, method_index: usize, method: AdHocMethod) -> Cell {
    Cell::new(
        format!("ga-{}-{}", scenario.name(), method.name()),
        &[domain::GA, scenario.grid_id(), method_index as u64],
    )
}

/// The GA configuration of the grid's runs: the experiment knobs plus the
/// connectivity repair strategy.
fn experiment_ga_config(config: &ExperimentConfig) -> GaConfig {
    GaConfig::builder()
        .population_size(config.population)
        .generations(config.generations)
        .threads(config.threads)
        .eval_mode(config.connectivity)
        .build()
        .expect("experiment GA config is valid")
}

/// Maps a runtime [`JobFailure`] onto [`ExperimentError::Cell`], naming
/// the failed job's grid cell by its label.
pub(crate) fn cell_failure<E: std::fmt::Display>(
    cell: &Cell,
    failure: JobFailure<E>,
) -> ExperimentError {
    ExperimentError::Cell {
        cell: cell.label().to_owned(),
        attempts: failure.attempts,
        detail: failure.kind.to_string(),
    }
}

/// Reports the chaos profile of a finished batch on stderr — injected
/// faults, retries, recoveries. Silent (no output at all) when nothing
/// fired, which is every production run; stderr rather than any artifact
/// file, so faulty-but-recovered runs stay byte-identical to clean ones.
pub(crate) fn report_chaos(context: &str, stats: &RobustnessStats) {
    if stats.is_uneventful() {
        return;
    }
    let mut parts = Vec::new();
    stats.for_each(|name, value| {
        if value != 0 {
            parts.push(format!("{name}={value}"));
        }
    });
    eprintln!("chaos[{context}]: {}", parts.join(" "));
}

/// The seven GA runs of one scenario, one per ad hoc method. Table N and
/// Figure N are two views of the same runs, as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct GaGrid {
    /// Table N: each method standalone and as GA initializer.
    pub table: TableResult,
    /// Figure N: each method's GA evolution curve.
    pub figure: GaFigure,
}

/// One method's job of the grid: the standalone placement (paper scenario
/// 1), then a GA initialized from the method (paper scenario 2), returning
/// the table row and the GA's downsampled giant-component curve. The GA
/// runs on `ga_cell`'s seed and feeds `recorder`: the runtime hands each
/// attempt a no-op recorder (free) or a per-attempt telemetry recorder.
/// The standalone evaluation reports to no recorder.
#[allow(clippy::too_many_arguments)]
fn ga_grid_job(
    scenario: Scenario,
    config: &ExperimentConfig,
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
    ga_config: &GaConfig,
    method_index: usize,
    method: AdHocMethod,
    ga_cell: &Cell,
    recorder: &mut dyn Recorder,
) -> Result<(TableRow, Trace), ModelError> {
    let standalone_cell = Cell::new(
        format!("standalone-{}-{}", scenario.name(), method.name()),
        &[domain::STANDALONE, scenario.grid_id(), method_index as u64],
    );
    let mut standalone_rng = standalone_cell.rng(config.run_seed);
    let standalone = method.place(instance, &mut standalone_rng);
    let standalone_eval = evaluator.evaluate(&standalone)?;

    let mut ga_rng = ga_cell.rng(config.run_seed);
    let engine = GaEngine::new(evaluator, ga_config.clone());
    let outcome = engine.run(&PopulationInit::AdHoc(method), &mut ga_rng, recorder)?;

    let row = TableRow {
        method,
        giant_by_ga: outcome.best_evaluation.giant_size(),
        coverage_by_ga: outcome.best_evaluation.covered_clients(),
        giant_standalone: standalone_eval.giant_size(),
        coverage_standalone: standalone_eval.covered_clients(),
    };
    let curve = outcome
        .trace
        .giant_series(method.name())
        .downsampled(config.sample_every.max(1));
    Ok((row, curve))
}

/// Runs the GA grid of one scenario: for every ad hoc method, measure the
/// standalone placement and run a GA initialized from it. Table N and
/// Figure N are both read off the result ([`GaGrid`]). Method jobs run in
/// parallel on [`ExperimentConfig::runtime`]'s panic-isolated executor;
/// the grid is bit-identical for every worker count, and — under any
/// within-budget fault plan — byte-identical to a fault-free run (retried
/// cells re-derive the same coordinate seeds).
///
/// With a `recorder`, the GA runs' work-counter telemetry is collected
/// too. Each method job records into a private per-attempt recorder; only
/// succeeding attempts merge, in job-index order, so the aggregated
/// counters — like the grid itself — are byte-identical for every worker
/// count and any within-budget fault plan. The grid is the same with or
/// without a recorder.
///
/// # Errors
///
/// Propagates instance generation failures, and reports the
/// lowest-indexed grid cell that exhausted its retry budget
/// ([`ExperimentError::Cell`]).
pub fn run_ga_grid(
    scenario: Scenario,
    config: &ExperimentConfig,
    recorder: Option<&mut TelemetryRecorder>,
) -> Result<GaGrid, ExperimentError> {
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let ga_config = experiment_ga_config(config);

    let cells: Vec<(usize, AdHocMethod, Cell)> = AdHocMethod::all()
        .into_iter()
        .enumerate()
        .map(|(mi, method)| (mi, method, ga_cell(scenario, mi, method)))
        .collect();
    let mut stats = RobustnessStats::default();
    let runs = config
        .runtime()
        .run(
            cells.iter().collect(),
            &config.job_policy(),
            &mut stats,
            recorder,
            |(mi, method, cell), rec| {
                ga_grid_job(
                    scenario, config, &instance, &evaluator, &ga_config, *mi, *method, cell, rec,
                )
            },
        )
        .map_err(|f| cell_failure(&cells[f.index].2, f));
    report_chaos(&format!("ga-{}", scenario.name()), &stats);
    let (rows, series) = runs?.into_iter().unzip();
    Ok(GaGrid {
        table: TableResult {
            scenario,
            router_count: instance.router_count(),
            client_count: instance.client_count(),
            rows,
        },
        figure: GaFigure { scenario, series },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_table(scenario: Scenario) -> TableResult {
        run_ga_grid(scenario, &ExperimentConfig::quick(), None)
            .unwrap()
            .table
    }

    #[test]
    fn table_has_seven_rows_in_paper_order() {
        let t = quick_table(Scenario::Normal);
        let methods: Vec<&str> = t.rows.iter().map(|r| r.method.name()).collect();
        assert_eq!(
            methods,
            vec!["Random", "ColLeft", "Diag", "Cross", "Near", "Corners", "HotSpot"]
        );
    }

    #[test]
    fn ga_dominates_standalone() {
        // The paper's headline observation: the GA improves every ad hoc
        // method far above its standalone quality.
        let t = quick_table(Scenario::Normal);
        for r in &t.rows {
            assert!(
                r.giant_by_ga >= r.giant_standalone,
                "{}: GA {} < standalone {}",
                r.method.name(),
                r.giant_by_ga,
                r.giant_standalone
            );
        }
    }

    #[test]
    fn values_are_bounded() {
        let t = quick_table(Scenario::Weibull);
        for r in &t.rows {
            assert!(r.giant_by_ga <= 64 && r.giant_standalone <= 64);
            assert!(r.coverage_by_ga <= 192 && r.coverage_standalone <= 192);
        }
    }

    #[test]
    fn markdown_and_csv_render() {
        let t = quick_table(Scenario::Exponential);
        let md = t.to_markdown();
        assert!(md.contains("| HotSpot |"));
        assert_eq!(md.lines().count(), 2 + 7);
        let csv = t.to_csv();
        assert!(csv.starts_with("method,"));
        assert_eq!(csv.lines().count(), 1 + 7);
    }

    #[test]
    fn deterministic_per_config() {
        let a = quick_table(Scenario::Normal);
        let b = quick_table(Scenario::Normal);
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_table_matches_plain_and_collects_counters() {
        let config = ExperimentConfig::quick();
        let mut recorder = TelemetryRecorder::new();
        let recorded = run_ga_grid(Scenario::Normal, &config, Some(&mut recorder)).unwrap();
        assert_eq!(
            recorded,
            run_ga_grid(Scenario::Normal, &config, None).unwrap()
        );
        // Seven GA runs of `generations` each.
        assert_eq!(
            recorder.counters().get("ga.generations"),
            Some(&((7 * config.generations) as u64))
        );
        assert!(recorder.counters().contains_key("topology.batch_repairs"));
    }

    #[test]
    fn row_lookup_and_best() {
        let t = quick_table(Scenario::Normal);
        assert!(t.row(AdHocMethod::HotSpot).is_some());
        assert!(t.best_ga_method().is_some());
    }
}

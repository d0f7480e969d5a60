//! Reproduction of Tables 1–3: giant component and user coverage per ad
//! hoc method, standalone and as GA initializer.
//!
//! Each method's row is one independent job of the experiment grid,
//! executed on [`ExperimentConfig::runtime`]'s worker pool. Per-cell RNG
//! seeds are derived from grid coordinates (`[domain, scenario, method]`,
//! see [`wmn_runtime::grid`]), so the table is bit-identical for every
//! worker count.

use crate::error::ExperimentError;
use crate::scenario::{ExperimentConfig, Scenario};
use wmn_ga::engine::{GaConfig, GaEngine};
use wmn_ga::init::PopulationInit;
use wmn_metrics::evaluator::Evaluator;
use wmn_model::ModelError;
use wmn_model::ProblemInstance;
use wmn_obs::{NoopRecorder, Recorder, RobustnessStats, TelemetryRecorder};
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

/// The GA-run grid cell for `(scenario, method)` — shared with the figure
/// runner so that Figure N and Table N report the *same* GA runs (as in
/// the paper).
pub(crate) fn ga_cell(scenario: Scenario, method_index: usize, method: AdHocMethod) -> Cell {
    Cell::new(
        format!("ga-{}-{}", scenario.name(), method.name()),
        &[domain::GA, scenario.grid_id(), method_index as u64],
    )
}

/// The shared GA configuration of the table and figure runners: the
/// experiment knobs plus the connectivity oracle choice mapped onto the
/// evaluation pipeline.
pub(crate) fn experiment_ga_config(config: &ExperimentConfig) -> GaConfig {
    GaConfig::builder()
        .population_size(config.population)
        .generations(config.generations)
        .threads(config.threads)
        .eval_mode(config.ga_eval_mode())
        .build()
        .expect("experiment GA config is valid")
}

/// Maps a runtime [`JobFailure`] onto [`ExperimentError::Cell`], naming
/// the failed grid cell.
pub(crate) fn cell_failure<E: std::fmt::Display>(
    cell: String,
    failure: JobFailure<E>,
) -> ExperimentError {
    ExperimentError::Cell {
        cell,
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

/// The label of the GA grid cell for error reporting (`ga-normal-HotSpot`).
pub(crate) fn ga_cell_label(scenario: Scenario, index: usize) -> String {
    AdHocMethod::all().into_iter().nth(index).map_or_else(
        || format!("ga-{}-job{index}", scenario.name()),
        |m| format!("ga-{}-{}", scenario.name(), m.name()),
    )
}

/// One method's table row: the standalone placement (paper scenario 1) and
/// a GA initialized from the method (paper scenario 2). The GA run feeds
/// `recorder`; the caller picks [`NoopRecorder`] (free) or a per-job
/// telemetry recorder.
#[allow(clippy::too_many_arguments)]
fn table_row(
    scenario: Scenario,
    config: &ExperimentConfig,
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
    ga_config: &GaConfig,
    method_index: usize,
    method: AdHocMethod,
    recorder: &mut dyn Recorder,
) -> Result<TableRow, ModelError> {
    let standalone_cell = Cell::new(
        format!("standalone-{}-{}", scenario.name(), method.name()),
        &[domain::STANDALONE, scenario.grid_id(), method_index as u64],
    );
    let mut standalone_rng = standalone_cell.rng(config.run_seed);
    let standalone = method.heuristic().place(instance, &mut standalone_rng);
    let standalone_eval = evaluator.evaluate(&standalone)?;

    let mut ga_rng = ga_cell(scenario, method_index, method).rng(config.run_seed);
    let engine = GaEngine::new(evaluator, ga_config.clone());
    let outcome = engine.run_recorded(&PopulationInit::AdHoc(method), &mut ga_rng, recorder)?;

    Ok(TableRow {
        method,
        giant_by_ga: outcome.best_evaluation.giant_size(),
        coverage_by_ga: outcome.best_evaluation.covered_clients(),
        giant_standalone: standalone_eval.giant_size(),
        coverage_standalone: standalone_eval.covered_clients(),
    })
}

/// Runs one paper table: for every ad hoc method, measure the standalone
/// placement and a GA initialized from it. Method rows run in parallel on
/// [`ExperimentConfig::runtime`]'s panic-isolated executor; the result is
/// bit-identical for every worker count, and — under any within-budget
/// fault plan — byte-identical to a fault-free run (retried cells
/// re-derive the same coordinate seeds).
///
/// # Errors
///
/// Propagates instance generation failures, and reports the
/// lowest-indexed grid cell that exhausted its retry budget
/// ([`ExperimentError::Cell`]).
pub fn run_table(
    scenario: Scenario,
    config: &ExperimentConfig,
) -> Result<TableResult, ExperimentError> {
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let ga_config = experiment_ga_config(config);

    let jobs: Vec<(usize, AdHocMethod)> = AdHocMethod::all().into_iter().enumerate().collect();
    let mut stats = RobustnessStats::default();
    let rows = config
        .runtime()
        .try_execute_isolated(
            jobs,
            config.retry_policy(),
            config.fault_plan.as_ref(),
            &mut stats,
            |_, (mi, method)| {
                table_row(
                    scenario,
                    config,
                    &instance,
                    &evaluator,
                    &ga_config,
                    *mi,
                    *method,
                    &mut NoopRecorder,
                )
            },
        )
        .map_err(|f| cell_failure(ga_cell_label(scenario, f.index), f));
    let context = scenario
        .table_number()
        .map_or_else(|| format!("table-{scenario}"), |n| format!("table{n}"));
    report_chaos(&context, &stats);
    Ok(TableResult {
        scenario,
        router_count: instance.router_count(),
        client_count: instance.client_count(),
        rows: rows?,
    })
}

/// Like [`run_table`], additionally collecting the run's work-counter
/// telemetry into `recorder`. Each method row records into a private
/// per-attempt recorder; only succeeding attempts merge, in job-index
/// order, so the aggregated counters — like the table itself — are
/// byte-identical for every worker count and any within-budget fault
/// plan. The table values equal [`run_table`]'s exactly.
///
/// # Errors
///
/// Exactly as [`run_table`].
pub fn run_table_recorded(
    scenario: Scenario,
    config: &ExperimentConfig,
    recorder: &mut TelemetryRecorder,
) -> Result<TableResult, ExperimentError> {
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let ga_config = experiment_ga_config(config);

    let jobs: Vec<(usize, AdHocMethod)> = AdHocMethod::all().into_iter().enumerate().collect();
    let mut stats = RobustnessStats::default();
    let rows = config
        .runtime()
        .try_execute_isolated_recorded(
            jobs,
            config.retry_policy(),
            config.fault_plan.as_ref(),
            &mut stats,
            recorder,
            |_, (mi, method), rec| {
                table_row(
                    scenario, config, &instance, &evaluator, &ga_config, *mi, *method, rec,
                )
            },
        )
        .map_err(|f| cell_failure(ga_cell_label(scenario, f.index), f));
    let context = scenario
        .table_number()
        .map_or_else(|| format!("table-{scenario}"), |n| format!("table{n}"));
    report_chaos(&context, &stats);
    Ok(TableResult {
        scenario,
        router_count: instance.router_count(),
        client_count: instance.client_count(),
        rows: rows?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_table(scenario: Scenario) -> TableResult {
        run_table(scenario, &ExperimentConfig::quick()).unwrap()
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
        let recorded = run_table_recorded(Scenario::Normal, &config, &mut recorder).unwrap();
        assert_eq!(recorded, run_table(Scenario::Normal, &config).unwrap());
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

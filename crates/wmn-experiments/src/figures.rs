//! Reproduction of Figures 1–4.
//!
//! Figures 1–3: evolution of the giant component size over GA generations,
//! one curve per ad hoc initialization method, for the Normal, Exponential
//! and Weibull scenarios. Figure 4: evolution of the giant component over
//! neighborhood search phases, swap versus random movement, on the Normal
//! scenario.

use crate::error::ExperimentError;
use crate::scenario::{ExperimentConfig, Scenario};
use crate::tables::{cell_failure, experiment_ga_config, ga_cell, ga_cell_label, report_chaos};
use wmn_ga::engine::{GaConfig, GaEngine};
use wmn_ga::init::PopulationInit;
use wmn_metrics::evaluator::Evaluator;
use wmn_metrics::stats::Trace;
use wmn_model::instance::ProblemInstance;
use wmn_model::placement::Placement;
use wmn_model::ModelError;
use wmn_obs::{NoopRecorder, Recorder, RobustnessStats, TelemetryRecorder};
use wmn_placement::registry::AdHocMethod;
use wmn_runtime::grid::{domain, Cell};
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig, StoppingCondition};

/// A reproduced GA-evolution figure (Figures 1–3).
#[derive(Debug, Clone, PartialEq)]
pub struct GaFigure {
    /// The scenario (Normal → Figure 1, Exponential → 2, Weibull → 3).
    pub scenario: Scenario,
    /// One `(generation, giant size)` series per init method, downsampled
    /// to the configured stride.
    pub series: Vec<Trace>,
}

impl GaFigure {
    /// The paper figure number (`None` for Uniform).
    pub fn figure_number(&self) -> Option<usize> {
        self.scenario.table_number()
    }

    /// The series for a method, if present.
    pub fn series_for(&self, method: AdHocMethod) -> Option<&Trace> {
        self.series.iter().find(|t| t.name() == method.name())
    }

    /// The method whose curve ends highest (the paper: HotSpot).
    pub fn best_final_method(&self) -> Option<&str> {
        self.series
            .iter()
            .max_by(|a, b| {
                a.last_y()
                    .unwrap_or(f64::NEG_INFINITY)
                    .partial_cmp(&b.last_y().unwrap_or(f64::NEG_INFINITY))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|t| t.name())
    }
}

/// Runs one GA-evolution figure: one GA per ad hoc method, recording the
/// per-generation best giant component size. Method curves run on the
/// panic-isolated executor, so the figure — like the tables — is
/// byte-identical under any within-budget fault plan.
///
/// # Errors
///
/// Propagates instance generation failures, and reports the
/// lowest-indexed grid cell that exhausted its retry budget
/// ([`ExperimentError::Cell`]).
pub fn run_ga_figure(
    scenario: Scenario,
    config: &ExperimentConfig,
) -> Result<GaFigure, ExperimentError> {
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let ga_config = experiment_ga_config(config);

    let jobs: Vec<(usize, AdHocMethod)> = AdHocMethod::all().into_iter().enumerate().collect();
    let mut stats = RobustnessStats::default();
    let series = config
        .runtime()
        .try_execute_isolated(
            jobs,
            config.retry_policy(),
            config.fault_plan.as_ref(),
            &mut stats,
            |_, (mi, method)| {
                ga_figure_job(
                    scenario,
                    config,
                    &evaluator,
                    &ga_config,
                    *mi,
                    *method,
                    &mut NoopRecorder,
                )
            },
        )
        .map_err(|f| cell_failure(ga_cell_label(scenario, f.index), f));
    report_chaos(&ga_figure_context(scenario), &stats);
    Ok(GaFigure {
        scenario,
        series: series?,
    })
}

/// The chaos-report context of a GA figure run.
fn ga_figure_context(scenario: Scenario) -> String {
    scenario
        .table_number()
        .map_or_else(|| format!("fig-{scenario}"), |n| format!("fig{n}"))
}

/// Like [`run_ga_figure`], additionally collecting the run's work-counter
/// telemetry into `recorder`. Per-attempt recorders merge in job-index
/// order, succeeding attempts only (see `wmn-runtime`), so the aggregated
/// counters are byte-identical for every worker count and any
/// within-budget fault plan; the figure itself equals
/// [`run_ga_figure`]'s exactly.
///
/// # Errors
///
/// Exactly as [`run_ga_figure`].
pub fn run_ga_figure_recorded(
    scenario: Scenario,
    config: &ExperimentConfig,
    recorder: &mut TelemetryRecorder,
) -> Result<GaFigure, ExperimentError> {
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let ga_config = experiment_ga_config(config);

    let jobs: Vec<(usize, AdHocMethod)> = AdHocMethod::all().into_iter().enumerate().collect();
    let mut stats = RobustnessStats::default();
    let series = config
        .runtime()
        .try_execute_isolated_recorded(
            jobs,
            config.retry_policy(),
            config.fault_plan.as_ref(),
            &mut stats,
            recorder,
            |_, (mi, method), rec| {
                ga_figure_job(scenario, config, &evaluator, &ga_config, *mi, *method, rec)
            },
        )
        .map_err(|f| cell_failure(ga_cell_label(scenario, f.index), f));
    report_chaos(&ga_figure_context(scenario), &stats);
    Ok(GaFigure {
        scenario,
        series: series?,
    })
}

/// One figure curve: the GA run for one ad hoc method, on the same grid
/// cell as the tables, so Figure N and Table N report the same runs (as in
/// the paper).
fn ga_figure_job(
    scenario: Scenario,
    config: &ExperimentConfig,
    evaluator: &Evaluator<'_>,
    ga_config: &GaConfig,
    method_index: usize,
    method: AdHocMethod,
    recorder: &mut dyn Recorder,
) -> Result<Trace, ModelError> {
    let mut rng = ga_cell(scenario, method_index, method).rng(config.run_seed);
    let engine = GaEngine::new(evaluator, ga_config.clone());
    let outcome = engine.run_recorded(&PopulationInit::AdHoc(method), &mut rng, recorder)?;
    Ok(outcome
        .trace
        .giant_series(method.name())
        .downsampled(config.sample_every.max(1)))
}

/// A reproduced Figure 4: neighborhood search evolution, swap vs random.
#[derive(Debug, Clone, PartialEq)]
pub struct NsFigure {
    /// `(phase, giant size)` for the swap movement.
    pub swap: Trace,
    /// `(phase, giant size)` for the random movement.
    pub random: Trace,
}

impl NsFigure {
    /// Both series, swap first (legend order of the paper's Figure 4).
    pub fn series(&self) -> [&Trace; 2] {
        [&self.swap, &self.random]
    }
}

/// Runs Figure 4: neighborhood search with swap and random movements from
/// the same random initial placement on the Normal scenario.
///
/// # Errors
///
/// Propagates instance generation and evaluation failures (none occur for
/// the built-in configuration).
pub fn run_ns_figure(config: &ExperimentConfig) -> Result<NsFigure, ExperimentError> {
    let scenario = Scenario::Normal;
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let initial = ns_initial_placement(config, scenario, &instance);

    // Swap and random are the two cells of the Figure 4 grid; they run in
    // parallel on the experiment runtime's panic-isolated executor.
    let jobs: Vec<(u64, &str)> = vec![(0, "Swap"), (1, "Random")];
    let mut stats = RobustnessStats::default();
    let traces = config
        .runtime()
        .try_execute_isolated(
            jobs,
            config.retry_policy(),
            config.fault_plan.as_ref(),
            &mut stats,
            |_, (movement_id, label)| {
                ns_job(
                    scenario,
                    config,
                    &instance,
                    &evaluator,
                    &initial,
                    *movement_id,
                    label,
                    &mut NoopRecorder,
                )
            },
        )
        .map_err(|f| cell_failure(ns_cell_label(f.index), f));
    report_chaos("fig4", &stats);
    let mut traces = traces?.into_iter();
    let (swap, random) = (
        traces.next().expect("swap trace"),
        traces.next().expect("random trace"),
    );
    Ok(NsFigure { swap, random })
}

/// The label of a Figure 4 grid cell for error reporting.
fn ns_cell_label(index: usize) -> String {
    match index {
        0 => "ns-Swap".to_owned(),
        _ => "ns-Random".to_owned(),
    }
}

/// Like [`run_ns_figure`], additionally collecting the searches'
/// work-counter telemetry (`search.ns.*` plus the engine deltas) into
/// `recorder`; the figure itself equals [`run_ns_figure`]'s exactly.
///
/// # Errors
///
/// Propagates instance generation and evaluation failures, exactly as
/// [`run_ns_figure`].
pub fn run_ns_figure_recorded(
    config: &ExperimentConfig,
    recorder: &mut TelemetryRecorder,
) -> Result<NsFigure, ExperimentError> {
    let scenario = Scenario::Normal;
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let initial = ns_initial_placement(config, scenario, &instance);

    let jobs: Vec<(u64, &str)> = vec![(0, "Swap"), (1, "Random")];
    let mut stats = RobustnessStats::default();
    let traces = config
        .runtime()
        .try_execute_isolated_recorded(
            jobs,
            config.retry_policy(),
            config.fault_plan.as_ref(),
            &mut stats,
            recorder,
            |_, (movement_id, label), rec| {
                ns_job(
                    scenario,
                    config,
                    &instance,
                    &evaluator,
                    &initial,
                    *movement_id,
                    label,
                    rec,
                )
            },
        )
        .map_err(|f| cell_failure(ns_cell_label(f.index), f));
    report_chaos("fig4", &stats);
    let mut traces = traces?.into_iter();
    let (swap, random) = (
        traces.next().expect("swap trace"),
        traces.next().expect("random trace"),
    );
    Ok(NsFigure { swap, random })
}

/// The shared random starting point of both Figure 4 searches ("client
/// mesh routers distributed according to a normal distribution" — the
/// initial router placement is random).
fn ns_initial_placement(
    config: &ExperimentConfig,
    scenario: Scenario,
    instance: &ProblemInstance,
) -> Placement {
    let init_cell = Cell::new("ns-initial", &[domain::INITIAL, scenario.grid_id(), 0]);
    let mut init_rng = init_cell.rng(config.run_seed);
    instance.random_placement(&mut init_rng)
}

/// One Figure 4 curve: a neighborhood search with the given movement over
/// a topology pinned to the configured connectivity strategy.
#[allow(clippy::too_many_arguments)]
fn ns_job(
    scenario: Scenario,
    config: &ExperimentConfig,
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
    initial: &Placement,
    movement_id: u64,
    label: &str,
    recorder: &mut dyn Recorder,
) -> Result<Trace, ModelError> {
    let search_config = SearchConfig {
        budget: ExplorationBudget::sampled(config.ns_budget),
        stopping: StoppingCondition::fixed_phases(config.ns_phases),
    };
    let movement: Box<dyn Movement> = match movement_id {
        0 => Box::new(SwapMovement::new(instance, SwapConfig::default())),
        _ => Box::new(RandomMovement::new(instance)),
    };
    let cell = Cell::new(
        format!("ns-{label}"),
        &[domain::NEIGHBORHOOD, scenario.grid_id(), movement_id],
    );
    let mut rng = cell.rng(config.run_seed);
    let search = NeighborhoodSearch::new(evaluator, movement, search_config);
    let mut topo = evaluator.topology(initial)?;
    topo.set_connectivity_mode(config.connectivity);
    let outcome = search.run_with_topology_recorded(&mut topo, &mut rng, recorder);
    Ok(outcome.trace.giant_series(label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ga_figure_has_one_series_per_method() {
        let fig = run_ga_figure(Scenario::Normal, &ExperimentConfig::quick()).unwrap();
        assert_eq!(fig.series.len(), 7);
        assert_eq!(fig.figure_number(), Some(1));
        for t in &fig.series {
            assert!(!t.is_empty());
            // Downsampling keeps the final generation.
            assert_eq!(
                t.points().last().unwrap().0,
                ExperimentConfig::quick().generations as f64
            );
        }
        assert!(fig.series_for(AdHocMethod::HotSpot).is_some());
    }

    #[test]
    fn ga_curves_are_monotone_nondecreasing() {
        // Elitism means the best-of-generation giant size never regresses
        // in fitness; the giant component of the best individual may wiggle
        // slightly (fitness mixes coverage), so allow small dips.
        let fig = run_ga_figure(Scenario::Normal, &ExperimentConfig::quick()).unwrap();
        for t in &fig.series {
            let first = t.points().first().unwrap().1;
            let last = t.points().last().unwrap().1;
            assert!(
                last >= first,
                "{}: giant fell from {first} to {last}",
                t.name()
            );
        }
    }

    #[test]
    fn ns_figure_swap_beats_random() {
        // The paper's Figure 4 claim: swap reaches a higher giant component
        // within the phase budget.
        let fig = run_ns_figure(&ExperimentConfig::quick()).unwrap();
        assert_eq!(fig.swap.len(), ExperimentConfig::quick().ns_phases);
        let swap_final = fig.swap.last_y().unwrap();
        let random_final = fig.random.last_y().unwrap();
        assert!(
            swap_final >= random_final,
            "swap ({swap_final}) must not lose to random ({random_final})"
        );
    }

    #[test]
    fn ns_series_start_from_the_same_value() {
        let fig = run_ns_figure(&ExperimentConfig::quick()).unwrap();
        // Phase 1 values may already differ (one accepted move), but both
        // searches share the same initial placement, so the first recorded
        // giant size can differ by at most what one move can change; sanity
        // bound: within 16.
        let s0 = fig.swap.points()[0].1;
        let r0 = fig.random.points()[0].1;
        assert!((s0 - r0).abs() <= 16.0);
    }

    #[test]
    fn deterministic_per_config() {
        let a = run_ns_figure(&ExperimentConfig::quick()).unwrap();
        let b = run_ns_figure(&ExperimentConfig::quick()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_figures_match_plain_and_collect_counters() {
        let config = ExperimentConfig::quick();
        let mut recorder = TelemetryRecorder::new();
        let ga = run_ga_figure_recorded(Scenario::Normal, &config, &mut recorder).unwrap();
        assert_eq!(ga, run_ga_figure(Scenario::Normal, &config).unwrap());
        assert_eq!(
            recorder.counters().get("ga.generations"),
            Some(&((7 * config.generations) as u64))
        );

        let mut ns_recorder = TelemetryRecorder::new();
        let ns = run_ns_figure_recorded(&config, &mut ns_recorder).unwrap();
        assert_eq!(ns, run_ns_figure(&config).unwrap());
        // Two searches of `ns_phases` each.
        assert_eq!(
            ns_recorder.counters().get("search.ns.phases"),
            Some(&((2 * config.ns_phases) as u64))
        );
    }
}

//! Reproduction of Figures 1–4.
//!
//! Figures 1–3: evolution of the giant component size over GA generations,
//! one curve per ad hoc initialization method, for the Normal, Exponential
//! and Weibull scenarios. They are the figure view of the GA grid that
//! [`run_ga_grid`] runs once per scenario for Table N and Figure N alike.
//! Figure 4: evolution of the giant component over neighborhood search
//! phases, swap versus random movement, on the Normal scenario.

use crate::error::ExperimentError;
use crate::scenario::{ExperimentConfig, Scenario};
use crate::tables::{cell_failure, report_chaos, run_ga_grid};
use wmn_metrics::evaluator::Evaluator;
use wmn_metrics::stats::Trace;
use wmn_model::instance::ProblemInstance;
use wmn_model::placement::Placement;
use wmn_model::ModelError;
use wmn_obs::{Recorder, RobustnessStats, TelemetryRecorder};
use wmn_runtime::grid::{domain, Cell};
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::ExplorationBudget;
use wmn_search::search::{NeighborhoodSearch, SearchConfig};

/// A reproduced GA-evolution figure (Figures 1–3).
#[derive(Debug, Clone, PartialEq)]
pub struct GaFigure {
    /// The scenario (Normal → Figure 1, Exponential → 2, Weibull → 3).
    pub scenario: Scenario,
    /// One `(generation, giant size)` series per init method, in paper
    /// order, downsampled to the configured stride.
    pub series: Vec<Trace>,
}

impl GaFigure {
    /// The paper figure number.
    pub fn figure_number(&self) -> usize {
        self.scenario.table_number()
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

/// Runs one GA-evolution figure: the figure view of [`run_ga_grid`], which
/// runs one GA per ad hoc method and records its per-generation best giant
/// component size.
///
/// # Errors
///
/// Exactly as [`run_ga_grid`].
pub fn run_ga_figure(
    scenario: Scenario,
    config: &ExperimentConfig,
) -> Result<GaFigure, ExperimentError> {
    run_ga_grid(scenario, config, None).map(|grid| grid.figure)
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
    run_ns_figure_recorded(config, None)
}

/// [`run_ns_figure`], additionally collecting the searches' work-counter
/// telemetry (`search.ns.*` plus the engine deltas) into `recorder` when
/// one is given; the figure itself is the same with or without a
/// recorder.
///
/// # Errors
///
/// Exactly as [`run_ns_figure`].
pub fn run_ns_figure_recorded(
    config: &ExperimentConfig,
    recorder: Option<&mut TelemetryRecorder>,
) -> Result<NsFigure, ExperimentError> {
    let scenario = Scenario::Normal;
    let instance = config.instance(scenario)?;
    let evaluator = Evaluator::paper_default(&instance);
    let initial = ns_initial_placement(config, scenario, &instance);

    // Swap and random are the two cells of the Figure 4 grid; they run in
    // parallel on the experiment runtime's panic-isolated executor.
    let cells: Vec<(u64, &str, Cell)> = [(0, "Swap"), (1, "Random")]
        .into_iter()
        .map(|(movement_id, label)| {
            let coords = [domain::NEIGHBORHOOD, scenario.grid_id(), movement_id];
            let cell = Cell::new(format!("ns-{label}"), &coords);
            (movement_id, label, cell)
        })
        .collect();
    let mut stats = RobustnessStats::default();
    let traces = config
        .runtime()
        .run(
            cells.iter().collect(),
            &config.job_policy(),
            &mut stats,
            recorder,
            |(movement_id, label, cell), rec| {
                ns_job(
                    config,
                    &instance,
                    &evaluator,
                    &initial,
                    *movement_id,
                    label,
                    cell,
                    rec,
                )
            },
        )
        .map_err(|f| cell_failure(&cells[f.index].2, f));
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
/// a topology pinned to the configured connectivity strategy, seeded by
/// its grid `cell`.
#[allow(clippy::too_many_arguments)]
fn ns_job(
    config: &ExperimentConfig,
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
    initial: &Placement,
    movement_id: u64,
    label: &str,
    cell: &Cell,
    recorder: &mut dyn Recorder,
) -> Result<Trace, ModelError> {
    let search_config = SearchConfig {
        budget: ExplorationBudget::sampled(config.ns_budget),
        phases: config.ns_phases,
    };
    let movement: Box<dyn Movement> = match movement_id {
        0 => Box::new(SwapMovement::new(instance, SwapConfig::default())),
        _ => Box::new(RandomMovement::new(instance)),
    };
    let mut rng = cell.rng(config.run_seed);
    let search = NeighborhoodSearch::new(evaluator, movement, search_config);
    let mut topo = evaluator.topology(initial)?;
    topo.set_connectivity_mode(config.connectivity);
    let outcome = search.run(&mut topo, &mut rng, recorder);
    Ok(outcome.trace.giant_series(label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_placement::registry::AdHocMethod;

    #[test]
    fn ga_figure_has_one_series_per_method() {
        let fig = run_ga_figure(Scenario::Normal, &ExperimentConfig::quick()).unwrap();
        assert_eq!(fig.series.len(), 7);
        assert_eq!(fig.figure_number(), 1);
        for t in &fig.series {
            assert!(!t.is_empty());
            // Downsampling keeps the final generation.
            assert_eq!(
                t.points().last().unwrap().0,
                ExperimentConfig::quick().generations as f64
            );
        }
        assert!(fig
            .series
            .iter()
            .any(|t| t.name() == AdHocMethod::HotSpot.name()));
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
        let grid = run_ga_grid(Scenario::Normal, &config, Some(&mut recorder)).unwrap();
        assert_eq!(
            grid.figure,
            run_ga_figure(Scenario::Normal, &config).unwrap()
        );
        assert_eq!(
            recorder.counters().get("ga.generations"),
            Some(&((7 * config.generations) as u64))
        );

        let mut ns_recorder = TelemetryRecorder::new();
        let ns = run_ns_figure_recorded(&config, Some(&mut ns_recorder)).unwrap();
        assert_eq!(ns, run_ns_figure(&config).unwrap());
        // Two searches of `ns_phases` each.
        assert_eq!(
            ns_recorder.counters().get("search.ns.phases"),
            Some(&((2 * config.ns_phases) as u64))
        );
    }
}

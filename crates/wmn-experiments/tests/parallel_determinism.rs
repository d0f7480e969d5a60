//! The PR's acceptance contract: the parallel runner with 1, 2, and 8
//! worker threads produces identical `Table`/figure structs — and
//! byte-identical rendered artifacts — to a direct serial call, at
//! `--quick` grid scale; and the scenario-scaling escape hatch produces
//! larger-than-paper instances on the same engine.

use wmn_experiments::figures::{run_ga_figure, run_ns_figure};
use wmn_experiments::scenario::{ExperimentConfig, Scenario, ScenarioScale};
use wmn_experiments::tables::{run_ga_grid, TableResult};

fn config_with_threads(threads: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.runner_threads = threads;
    config
}

/// The table view of `scenario`'s GA grid.
fn grid_table(scenario: Scenario, config: &ExperimentConfig) -> TableResult {
    run_ga_grid(scenario, config, None).unwrap().table
}

#[test]
fn run_table_is_identical_for_1_2_and_8_threads() {
    for scenario in [Scenario::Normal, Scenario::Exponential, Scenario::Weibull] {
        let serial = grid_table(scenario, &config_with_threads(1));
        for threads in [2, 8] {
            let parallel = grid_table(scenario, &config_with_threads(threads));
            assert_eq!(parallel, serial, "{scenario} with {threads} threads");
            // Struct equality is necessary; rendered artifacts must be
            // byte-identical too.
            assert_eq!(parallel.to_csv(), serial.to_csv());
            assert_eq!(parallel.to_markdown(), serial.to_markdown());
        }
    }
}

#[test]
fn run_ga_figure_is_identical_for_1_2_and_8_threads() {
    let serial = run_ga_figure(Scenario::Normal, &config_with_threads(1)).unwrap();
    for threads in [2, 8] {
        let parallel = run_ga_figure(Scenario::Normal, &config_with_threads(threads)).unwrap();
        assert_eq!(parallel, serial, "{threads} threads");
    }
}

#[test]
fn run_ns_figure_is_identical_for_1_2_and_8_threads() {
    let serial = run_ns_figure(&config_with_threads(1)).unwrap();
    for threads in [2, 8] {
        let parallel = run_ns_figure(&config_with_threads(threads)).unwrap();
        assert_eq!(parallel, serial, "{threads} threads");
    }
}

#[test]
fn auto_thread_count_matches_serial() {
    // runner_threads = 0 resolves to available parallelism; output must
    // still match the serial reference bit for bit.
    let serial = grid_table(Scenario::Exponential, &config_with_threads(1));
    let auto = grid_table(Scenario::Exponential, &config_with_threads(0));
    assert_eq!(auto, serial);
}

#[test]
fn table_and_figure_report_the_same_ga_runs() {
    // The paper's invariant, held by construction: Table N and Figure N
    // are two views of one grid, so Figure N's final giant size per method
    // equals Table N's giant_by_ga.
    let grid = run_ga_grid(Scenario::Normal, &config_with_threads(2), None).unwrap();
    let (table, figure) = (&grid.table, &grid.figure);
    assert_eq!(figure.series.len(), table.rows.len());
    for row in &table.rows {
        let trace = figure
            .series
            .iter()
            .find(|t| t.name() == row.method.name())
            .unwrap();
        assert_eq!(
            trace.last_y().unwrap() as usize,
            row.giant_by_ga,
            "{} diverged between table and figure",
            row.method.name()
        );
    }
}

#[test]
fn scaled_scenarios_run_on_the_parallel_engine() {
    // A 2x-proportional paper instance (128 routers, 384 clients) at a tiny
    // search budget: the runtime must handle beyond-paper scales and stay
    // deterministic across thread counts.
    let mut config = ExperimentConfig::quick();
    config.population = 8;
    config.generations = 4;
    config.scale = ScenarioScale::proportional(2);

    let instance = config.instance(Scenario::Normal).unwrap();
    assert_eq!(instance.router_count(), 128);
    assert_eq!(instance.client_count(), 384);

    config.runner_threads = 1;
    let serial = grid_table(Scenario::Normal, &config);
    config.runner_threads = 4;
    let parallel = grid_table(Scenario::Normal, &config);
    assert_eq!(parallel, serial);
    for row in &serial.rows {
        assert!(row.giant_by_ga <= 128);
        assert!(row.coverage_by_ga <= 384);
    }
}

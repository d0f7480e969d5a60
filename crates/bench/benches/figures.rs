//! One benchmark per paper figure, plus the per-unit costs that dominate
//! them: a GA generation (Figures 1–3) and a neighborhood-search phase for
//! each movement (Figure 4), both at the paper's instance scale.

use criterion::{criterion_group, criterion_main, Criterion};
use wmn_experiments::figures::{run_ga_figure, run_ns_figure};
use wmn_experiments::scenario::{ExperimentConfig, Scenario};
use wmn_ga::engine::{GaConfig, GaEngine};
use wmn_ga::init::PopulationInit;
use wmn_ga::prelude::NoopRecorder;
use wmn_metrics::Evaluator;
use wmn_model::instance::InstanceSpec;
use wmn_model::rng::rng_from_seed;
use wmn_placement::registry::AdHocMethod;
use wmn_search::movement::{Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::{best_neighbor, ExplorationBudget};

fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        population: 8,
        generations: 5,
        threads: 1,
        ns_phases: 10,
        ns_budget: 8,
        ..ExperimentConfig::quick()
    }
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for scenario in Scenario::paper_tables() {
        let n = scenario.table_number().expect("paper scenario");
        group.bench_function(format!("fig{n}_{scenario}"), |b| {
            b.iter(|| run_ga_figure(scenario, &bench_config()).expect("figure runs"));
        });
    }
    group.bench_function("fig4_ns_swap_vs_random", |b| {
        b.iter(|| run_ns_figure(&bench_config()).expect("figure runs"));
    });
    group.finish();
}

fn bench_units(c: &mut Criterion) {
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(1)
        .expect("generates");
    let evaluator = Evaluator::paper_default(&instance);

    // One full GA generation at paper scale (population 64).
    c.bench_function("ga_generation_pop64", |b| {
        let config = GaConfig::builder()
            .population_size(64)
            .generations(1)
            .build()
            .expect("valid config");
        let engine = GaEngine::new(&evaluator, config);
        b.iter(|| {
            engine
                .run(
                    &PopulationInit::AdHoc(AdHocMethod::HotSpot),
                    &mut rng_from_seed(2),
                    &mut NoopRecorder,
                )
                .expect("ga runs")
        });
    });

    // One neighborhood-search phase (16 evaluated neighbors) per movement.
    let placement = instance.random_placement(&mut rng_from_seed(3));
    let swap = SwapMovement::new(&instance, SwapConfig::default());
    let random = RandomMovement::new(&instance);
    let movements: [(&str, &dyn Movement); 2] = [("swap", &swap), ("random", &random)];
    for (name, movement) in movements {
        c.bench_function(&format!("ns_phase_{name}_budget16"), |b| {
            let mut topo = evaluator.topology(&placement).expect("builds");
            let mut rng = rng_from_seed(4);
            b.iter(|| {
                best_neighbor(
                    &mut topo,
                    &evaluator,
                    movement,
                    ExplorationBudget::sampled(16),
                    &mut rng,
                )
            });
        });
    }
}

criterion_group!(benches, bench_figures, bench_units);
criterion_main!(benches);

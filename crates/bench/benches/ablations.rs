//! Ablation benchmarks for the engine's design choices: each pits the
//! chosen implementation against its reference alternative.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, RngCore};
use wmn_experiments::{Scenario, ScenarioScale};
use wmn_ga::chromosome::Individual;
use wmn_ga::parallel::evaluate_population;
use wmn_ga::population::Population;
use wmn_graph::adjacency::{LinkModel, MeshAdjacency};
use wmn_graph::components::Components;
use wmn_graph::density::{CellWindow, DensityMap};
use wmn_graph::spatial::GridIndex;
use wmn_graph::topology::{ConnectivityMode, WmnTopology};
use wmn_metrics::Evaluator;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::InstanceSpec;
use wmn_model::rng::rng_from_seed;
use wmn_model::RouterId;

fn random_layout(area: &Area, n: usize, seed: u64) -> (Vec<Point>, Vec<f64>) {
    let mut rng = rng_from_seed(seed);
    let pts = (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(0.0..=area.width()),
                rng.gen_range(0.0..=area.height()),
            )
        })
        .collect();
    let radii = (0..n).map(|_| rng.gen_range(2.0..=8.0)).collect();
    (pts, radii)
}

/// Uniform-grid spatial index vs brute-force O(n²) adjacency construction.
fn ablation_spatial_index(c: &mut Criterion) {
    let area = Area::square(256.0).expect("valid area");
    let mut group = c.benchmark_group("ablation_spatial_index");
    for n in [64usize, 512] {
        let (pts, radii) = random_layout(&area, n, 1);
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| MeshAdjacency::build(&area, &pts, &radii, LinkModel::MutualRange));
        });
        group.bench_with_input(BenchmarkId::new("brute_force", n), &n, |b, _| {
            b.iter(|| MeshAdjacency::build_brute_force(&pts, &radii, LinkModel::MutualRange));
        });
    }
    group.finish();
}

/// Incremental topology repair after a single move vs a full rebuild.
fn ablation_incremental(c: &mut Criterion) {
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(2)
        .expect("generates");
    let evaluator = Evaluator::paper_default(&instance);
    let placement = instance.random_placement(&mut rng_from_seed(3));
    let mut group = c.benchmark_group("ablation_incremental_move");
    group.bench_function("incremental", |b| {
        let mut topo = evaluator.topology(&placement).expect("builds");
        let mut rng = rng_from_seed(4);
        b.iter(|| {
            let id = wmn_model::RouterId(rng.gen_range(0..64));
            let to = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            topo.move_router(id, to)
        });
    });
    group.bench_function("full_rebuild", |b| {
        let mut topo = evaluator.topology(&placement).expect("builds");
        let mut rng = rng_from_seed(4);
        b.iter(|| {
            let id = wmn_model::RouterId(rng.gen_range(0..64));
            let to = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            let old = topo.move_router(id, to);
            topo.rebuild_full();
            old
        });
    });
    group.finish();
}

/// The neighborhood-search inner loop — 1000 iterations of
/// `propose → apply → evaluate → undo` — with the incremental
/// delta-evaluation engine vs the full-rebuild reference
/// (`ConnectivityMode::FullRebuild`). Identical RNG streams and identical results
/// (pinned by the `incremental_equivalence` test suite); only the repair
/// strategy differs. Run at paper scale (64 routers / 192 clients) and at
/// `--scale 4` (256 routers / 768 clients, proportional area).
fn ablation_move_eval(c: &mut Criterion) {
    /// A hill-climb-shaped inner loop: relocate a random router, evaluate,
    /// undo by moving it back. 1000 moves ⇒ 2000 `move_router` calls.
    fn thousand_moves(
        topo: &mut WmnTopology,
        evaluator: &Evaluator<'_>,
        rng: &mut dyn RngCore,
        side: f64,
    ) -> f64 {
        let n = topo.router_count();
        let mut acc = 0.0;
        for _ in 0..1000 {
            let id = RouterId(rng.gen_range(0..n));
            let to = Point::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side));
            let old = topo.move_router(id, to);
            acc += evaluator.evaluate_topology(topo).fitness;
            let _ = topo.move_router(id, old);
        }
        acc
    }

    let mut group = c.benchmark_group("ablation_move_eval");
    group.sample_size(10);
    for (label, factor) in [("paper", 1u32), ("scale4", 4u32)] {
        let instance = Scenario::Normal
            .scaled_spec(ScenarioScale::proportional(factor))
            .expect("valid scaled spec")
            .generate(2)
            .expect("generates");
        let evaluator = Evaluator::paper_default(&instance);
        let placement = instance.random_placement(&mut rng_from_seed(3));
        let side = instance.area().width();
        for (mode_label, mode) in [
            ("incremental", ConnectivityMode::Dynamic),
            ("rebuild", ConnectivityMode::FullRebuild),
        ] {
            group.bench_function(BenchmarkId::new(mode_label, label), |b| {
                let mut topo = evaluator.topology(&placement).expect("builds");
                topo.set_connectivity_mode(mode);
                let mut rng = rng_from_seed(4);
                b.iter(|| thousand_moves(&mut topo, &evaluator, &mut rng, side));
            });
        }
    }
    group.finish();
}

/// One generation of GA child evaluation — the population-eval hot loop of
/// the topology-backed GA — through the three pipelines:
///
/// * `incremental` — each child adopts its lineage parent's live topology
///   (buffer-reusing state copy) and repairs the placement diff through
///   `WmnTopology::apply_moves` (`GaEvalMode::Incremental`);
/// * `rebuild` — each child's topology is fully rebuilt in place through a
///   persistent workspace (`GaEvalMode::Rebuild`, the engine's reference
///   baseline);
/// * `scratch` — each child allocates and builds a fresh topology
///   (`Evaluator::evaluate` — the "Chromosome → fresh topology → scratch
///   evaluate" pipeline the topology-backed GA replaces).
///
/// Two child mixes, both real `GaEngine::reproduce` generations from a
/// 40-generation-evolved HotSpot-seeded population: `generation` uses the
/// paper operator mix (crossover 0.8 + mutation stack; diffs span the
/// recombined genes), `mutation` uses a mutation-only mix (crossover 0 —
/// the steady-state/memetic regime where every child is a parent plus a
/// handful of move deltas, which is where the incremental engine's
/// advantage is largest). Identical children and identical results in
/// every pipeline (pinned by the `incremental_equivalence` suite); only
/// the evaluation strategy differs. Run at paper scale and `--scale 4`.
fn ablation_ga_eval(c: &mut Criterion) {
    use wmn_ga::engine::{GaConfig, GaEngine};
    use wmn_ga::init::PopulationInit;
    use wmn_ga::parallel::{evaluate_generation, evaluate_initial, evaluate_population_with};
    use wmn_ga::population::Population;
    use wmn_metrics::evaluator::EvalWorkspace;
    use wmn_placement::registry::AdHocMethod;

    /// Re-stales exactly the children that were unevaluated after
    /// reproduction (elites keep their cache, as in the real engine loop).
    fn invalidate(kids: &mut Population, stale: &[bool]) {
        for (ind, &s) in kids.individuals_mut().iter_mut().zip(stale) {
            if s {
                let _ = ind.placement_mut(); // clears the evaluation cache
            }
        }
    }

    let mut group = c.benchmark_group("ablation_ga_eval");
    group.sample_size(30);
    for (scale_label, factor) in [("paper", 1u32), ("scale4", 4u32)] {
        let instance = Scenario::Normal
            .scaled_spec(ScenarioScale::proportional(factor))
            .expect("valid scaled spec")
            .generate(2)
            .expect("generates");
        let evaluator = Evaluator::paper_default(&instance);
        for (mix, crossover_rate) in [("generation", 0.8), ("mutation", 0.0)] {
            let config = GaConfig::builder()
                .population_size(64)
                .generations(40)
                .crossover_rate(crossover_rate)
                .build()
                .expect("valid config");
            let engine = GaEngine::new(&evaluator, config);
            // Evolve the parent population first: mid-run generations (not
            // the diverse ad hoc seed) are what the 800-generation figures
            // spend their time on.
            let mut rng = rng_from_seed(3);
            let mut parents = engine
                .run(&PopulationInit::AdHoc(AdHocMethod::HotSpot), &mut rng)
                .expect("runs")
                .final_population;
            let mut parent_slots: Vec<EvalWorkspace> = Vec::new();
            parent_slots.resize_with(parents.len(), EvalWorkspace::new);
            evaluate_initial(&evaluator, &mut parents, &mut parent_slots, 1).expect("evaluates");
            let (mut kids, lineage) = engine.reproduce(&parents, &mut rng_from_seed(4));
            let stale: Vec<bool> = kids
                .individuals()
                .iter()
                .map(|i| !i.is_evaluated())
                .collect();

            group.bench_function(
                BenchmarkId::new(&format!("incremental_{mix}"), scale_label),
                |b| {
                    let mut child_slots: Vec<EvalWorkspace> = Vec::new();
                    child_slots.resize_with(kids.len(), EvalWorkspace::new);
                    b.iter(|| {
                        invalidate(&mut kids, &stale);
                        evaluate_generation(
                            &evaluator,
                            &parents,
                            &parent_slots,
                            &mut kids,
                            &mut child_slots,
                            &lineage,
                            1,
                        )
                        .expect("evaluates");
                        kids.best_index()
                    });
                },
            );
            group.bench_function(
                BenchmarkId::new(&format!("rebuild_{mix}"), scale_label),
                |b| {
                    let mut workspaces = Vec::new();
                    b.iter(|| {
                        invalidate(&mut kids, &stale);
                        evaluate_population_with(&evaluator, &mut kids, 1, &mut workspaces)
                            .expect("evaluates");
                        kids.best_index()
                    });
                },
            );
            group.bench_function(
                BenchmarkId::new(&format!("scratch_{mix}"), scale_label),
                |b| {
                    b.iter(|| {
                        invalidate(&mut kids, &stale);
                        for ind in kids.individuals_mut() {
                            if !ind.is_evaluated() {
                                let e = evaluator.evaluate(ind.placement()).expect("evaluates");
                                ind.set_evaluation(e);
                            }
                        }
                        kids.best_index()
                    });
                },
            );
        }
    }
    group.finish();
}

/// BFS vs union-find for connected components.
fn ablation_components(c: &mut Criterion) {
    let area = Area::square(128.0).expect("valid area");
    let (pts, radii) = random_layout(&area, 1024, 5);
    let adj = MeshAdjacency::build(&area, &pts, &radii, LinkModel::CoverageOverlap);
    let mut group = c.benchmark_group("ablation_components_n1024");
    group.bench_function("bfs", |b| {
        b.iter(|| Components::from_adjacency(&adj));
    });
    group.bench_function("union_find", |b| {
        b.iter(|| Components::from_adjacency_dsu(&adj));
    });
    group.finish();
}

/// Summed-area-table window sums vs naive rescans.
fn ablation_density(c: &mut Criterion) {
    let area = Area::square(128.0).expect("valid area");
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(6)
        .expect("generates");
    let map = DensityMap::from_points(&area, &instance.client_positions(), 32, 32);
    let windows: Vec<CellWindow> = (0..24)
        .map(|i| CellWindow {
            cx: i % 16,
            cy: (i * 7) % 16,
            w: 8,
            h: 8,
        })
        .collect();
    let mut group = c.benchmark_group("ablation_density_window_sum");
    group.bench_function("summed_area_table", |b| {
        b.iter(|| windows.iter().map(|w| map.window_count(w)).sum::<u64>());
    });
    group.bench_function("naive_rescan", |b| {
        b.iter(|| {
            windows
                .iter()
                .map(|w| map.window_count_naive(w))
                .sum::<u64>()
        });
    });
    group.finish();
}

/// Threaded vs serial GA population evaluation.
fn ablation_parallel_eval(c: &mut Criterion) {
    let instance = InstanceSpec::paper_normal()
        .expect("valid spec")
        .generate(7)
        .expect("generates");
    let evaluator = Evaluator::paper_default(&instance);
    let mut rng = rng_from_seed(8);
    let base: Population = (0..64)
        .map(|_| Individual::new(instance.random_placement(&mut rng)))
        .collect();
    let mut group = c.benchmark_group("ablation_parallel_eval_pop64");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut pop = base.clone();
                    evaluate_population(&evaluator, &mut pop, threads).expect("evaluates");
                    pop.best_index()
                });
            },
        );
    }
    group.finish();
}

/// The spatial-index point query vs a linear scan (query path only).
fn ablation_point_query(c: &mut Criterion) {
    let area = Area::square(128.0).expect("valid area");
    let (pts, _) = random_layout(&area, 2048, 9);
    let index = GridIndex::build(&area, &pts, 8.0);
    let mut group = c.benchmark_group("ablation_radius_query_n2048");
    group.bench_function("grid_index", |b| {
        let mut rng = rng_from_seed(10);
        b.iter(|| {
            let center = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            index.within_radius(center, 8.0).count()
        });
    });
    group.bench_function("linear_scan", |b| {
        let mut rng = rng_from_seed(10);
        b.iter(|| {
            let center = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
            GridIndex::brute_force_within_radius(&pts, center, 8.0).len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_spatial_index,
    ablation_incremental,
    ablation_move_eval,
    ablation_ga_eval,
    ablation_components,
    ablation_density,
    ablation_parallel_eval,
    ablation_point_query
);
criterion_main!(benches);

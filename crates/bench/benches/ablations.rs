//! Ablation benchmarks of the incremental evaluation engine: each pits it
//! against the full-rebuild reference on one hot loop. `move_eval` and
//! `ga_eval` back the committed `BENCH_move_eval.json` and
//! `BENCH_ga_eval.json` (`scripts/bench_move_eval.sh`,
//! `scripts/bench_ga_eval.sh`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, RngCore};
use wmn_experiments::{Scenario, ScenarioScale};
use wmn_ga::parallel::evaluate_initial;
use wmn_graph::topology::{ConnectivityMode, WmnTopology};
use wmn_metrics::{EvalWorkspace, Evaluator};
use wmn_model::geometry::Point;
use wmn_model::rng::rng_from_seed;
use wmn_model::RouterId;

/// The apply → evaluate → undo core of the neighborhood-search inner loop,
/// 1000 times, with the incremental delta-evaluation engine vs the
/// full-rebuild reference (`ConnectivityMode::FullRebuild`). Each move is
/// a uniformly random relocation drawn inline — no `Movement` proposes it
/// — so the loop times `move_router` and scoring, not proposals. Identical
/// RNG streams and identical results (pinned by the
/// `incremental_equivalence` test suite); only the repair strategy
/// differs. Run at paper scale (64 routers / 192 clients) and at
/// `--scale 4` (256 routers / 768 clients, proportional area).
fn ablation_move_eval(c: &mut Criterion) {
    /// A local-search-shaped inner loop: relocate a random router,
    /// evaluate, undo by moving it back. 1000 moves ⇒ 2000 `move_router` calls.
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
///   `WmnTopology::apply_moves` (`ConnectivityMode::Dynamic`);
/// * `rebuild` — each child's topology is fully rebuilt in place through a
///   persistent workspace (`Evaluator::evaluate_with`);
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
    use wmn_ga::parallel::evaluate_generation;
    use wmn_ga::population::Population;
    use wmn_ga::prelude::NoopRecorder;
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
                .run(
                    &PopulationInit::AdHoc(AdHocMethod::HotSpot),
                    &mut rng,
                    &mut NoopRecorder,
                )
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
                    let mut workspace = EvalWorkspace::new();
                    b.iter(|| {
                        invalidate(&mut kids, &stale);
                        for ind in kids.individuals_mut() {
                            if !ind.is_evaluated() {
                                let e = evaluator
                                    .evaluate_with(&mut workspace, ind.placement())
                                    .expect("evaluates");
                                ind.set_evaluation(e);
                            }
                        }
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

criterion_group!(benches, ablation_move_eval, ablation_ga_eval);
criterion_main!(benches);

//! Every call the benchmark makes into the repository's crates.
//!
//! The rest of the benchmark sees only the types defined or aliased here,
//! so an API change in the program (folding the figure runners' recorded
//! twins, the search drivers' `run*` variants or `Runtime::execute*`)
//! changes this file and no measured behaviour.
//!
//! Two paths run each workload:
//!
//! * [`Plan::figure`] is the end-to-end path: the same `run_ga_figure` /
//!   `run_ns_figure` call the `fig3` / `fig4` binaries make, untraced.
//! * [`Plan::replay`] re-runs every cell of the figure step for step, as
//!   the GA engine's generational loop and the search driver's phase loop
//!   run it, with a span around each step (a cell's start, then each
//!   generation or phase). At [`Granularity::Steps`] each step makes the
//!   same generation- or phase-level calls as the engine; at
//!   [`Granularity::Layers`] the step is unrolled into its per-child or
//!   per-neighbor layer calls, each with a span of its own. Either way its
//!   series must equal the figure's exactly; the benchmark checks that on
//!   every run.

use crate::trace::{nanos_between, Span, Tracer};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;
use wmn_experiments::figures::{run_ga_figure, run_ns_figure};
use wmn_experiments::{ExperimentConfig, Scenario, ScenarioScale};
use wmn_ga::{
    parallel, GaConfig, GaEngine, GaTrace, GenerationRecord, Individual, Lineage, Population,
    PopulationInit,
};
use wmn_graph::topology::WmnTopology;
use wmn_graph::EngineStats;
use wmn_metrics::evaluator::{EvalWorkspace, Evaluation, Evaluator};
use wmn_metrics::stats::Trace;
use wmn_model::rng::Rng;
use wmn_model::{Placement, Point, ProblemInstance, RouterId};
use wmn_placement::registry::AdHocMethod;
use wmn_runtime::grid::{domain, Cell};
use wmn_search::movement::{MoveAction, Movement, RandomMovement, SwapConfig, SwapMovement};
use wmn_search::neighborhood::{best_neighbor, ExplorationBudget};
use wmn_search::trace::{PhaseRecord, SearchTrace};

#[cfg(test)]
pub use wmn_experiments::json::{parse as parse_json, JsonValue};

/// One figure series: `(generation or phase, giant component size)`.
pub type Series = Trace;

/// Which paper figure a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Figure {
    /// Figure 3: one GA per ad hoc initialization method, Weibull clients.
    Ga,
    /// Figure 4: neighborhood search, swap vs random movement, Normal
    /// clients.
    Ns,
}

/// The search movements of Figure 4, in the figure's cell order.
const NS_CELLS: [(u64, &str); 2] = [(0, "Swap"), (1, "Random")];

/// How finely a replay calls into the program's layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Each step through the calls the engine makes for it:
    /// `GaEngine::reproduce` + `parallel::evaluate_generation` per
    /// generation, `best_neighbor` per search phase.
    Steps,
    /// Each step unrolled into its layer calls, with a span around each.
    Layers,
}

/// A workload: one figure at one scale and effort, single-threaded.
#[derive(Debug, Clone)]
pub struct Plan {
    figure: Figure,
    config: ExperimentConfig,
}

/// The state set-up produces and the traced replay starts from.
#[derive(Debug)]
pub struct Prepared {
    instance: ProblemInstance,
    /// The shared random start of both Figure 4 searches.
    initial: Option<Placement>,
}

/// One replayed cell: its figure series, final quality and work counts.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's series, as the figure reports it.
    pub series: Series,
    /// Best giant component size over routers.
    pub giant_frac: f64,
    /// Clients covered by the best placement over clients.
    pub coverage_frac: f64,
    /// Whether a fresh full build of the best placement evaluates bit for
    /// bit like the incremental evaluation the cell reached it with.
    pub verified: bool,
    /// The cell's engine work counters.
    pub counts: Counts,
    /// GA children evaluated (0 for search cells).
    pub children: u64,
    /// Search phases run and accepted (0 for GA cells).
    pub phases: u64,
    /// Search phases whose best neighbor was accepted.
    pub accepted: u64,
}

/// Engine work counters by qualified name (`topology.*`,
/// `connectivity.*`); exact for a fixed seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn from_stats(stats: &EngineStats) -> Counts {
        let mut counts = BTreeMap::new();
        stats.for_each(|name, value| {
            counts.insert(name, value);
        });
        Counts(counts)
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &Counts) {
        for (&name, &value) in &other.0 {
            *self.0.entry(name).or_default() += value;
        }
    }

    /// The counter `name`, 0 when the engine does not report it.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

fn err(e: impl Display) -> String {
    e.to_string()
}

impl Plan {
    /// The workload named `workload` with the given instance and run seeds,
    /// or `None` for an unknown name.
    pub fn new(workload: &str, instance_seed: u64, run_seed: u64) -> Option<Plan> {
        let (figure, base) = match workload {
            "ga-paper" => (Figure::Ga, ExperimentConfig::paper()),
            "ga-s16" => (Figure::Ga, ExperimentConfig::quick_scale(16)),
            "ns-s256" => (
                Figure::Ns,
                ExperimentConfig {
                    scale: ScenarioScale::proportional(256),
                    ..ExperimentConfig::paper()
                },
            ),
            _ => return None,
        };
        let config = ExperimentConfig {
            instance_seed,
            run_seed,
            threads: 1,
            runner_threads: 1,
            ..base
        };
        Some(Plan { figure, config })
    }

    /// The `(instance_seed, run_seed)` the figure runs with.
    pub fn seeds(&self) -> (u64, u64) {
        (self.config.instance_seed, self.config.run_seed)
    }

    /// Whether the workload runs the GA figure.
    pub fn is_ga(&self) -> bool {
        self.figure == Figure::Ga
    }

    fn scenario(&self) -> Scenario {
        match self.figure {
            Figure::Ga => Scenario::Weibull,
            Figure::Ns => Scenario::Normal,
        }
    }

    /// Cells in the figure.
    pub fn cells(&self) -> usize {
        match self.figure {
            Figure::Ga => AdHocMethod::all().len(),
            Figure::Ns => NS_CELLS.len(),
        }
    }

    /// Placement evaluations one figure run performs, fixed by the config:
    /// every individual of every generation for the GA, every sampled
    /// neighbor plus the start for search.
    pub fn evaluations(&self) -> u64 {
        let c = &self.config;
        let per_cell = match self.figure {
            Figure::Ga => c.population * (c.generations + 1),
            Figure::Ns => c.ns_phases * c.ns_budget + 1,
        };
        (self.cells() * per_cell) as u64
    }

    /// Set-up as the figure runner does it: instance generation and
    /// `Evaluator::paper_default`, plus for search the shared random start
    /// and its full topology build.
    ///
    /// # Errors
    ///
    /// Instance generation or placement validation failures.
    pub fn setup(&self, tracer: &mut Tracer) -> Result<Prepared, String> {
        let instance = tracer
            .time(Span::Instance, || self.config.instance(self.scenario()))
            .map_err(err)?;
        let evaluator = black_box(Evaluator::paper_default(&instance));
        let initial = match self.figure {
            Figure::Ga => None,
            Figure::Ns => {
                let initial = tracer.time(Span::PlacementInit, || {
                    let cell = Cell::new(
                        "ns-initial",
                        &[domain::INITIAL, self.scenario().grid_id(), 0],
                    );
                    instance.random_placement(&mut cell.rng(self.config.run_seed))
                });
                let topo = tracer
                    .time(Span::Build, || evaluator.topology(&initial))
                    .map_err(err)?;
                black_box(topo);
                Some(initial)
            }
        };
        Ok(Prepared { instance, initial })
    }

    /// The end-to-end figure call, untraced: one series per cell.
    ///
    /// # Errors
    ///
    /// The figure runner's error, naming the failed cell.
    pub fn figure(&self) -> Result<Vec<Series>, String> {
        match self.figure {
            Figure::Ga => run_ga_figure(self.scenario(), &self.config)
                .map(|fig| fig.series)
                .map_err(err),
            Figure::Ns => run_ns_figure(&self.config)
                .map(|fig| vec![fig.swap, fig.random])
                .map_err(err),
        }
    }

    /// Replays every cell at `granularity`, recording spans into `tracer`;
    /// one result per cell, in figure order. The [`Span::Step`] samples
    /// come in the same order on every replay of a plan.
    pub fn replay(
        &self,
        prepared: &Prepared,
        granularity: Granularity,
        tracer: &mut Tracer,
    ) -> Vec<Result<CellRun, String>> {
        let instance = &prepared.instance;
        match (self.figure, &prepared.initial) {
            (Figure::Ns, Some(initial)) => NS_CELLS
                .iter()
                .map(|&(id, label)| {
                    self.replay_ns_cell(instance, initial, id, label, granularity, tracer)
                })
                .collect(),
            (Figure::Ns, None) => {
                vec![Err("search set-up has no start placement".into()); NS_CELLS.len()]
            }
            (Figure::Ga, _) => AdHocMethod::all()
                .into_iter()
                .enumerate()
                .map(|(index, method)| {
                    self.replay_ga_cell(instance, index, method, granularity, tracer)
                })
                .collect(),
        }
    }

    /// One GA cell, step for step as `GaEngine::run` under the default
    /// incremental evaluation mode. At [`Granularity::Layers`] the
    /// generation's child evaluation (`parallel::evaluate_generation`) is
    /// unrolled per child so the state copy and the diff repair get spans
    /// of their own.
    fn replay_ga_cell(
        &self,
        instance: &ProblemInstance,
        index: usize,
        method: AdHocMethod,
        granularity: Granularity,
        tracer: &mut Tracer,
    ) -> Result<CellRun, String> {
        let c = &self.config;
        let cell_start = Instant::now();
        let evaluator = Evaluator::paper_default(instance);
        let ga_config = GaConfig::builder()
            .population_size(c.population)
            .generations(c.generations)
            .threads(c.threads)
            .eval_mode(c.ga_eval_mode())
            .build()?;
        let engine = GaEngine::new(&evaluator, ga_config);
        let scenario = self.scenario();
        let mut rng = Cell::new(
            format!("ga-{}-{}", scenario.name(), method.name()),
            &[domain::GA, scenario.grid_id(), index as u64],
        )
        .rng(c.run_seed);

        let mut population = tracer.time(Span::PlacementInit, || {
            PopulationInit::AdHoc(method).build(instance, c.population, &mut rng)
        });
        let mut slots: Vec<EvalWorkspace> = Vec::new();
        slots.resize_with(population.len(), EvalWorkspace::new);
        tracer
            .time(Span::Build, || {
                parallel::evaluate_initial(&evaluator, &mut population, &mut slots, c.threads)
            })
            .map_err(err)?;
        for topo in slots.iter_mut().filter_map(EvalWorkspace::topology_mut) {
            topo.set_connectivity_mode(c.connectivity);
        }

        let mut trace = GaTrace::new();
        record_generation(&mut trace, 0, &population);
        let mut best_placement = best_individual(&population).placement().clone();
        let mut best = best_evaluation(&population);
        tracer.record(Span::Step, cell_start);
        let mut spare: Vec<EvalWorkspace> = Vec::new();
        let mut moves = Vec::new();
        for generation in 1..=c.generations {
            let step_start = Instant::now();
            let (next, lineage) =
                tracer.time(Span::Reproduce, || engine.reproduce(&population, &mut rng));
            let parents = std::mem::replace(&mut population, next);
            let start = Instant::now();
            spare.resize_with(population.len(), EvalWorkspace::new);
            match granularity {
                Granularity::Steps => parallel::evaluate_generation(
                    &evaluator,
                    &parents,
                    &slots,
                    &mut population,
                    &mut spare,
                    &lineage,
                    c.threads,
                )
                .map_err(err)?,
                Granularity::Layers => {
                    for ((child, slot), &line) in population
                        .individuals_mut()
                        .iter_mut()
                        .zip(spare.iter_mut())
                        .zip(&lineage)
                    {
                        evaluate_child(
                            &evaluator, &parents, &slots, child, slot, line, &mut moves, tracer,
                        )?;
                    }
                }
            }
            std::mem::swap(&mut slots, &mut spare);
            tracer.record(Span::Evaluate, start);
            record_generation(&mut trace, generation, &population);
            let generation_best = best_evaluation(&population);
            if generation_best.fitness > best.fitness {
                best = generation_best;
                best_placement = best_individual(&population).placement().clone();
            }
            tracer.record(Span::Step, step_start);
        }
        tracer.record(Span::Cell, cell_start);

        let mut counts = Counts::default();
        for stats in slots
            .iter()
            .chain(&spare)
            .filter_map(EvalWorkspace::engine_stats)
        {
            counts.merge(&Counts::from_stats(&stats));
        }
        let series = trace
            .giant_series(method.name())
            .downsampled(c.sample_every.max(1));
        let mut run = finish_cell(&evaluator, series, &best_placement, best, counts);
        run.children = (c.population * c.generations) as u64;
        Ok(run)
    }

    /// One Figure 4 cell, step for step as
    /// `NeighborhoodSearch::run_with_topology`. At [`Granularity::Layers`]
    /// the phase's best-neighbor scan (`best_neighbor`) is unrolled per
    /// neighbor.
    fn replay_ns_cell(
        &self,
        instance: &ProblemInstance,
        initial: &Placement,
        movement_id: u64,
        label: &str,
        granularity: Granularity,
        tracer: &mut Tracer,
    ) -> Result<CellRun, String> {
        let c = &self.config;
        let cell_start = Instant::now();
        let evaluator = Evaluator::paper_default(instance);
        let movement: Box<dyn Movement> = match movement_id {
            0 => Box::new(SwapMovement::new(instance, SwapConfig::default())),
            _ => Box::new(RandomMovement::new(instance)),
        };
        let mut rng = Cell::new(
            format!("ns-{label}"),
            &[domain::NEIGHBORHOOD, self.scenario().grid_id(), movement_id],
        )
        .rng(c.run_seed);
        let mut topo = tracer
            .time(Span::Build, || evaluator.topology(initial))
            .map_err(err)?;
        topo.set_connectivity_mode(c.connectivity);

        let mut current = evaluator.evaluate_topology(&topo);
        let mut best = current;
        let mut best_placement = topo.placement();
        let mut trace = SearchTrace::new();
        tracer.record(Span::Step, cell_start);
        for phase in 1..=c.ns_phases {
            let phase_start = Instant::now();
            let neighbor = match granularity {
                Granularity::Steps => best_neighbor(
                    &mut topo,
                    &evaluator,
                    movement.as_ref(),
                    ExplorationBudget::sampled(c.ns_budget),
                    &mut rng,
                )
                .map(|n| (n.action, n.evaluation)),
                Granularity::Layers => unrolled_best_neighbor(
                    &mut topo,
                    &evaluator,
                    movement.as_ref(),
                    c.ns_budget,
                    &mut rng,
                    tracer,
                ),
            };
            let accepted = match neighbor {
                Some((action, evaluation)) if evaluation.fitness > current.fitness => {
                    let _ = action.apply(&mut topo);
                    current = evaluation;
                    if current.fitness > best.fitness {
                        best = current;
                        best_placement = topo.placement();
                    }
                    true
                }
                _ => false,
            };
            trace.push(PhaseRecord::new(
                phase,
                current.fitness,
                current.giant_size(),
                current.covered_clients(),
                accepted,
            ));
            tracer.record(Span::Phase, phase_start);
            tracer.record(Span::Step, phase_start);
        }
        tracer.record(Span::Cell, cell_start);

        let counts = Counts::from_stats(&topo.engine_stats());
        let mut run = finish_cell(
            &evaluator,
            trace.giant_series(label),
            &best_placement,
            best,
            counts,
        );
        run.phases = trace.len() as u64;
        run.accepted = trace.accepted_count() as u64;
        Ok(run)
    }
}

/// `best_neighbor` unrolled per neighbor, with a span around each layer
/// call: the best of `budget` sampled neighbors, each applied, scored and
/// undone.
fn unrolled_best_neighbor(
    topo: &mut WmnTopology,
    evaluator: &Evaluator<'_>,
    movement: &dyn Movement,
    budget: usize,
    rng: &mut Rng,
    tracer: &mut Tracer,
) -> Option<(MoveAction, Evaluation)> {
    let mut neighbor: Option<(MoveAction, Evaluation)> = None;
    for _ in 0..budget {
        // One clock read per boundary: propose | apply | score | undo.
        let t0 = Instant::now();
        let action = movement.propose(topo, rng);
        let t1 = Instant::now();
        let undo = action.apply(topo);
        let t2 = Instant::now();
        let evaluation = evaluator.evaluate_topology(topo);
        let t3 = Instant::now();
        undo.undo(topo);
        let t4 = Instant::now();
        tracer.add(Span::Propose, nanos_between(t0, t1));
        tracer.add(Span::Move, nanos_between(t1, t2) + nanos_between(t3, t4));
        tracer.add(Span::Score, nanos_between(t2, t3));
        if neighbor.is_none_or(|(_, b)| evaluation.fitness > b.fitness) {
            neighbor = Some((action, evaluation));
        }
    }
    neighbor
}

/// The GA engine's per-generation record (best of the population, mean
/// fitness and positional diversity), computed as the engine does.
fn record_generation(trace: &mut GaTrace, generation: usize, population: &Population) {
    let best = best_evaluation(population);
    trace.push(GenerationRecord::new(
        generation,
        best.fitness,
        best.giant_size(),
        best.covered_clients(),
        population.mean_fitness(),
        population.positional_diversity(),
    ));
}

fn best_individual(population: &Population) -> &Individual {
    population.best().expect("GA populations are never empty")
}

fn best_evaluation(population: &Population) -> Evaluation {
    population
        .best_evaluation()
        .expect("GA populations are evaluated before they are ranked")
}

/// One child of a generation on the incremental path: copy the lineage
/// parent's live topology into the child's slot, then repair the placement
/// diff with the other parent donating disk caches.
#[allow(clippy::too_many_arguments)]
fn evaluate_child(
    evaluator: &Evaluator<'_>,
    parents: &Population,
    parent_slots: &[EvalWorkspace],
    child: &mut Individual,
    slot: &mut EvalWorkspace,
    lineage: Lineage,
    moves: &mut Vec<(RouterId, Point)>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let parent = closer_parent(parents, lineage, child.placement());
    let parent_topo = parent_slots[parent]
        .topology()
        .ok_or("a GA parent slot holds no live topology")?;
    let other = lineage.a + lineage.b - parent;
    let donor = (other != parent)
        .then(|| parent_slots[other].topology())
        .flatten();
    // One clock read per boundary: state copy | diff repair and scoring.
    let t0 = Instant::now();
    slot.adopt_topology(parent_topo);
    let t1 = Instant::now();
    let topo = slot.topology_mut().expect("topology just adopted");
    let evaluation = evaluator.evaluate_moves_to_from(topo, child.placement(), moves, donor);
    let t2 = Instant::now();
    tracer.add(Span::Clone, nanos_between(t0, t1));
    tracer.add(Span::Repair, nanos_between(t1, t2));
    let evaluation = evaluation.map_err(err)?;
    if !child.is_evaluated() {
        child.set_evaluation(evaluation);
    }
    Ok(())
}

/// The recorded parent that differs from `child` in fewer genes (ties
/// toward `a`): the parent the GA's evaluation copies the child from.
fn closer_parent(parents: &Population, lineage: Lineage, child: &Placement) -> usize {
    if lineage.a == lineage.b {
        return lineage.a;
    }
    let diff = |idx: usize| {
        parents.individuals()[idx]
            .placement()
            .as_slice()
            .iter()
            .zip(child.as_slice())
            .filter(|(p, c)| p != c)
            .count()
    };
    if diff(lineage.b) < diff(lineage.a) {
        lineage.b
    } else {
        lineage.a
    }
}

/// Re-evaluates the cell's best placement from scratch
/// (`Evaluator::evaluate`, a fresh full build) and packages the cell.
fn finish_cell(
    evaluator: &Evaluator<'_>,
    series: Series,
    best_placement: &Placement,
    best: Evaluation,
    counts: Counts,
) -> CellRun {
    let instance = evaluator.instance();
    let verified = matches!(evaluator.evaluate(best_placement), Ok(fresh) if fresh == best);
    CellRun {
        series,
        giant_frac: best.giant_size() as f64 / instance.router_count() as f64,
        coverage_frac: best.covered_clients() as f64 / instance.client_count() as f64,
        verified,
        counts,
        children: 0,
        phases: 0,
        accepted: 0,
    }
}

#[cfg(test)]
impl Plan {
    /// A paper-scale plan small enough for a debug-build test.
    pub fn tiny(ga: bool, instance_seed: u64, run_seed: u64) -> Plan {
        let name = if ga { "ga-paper" } else { "ns-s256" };
        let mut plan = Plan::new(name, instance_seed, run_seed).expect("known workload");
        let c = &mut plan.config;
        c.scale = ScenarioScale::identity();
        c.population = 6;
        c.generations = 4;
        c.sample_every = 2;
        c.ns_phases = 4;
        c.ns_budget = 3;
        plan
    }

    /// The first GA cell's initial population, as placements.
    pub fn first_population(&self, prepared: &Prepared) -> Vec<Placement> {
        let scenario = self.scenario();
        let method = AdHocMethod::all()[0];
        let mut rng =
            Cell::new("ga", &[domain::GA, scenario.grid_id(), 0]).rng(self.config.run_seed);
        PopulationInit::AdHoc(method)
            .build(&prepared.instance, self.config.population, &mut rng)
            .individuals()
            .iter()
            .map(|ind| ind.placement().clone())
            .collect()
    }

    /// The generated instance's client positions.
    pub fn clients(prepared: &Prepared) -> Vec<Point> {
        prepared
            .instance
            .clients()
            .iter()
            .map(|c| c.position())
            .collect()
    }
}

//! The generational GA engine over a **population of live topologies**.
//!
//! A classical elitist generational GA over placement chromosomes:
//! evaluate, record, select (tournament by default), cross (single-point by
//! default), mutate (jitter + reset stack), repeat. The engine records a
//! [`GaTrace`] — per-generation best giant component size — which is
//! exactly the data plotted in the paper's Figures 1–3.
//!
//! # Topology-backed evaluation
//!
//! Under the default [`GaEvalMode::Incremental`], every individual owns an
//! `EvalWorkspace` slot holding a **live `WmnTopology`** of its placement.
//! A child is evaluated as its *lineage parent's* topology plus a delta:
//! the worker copies the parent's state into the child's slot
//! (`WmnTopology::clone_from`, buffer-reusing) and repairs the placement
//! diff — crossover genes and mutation moves folded into one batch —
//! through the incremental engine (`apply_moves`), instead of rebuilding
//! adjacency/components/coverage from scratch per child.
//!
//! Invariants of the representation (mirroring the `wmn-graph::topology`
//! module docs):
//!
//! * after every evaluation step, individual `i`'s slot holds a topology
//!   whose state equals a fresh build of `individuals[i].placement()` —
//!   elites included (they skip the fitness write but still sync their
//!   topology so they can parent the next generation);
//! * chromosomes (placements) remain the source of truth; topologies are
//!   derived state and never feed back into reproduction;
//! * reproduction consumes the RNG identically in every mode, and
//!   evaluation consumes none, so [`GaEvalMode::Rebuild`] (the
//!   full-rebuild reference pipeline) and any thread count produce
//!   **bit-identical** outcomes (pinned by the `incremental_equivalence`
//!   suite; the `ablation_ga_eval` bench measures the gap).

use crate::crossover::CrossoverOp;
use crate::init::PopulationInit;
use crate::mutation::MutationOp;
use crate::parallel;
use crate::population::{Lineage, Population};
use crate::selection::SelectionOp;
use crate::trace::{GaTrace, GenerationRecord};
use rand::{Rng, RngCore};
use std::fmt;
use wmn_metrics::evaluator::{EvalWorkspace, Evaluation, Evaluator};
use wmn_model::placement::Placement;
use wmn_model::ModelError;
use wmn_obs::{phase, ApplyPhases, EngineStats, NoopRecorder, Recorder};
use wmn_search::movement::MoveAction;

/// How the engine evaluates the individuals of each generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum GaEvalMode {
    /// Topology-backed delta evaluation (the default): children adopt
    /// their lineage parent's live topology and repair the placement diff
    /// through the incremental batch engine, with connectivity repaired
    /// component-locally by the dynamic connectivity engine
    /// ([`ConnectivityMode::Dynamic`](wmn_graph::topology::ConnectivityMode::Dynamic)).
    #[default]
    Incremental,
    /// Full-rebuild reference pipeline: every child is evaluated through a
    /// per-worker workspace whose topology is rebuilt in place per
    /// candidate — the pre-topology-backed behavior, kept as the
    /// bit-identical baseline for equivalence tests and the
    /// `ablation_ga_eval` bench.
    Rebuild,
}

impl fmt::Display for GaEvalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaEvalMode::Incremental => write!(f, "incremental"),
            GaEvalMode::Rebuild => write!(f, "rebuild"),
        }
    }
}

/// GA parameters (see [`GaConfigBuilder`] for construction).
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population_size: usize,
    /// Number of generations to run (the paper's figures run ~800).
    pub generations: usize,
    /// Probability that a selected pair is crossed (else cloned).
    pub crossover_rate: f64,
    /// Number of elites copied unchanged into the next generation.
    pub elitism: usize,
    /// Parent selection.
    pub selection: SelectionOp,
    /// Crossover operator.
    pub crossover: CrossoverOp,
    /// Mutation stack applied to every non-elite child, in order.
    pub mutations: Vec<MutationOp>,
    /// Worker threads for fitness evaluation (1 = serial).
    pub threads: usize,
    /// Evaluation pipeline (incremental topology-backed vs full rebuild);
    /// outcomes are bit-identical either way.
    pub eval_mode: GaEvalMode,
}

impl GaConfig {
    /// The configuration used for the paper reproduction: population 64,
    /// 800 generations, single-point crossover at 0.8, tournament(3),
    /// elitism 2, jitter+reset mutation.
    pub fn paper_default() -> Self {
        GaConfig {
            population_size: 64,
            generations: 800,
            crossover_rate: 0.8,
            elitism: 2,
            selection: SelectionOp::paper_default(),
            crossover: CrossoverOp::paper_default(),
            mutations: MutationOp::paper_default_stack(),
            threads: 1,
            eval_mode: GaEvalMode::Incremental,
        }
    }

    /// Starts a builder from the paper defaults.
    pub fn builder() -> GaConfigBuilder {
        GaConfigBuilder {
            config: GaConfig::paper_default(),
        }
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig::paper_default()
    }
}

/// Builder for [`GaConfig`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct GaConfigBuilder {
    config: GaConfig,
}

impl GaConfigBuilder {
    /// Sets the population size.
    pub fn population_size(&mut self, n: usize) -> &mut Self {
        self.config.population_size = n;
        self
    }

    /// Sets the generation count.
    pub fn generations(&mut self, n: usize) -> &mut Self {
        self.config.generations = n;
        self
    }

    /// Sets the crossover rate.
    pub fn crossover_rate(&mut self, rate: f64) -> &mut Self {
        self.config.crossover_rate = rate;
        self
    }

    /// Sets the elite count.
    pub fn elitism(&mut self, n: usize) -> &mut Self {
        self.config.elitism = n;
        self
    }

    /// Sets the selection operator.
    pub fn selection(&mut self, op: SelectionOp) -> &mut Self {
        self.config.selection = op;
        self
    }

    /// Sets the crossover operator.
    pub fn crossover(&mut self, op: CrossoverOp) -> &mut Self {
        self.config.crossover = op;
        self
    }

    /// Replaces the mutation stack.
    pub fn mutations(&mut self, ops: Vec<MutationOp>) -> &mut Self {
        self.config.mutations = ops;
        self
    }

    /// Sets the evaluation thread count.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.config.threads = n.max(1);
        self
    }

    /// Sets the evaluation pipeline (incremental vs full rebuild).
    pub fn eval_mode(&mut self, mode: GaEvalMode) -> &mut Self {
        self.config.eval_mode = mode;
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration is inconsistent
    /// (zero population, elitism not smaller than the population,
    /// crossover rate outside `[0, 1]`).
    pub fn build(&self) -> Result<GaConfig, String> {
        let c = &self.config;
        if c.population_size == 0 {
            return Err("population_size must be positive".to_owned());
        }
        if c.elitism >= c.population_size {
            return Err(format!(
                "elitism ({}) must be smaller than population_size ({})",
                c.elitism, c.population_size
            ));
        }
        if !(0.0..=1.0).contains(&c.crossover_rate) || !c.crossover_rate.is_finite() {
            return Err(format!(
                "crossover_rate must be in [0, 1], got {}",
                c.crossover_rate
            ));
        }
        Ok(c.clone())
    }
}

/// Result of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaOutcome {
    /// Best placement found across all generations.
    pub best_placement: Placement,
    /// Evaluation of the best placement.
    pub best_evaluation: Evaluation,
    /// Per-generation history (the Figures 1–3 data).
    pub trace: GaTrace,
    /// The final population (exposed for diversity analyses).
    pub final_population: Population,
}

/// The GA engine, bound to an evaluator.
///
/// # Examples
///
/// ```
/// use wmn_ga::engine::{GaConfig, GaEngine};
/// use wmn_ga::init::PopulationInit;
/// use wmn_metrics::Evaluator;
/// use wmn_model::prelude::*;
/// use wmn_placement::registry::AdHocMethod;
///
/// let instance = InstanceSpec::paper_normal()?.generate(2)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let config = GaConfig::builder()
///     .population_size(16)
///     .generations(5)
///     .build()
///     .expect("valid config");
/// let engine = GaEngine::new(&evaluator, config);
///
/// let mut rng = rng_from_seed(1);
/// let outcome = engine.run(&PopulationInit::AdHoc(AdHocMethod::HotSpot), &mut rng)?;
/// assert_eq!(outcome.trace.len(), 6); // initial + 5 generations
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct GaEngine<'e, 'i> {
    evaluator: &'e Evaluator<'i>,
    config: GaConfig,
}

impl<'e, 'i> GaEngine<'e, 'i> {
    /// Creates an engine with the given configuration.
    pub fn new(evaluator: &'e Evaluator<'i>, config: GaConfig) -> Self {
        GaEngine { evaluator, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    fn record(&self, generation: usize, population: &Population, trace: &mut GaTrace) {
        let best = population
            .best_evaluation()
            .expect("population evaluated before recording");
        trace.push(GenerationRecord::new(
            generation,
            best.fitness,
            best.giant_size(),
            best.covered_clients(),
            population.mean_fitness(),
            population.positional_diversity(),
        ));
    }

    /// Produces the next generation from an evaluated population: elites,
    /// then selection → crossover/clone → mutation, exactly as one
    /// generational step of [`run`](GaEngine::run) (which calls this).
    /// Mutations are planned as [`MoveAction`] deltas and applied to the
    /// chromosome; the returned [`Lineage`] records each child's parents so
    /// evaluation can take the incremental parent-plus-diff path.
    pub fn reproduce(
        &self,
        population: &Population,
        rng: &mut dyn RngCore,
    ) -> (Population, Vec<Lineage>) {
        let instance = self.evaluator.instance();
        let mut next = Population::new();
        let mut lineage = Vec::with_capacity(self.config.population_size);
        // Elites survive unchanged (evaluation cache carries over).
        for &idx in population.ranked_indices().iter().take(self.config.elitism) {
            next.push(population.individuals()[idx].clone());
            lineage.push(Lineage::cloned(idx));
        }
        // Offspring.
        let mut actions: Vec<MoveAction> = Vec::new();
        while next.len() < self.config.population_size {
            let pa = self.config.selection.select(population, rng);
            let pb = self.config.selection.select(population, rng);
            let (crossed, (mut c1, mut c2)) = if rng.gen::<f64>() < self.config.crossover_rate {
                (
                    true,
                    self.config.crossover.cross(
                        population.individuals()[pa].placement(),
                        population.individuals()[pb].placement(),
                        rng,
                    ),
                )
            } else {
                (
                    false,
                    (
                        population.individuals()[pa].placement().clone(),
                        population.individuals()[pb].placement().clone(),
                    ),
                )
            };
            self.mutate_stack(&mut c1, instance, rng, &mut actions);
            next.push(c1.into());
            lineage.push(if crossed {
                Lineage { a: pa, b: pb }
            } else {
                Lineage::cloned(pa)
            });
            if next.len() < self.config.population_size {
                self.mutate_stack(&mut c2, instance, rng, &mut actions);
                next.push(c2.into());
                lineage.push(if crossed {
                    Lineage { a: pa, b: pb }
                } else {
                    Lineage::cloned(pb)
                });
            }
        }
        (next, lineage)
    }

    /// Applies the configured mutation stack to one chromosome through the
    /// plan-then-apply path, reusing `actions` as scratch. RNG consumption
    /// is identical to calling `MutationOp::mutate` per operator.
    fn mutate_stack(
        &self,
        placement: &mut Placement,
        instance: &wmn_model::ProblemInstance,
        rng: &mut dyn RngCore,
        actions: &mut Vec<MoveAction>,
    ) {
        for op in &self.config.mutations {
            op.plan(placement, instance, rng, actions);
            for action in actions.iter() {
                action.apply_to_placement(placement);
            }
        }
    }

    /// Runs the GA from an initial population built by `init`.
    ///
    /// # Errors
    ///
    /// Propagates placement validation failures from evaluation (none occur
    /// with the built-in initializers and operators).
    pub fn run(
        &self,
        init: &PopulationInit,
        rng: &mut dyn RngCore,
    ) -> Result<GaOutcome, ModelError> {
        self.run_recorded(init, rng, &mut NoopRecorder)
    }

    /// Like [`run`](Self::run), additionally emitting run telemetry to
    /// `recorder`: `ga.*` counters, per-generation engine work deltas (as
    /// value histograms), and the total engine work-counter profile summed
    /// over the evaluation slots in slot order — attributed to a nested
    /// phase tree. The run opens a `ga` phase with `init` / `evaluate`
    /// child scopes; inside `evaluate`, the batch-repair work reported by
    /// the slot topologies' [`ApplyPhases`] buckets telescopes into
    /// `apply_moves` → `edge_repair` / `component_repair` / `coverage`
    /// scopes (component repair further staged into connectivity
    /// `insert` / `delete`), and whatever evaluation work the buckets
    /// don't cover (`clone_from` state copies, single-move diffs, full
    /// rebuilds of the `Rebuild` oracle) stays attributed to `evaluate`
    /// itself. The per-phase slices sum to exactly the flat totals, so
    /// the flat counter profile is byte-identical to what earlier
    /// versions emitted in one call. Wall-clock reproduce/evaluate spans
    /// are recorded under the same phases, informational-only.
    ///
    /// Results are bit-identical to [`run`](Self::run); with a disabled
    /// recorder the extra cost is one branch per generation. Under the
    /// incremental eval mode the emitted counters are also independent of
    /// the thread count, because child `i` is always evaluated in slot `i`
    /// (the `Rebuild` oracle's per-worker workspaces make its disk-cache
    /// counters depend on worker assignment — record it with one thread
    /// when exact reproducibility matters).
    ///
    /// # Errors
    ///
    /// Propagates placement validation failures from evaluation, exactly
    /// as [`run`](Self::run).
    pub fn run_recorded(
        &self,
        init: &PopulationInit,
        rng: &mut dyn RngCore,
        recorder: &mut dyn Recorder,
    ) -> Result<GaOutcome, ModelError> {
        let mut population =
            init.build(self.evaluator.instance(), self.config.population_size, rng);
        let mut backend = EvalBackend::new(self.config.eval_mode);
        let init_clock = recorder.enabled().then(std::time::Instant::now);
        backend.evaluate_initial(self.evaluator, &mut population, self.config.threads)?;
        let init_nanos = elapsed_nanos(init_clock);
        let mut engine_prev = recorder.enabled().then(|| backend.engine_totals());
        let init_totals = engine_prev.unwrap_or_default();
        let mut reproduce_nanos = 0u64;
        let mut evaluate_nanos = 0u64;

        let mut trace = GaTrace::new();
        self.record(0, &population, &mut trace);
        let mut best_placement = population
            .best()
            .expect("nonempty population")
            .placement()
            .clone();
        let mut best_evaluation = population.best_evaluation().expect("evaluated");

        for generation in 1..=self.config.generations {
            let clock = engine_prev.is_some().then(std::time::Instant::now);
            let (next, lineage) = self.reproduce(&population, rng);
            reproduce_nanos += elapsed_nanos(clock);
            let parents = std::mem::replace(&mut population, next);
            let clock = engine_prev.is_some().then(std::time::Instant::now);
            backend.evaluate_generation(
                self.evaluator,
                &parents,
                &mut population,
                &lineage,
                self.config.threads,
            )?;
            evaluate_nanos += elapsed_nanos(clock);
            self.record(generation, &population, &mut trace);
            if let Some(prev) = engine_prev.as_mut() {
                let now = backend.engine_totals();
                let delta = now.delta_since(prev);
                recorder.value(
                    "ga.generation.diff_routers",
                    delta.topology.batch_moved_routers,
                );
                recorder.value(
                    "ga.generation.connectivity_repairs",
                    delta.connectivity.repairs,
                );
                *prev = now;
            }

            let gen_best = population.best_evaluation().expect("evaluated");
            if gen_best.fitness > best_evaluation.fitness {
                best_evaluation = gen_best;
                best_placement = population.best().expect("nonempty").placement().clone();
            }
        }

        if recorder.enabled() {
            recorder.counter("ga.generations", self.config.generations as u64);
            recorder.counter(
                "ga.children_evaluated",
                (self.config.generations * self.config.population_size) as u64,
            );
            // Telescoped emission: the engine totals split into per-phase
            // slices that sum to exactly the one-call totals, so the flat
            // counter profile (and any committed baseline of it) is
            // unchanged — only the attribution tree gains structure.
            let totals = backend.engine_totals();
            let phases = backend.phase_totals();
            let mut ga = phase(recorder, "ga");
            ga.span("reproduce", reproduce_nanos);
            {
                let mut init_phase = phase(&mut ga, "init");
                init_phase.span("evaluate_initial", init_nanos);
                init_totals.record_counters(&mut init_phase);
            }
            {
                let mut eval = phase(&mut ga, "evaluate");
                eval.span("evaluate_generations", evaluate_nanos);
                let generation_work = totals.delta_since(&init_totals);
                let residual = generation_work.delta_since(&phases.attributed());
                residual.record_counters(&mut eval);
                let mut apply = phase(&mut eval, "apply_moves");
                phases.record_counters(&mut apply);
            }
        }

        Ok(GaOutcome {
            best_placement,
            best_evaluation,
            trace,
            final_population: population,
        })
    }
}

/// The nanoseconds since `clock`, or 0 for `None` (the disabled-recorder
/// path, which never reads the clock at all).
fn elapsed_nanos(clock: Option<std::time::Instant>) -> u64 {
    clock.map_or(0, |c| {
        u64::try_from(c.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// The engine's per-run evaluation state: either the topology-backed slot
/// pool (one live topology per individual, double-buffered across
/// generations) or the legacy per-worker workspace set of the rebuild
/// reference pipeline.
#[derive(Debug)]
enum EvalBackend {
    Incremental {
        /// One slot per individual of the *current* population.
        slots: Vec<EvalWorkspace>,
        /// Last generation's slots, recycled as the next children's lease
        /// pool (their warm topologies get `clone_from`'d over).
        spare: Vec<EvalWorkspace>,
    },
    Rebuild {
        /// One workspace per evaluation worker, persistent across
        /// generations.
        workspaces: Vec<EvalWorkspace>,
    },
}

impl EvalBackend {
    fn new(mode: GaEvalMode) -> Self {
        match mode {
            GaEvalMode::Incremental => EvalBackend::Incremental {
                slots: Vec::new(),
                spare: Vec::new(),
            },
            GaEvalMode::Rebuild => EvalBackend::Rebuild {
                workspaces: Vec::new(),
            },
        }
    }

    fn evaluate_initial(
        &mut self,
        evaluator: &Evaluator<'_>,
        population: &mut Population,
        threads: usize,
    ) -> Result<(), ModelError> {
        match self {
            EvalBackend::Incremental { slots, .. } => {
                slots.resize_with(population.len(), EvalWorkspace::new);
                parallel::evaluate_initial(evaluator, population, slots, threads)
            }
            EvalBackend::Rebuild { workspaces } => {
                parallel::evaluate_population_with(evaluator, population, threads, workspaces)
            }
        }
    }

    /// Sums the live topologies' always-on work counters, visiting the
    /// workspaces in index order so the total is deterministic: under the
    /// incremental backend child `i` is always evaluated in slot `i`
    /// regardless of the thread count.
    fn engine_totals(&self) -> EngineStats {
        fn sum_into(total: &mut EngineStats, workspaces: &[EvalWorkspace]) {
            for ws in workspaces {
                if let Some(stats) = ws.engine_stats() {
                    total.merge(&stats);
                }
            }
        }
        let mut total = EngineStats::default();
        match self {
            EvalBackend::Incremental { slots, spare, .. } => {
                sum_into(&mut total, slots);
                sum_into(&mut total, spare);
            }
            EvalBackend::Rebuild { workspaces } => sum_into(&mut total, workspaces),
        }
        total
    }

    /// Sums the live topologies' batch-repair phase buckets
    /// ([`ApplyPhases`]) in the same deterministic workspace order as
    /// [`engine_totals`](Self::engine_totals).
    fn phase_totals(&self) -> ApplyPhases {
        fn sum_into(total: &mut ApplyPhases, workspaces: &[EvalWorkspace]) {
            for ws in workspaces {
                if let Some(phases) = ws.apply_phases() {
                    total.merge(&phases);
                }
            }
        }
        let mut total = ApplyPhases::default();
        match self {
            EvalBackend::Incremental { slots, spare, .. } => {
                sum_into(&mut total, slots);
                sum_into(&mut total, spare);
            }
            EvalBackend::Rebuild { workspaces } => sum_into(&mut total, workspaces),
        }
        total
    }

    fn evaluate_generation(
        &mut self,
        evaluator: &Evaluator<'_>,
        parents: &Population,
        children: &mut Population,
        lineage: &[Lineage],
        threads: usize,
    ) -> Result<(), ModelError> {
        match self {
            EvalBackend::Incremental { slots, spare, .. } => {
                spare.resize_with(children.len(), EvalWorkspace::new);
                parallel::evaluate_generation(
                    evaluator, parents, slots, children, spare, lineage, threads,
                )?;
                std::mem::swap(slots, spare);
                Ok(())
            }
            EvalBackend::Rebuild { workspaces } => {
                parallel::evaluate_population_with(evaluator, children, threads, workspaces)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_model::instance::InstanceSpec;
    use wmn_model::rng::rng_from_seed;
    use wmn_placement::registry::AdHocMethod;

    fn quick_config(pop: usize, gens: usize) -> GaConfig {
        GaConfig::builder()
            .population_size(pop)
            .generations(gens)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(GaConfig::builder().population_size(0).build().is_err());
        assert!(GaConfig::builder()
            .population_size(4)
            .elitism(4)
            .build()
            .is_err());
        assert!(GaConfig::builder().crossover_rate(1.5).build().is_err());
        assert!(GaConfig::builder()
            .crossover_rate(f64::NAN)
            .build()
            .is_err());
        assert!(GaConfig::builder().build().is_ok());
    }

    #[test]
    fn best_so_far_is_monotone_and_matches_trace() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let engine = GaEngine::new(&evaluator, quick_config(12, 15));
        let mut rng = rng_from_seed(2);
        let outcome = engine
            .run(&PopulationInit::AdHoc(AdHocMethod::HotSpot), &mut rng)
            .unwrap();
        assert_eq!(outcome.trace.len(), 16);
        // With elitism >= 1 the per-generation best fitness is monotone.
        let mut prev = f64::NEG_INFINITY;
        for r in outcome.trace.records() {
            assert!(
                r.best_fitness() >= prev - 1e-12,
                "elitist best dropped at generation {}",
                r.generation()
            );
            prev = r.best_fitness();
        }
        assert!(
            (outcome.best_evaluation.fitness - prev).abs() < 1e-12,
            "outcome best must equal the final trace best"
        );
        assert!(instance.validate_placement(&outcome.best_placement).is_ok());
    }

    #[test]
    fn ga_improves_over_initial_population() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(3).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let engine = GaEngine::new(&evaluator, quick_config(24, 30));
        let mut rng = rng_from_seed(4);
        let outcome = engine
            .run(&PopulationInit::UniformRandom, &mut rng)
            .unwrap();
        let initial_best = outcome.trace.records()[0].best_fitness();
        assert!(
            outcome.best_evaluation.fitness > initial_best,
            "30 generations must improve on random init: {} -> {}",
            initial_best,
            outcome.best_evaluation.fitness
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(5).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let run = |seed| {
            let engine = GaEngine::new(&evaluator, quick_config(10, 8));
            engine
                .run(
                    &PopulationInit::AdHoc(AdHocMethod::Cross),
                    &mut rng_from_seed(seed),
                )
                .unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(9).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let serial = GaEngine::new(&evaluator, quick_config(10, 6));
        let mut parallel_cfg = quick_config(10, 6);
        parallel_cfg.threads = 4;
        let parallel_engine = GaEngine::new(&evaluator, parallel_cfg);
        let a = serial
            .run(
                &PopulationInit::AdHoc(AdHocMethod::Near),
                &mut rng_from_seed(11),
            )
            .unwrap();
        let b = parallel_engine
            .run(
                &PopulationInit::AdHoc(AdHocMethod::Near),
                &mut rng_from_seed(11),
            )
            .unwrap();
        assert_eq!(a.trace, b.trace, "thread count must not affect results");
    }

    #[test]
    fn elites_preserve_best_across_generations() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(13).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        // No crossover, no mutation: with elitism the best individual can
        // never get worse, and the population converges to clones.
        let config = GaConfig::builder()
            .population_size(8)
            .generations(10)
            .crossover_rate(0.0)
            .mutations(vec![])
            .build()
            .unwrap();
        let engine = GaEngine::new(&evaluator, config);
        let mut rng = rng_from_seed(14);
        let outcome = engine
            .run(&PopulationInit::UniformRandom, &mut rng)
            .unwrap();
        let first = outcome.trace.records()[0].best_fitness();
        let last = outcome.trace.last().unwrap().best_fitness();
        assert!(
            (first - last).abs() < 1e-12,
            "nothing can improve or degrade"
        );
    }
}

//! The neighborhood search driver (paper Algorithm 1).
//!
//! Starting from an initial solution (typically produced by an ad hoc
//! method), each **phase** computes the best neighbor under the configured
//! movement and moves to it if it improves the current solution. The
//! driver runs a fixed number of phases, recording the evolution of the
//! giant component ([`SearchTrace`]); a phase that finds no improvement
//! keeps the current solution and leaves a flat trace segment.

use crate::movement::Movement;
use crate::neighborhood::{best_neighbor, ExplorationBudget};
use crate::trace::{PhaseRecord, SearchTrace};
use rand::RngCore;
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::{Evaluation, Evaluator};
use wmn_model::placement::Placement;
use wmn_obs::{phase, Recorder};

/// Configuration of a neighborhood search run. Figure 4's effort is set
/// in one place, the experiment configuration (`ExperimentConfig::paper`:
/// 61 phases of 16 sampled neighbors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Neighbors examined per phase.
    pub budget: ExplorationBudget,
    /// Phases run, each recorded whether or not it improves the current
    /// solution.
    pub phases: usize,
}

/// Result of a neighborhood search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Best placement found.
    pub best_placement: Placement,
    /// Evaluation of the best placement.
    pub best_evaluation: Evaluation,
    /// Evaluation of the initial placement (for improvement reporting).
    pub initial_evaluation: Evaluation,
    /// Per-phase history.
    pub trace: SearchTrace,
}

/// Neighborhood search bound to an evaluator and a movement type.
///
/// # Examples
///
/// ```
/// use wmn_metrics::Evaluator;
/// use wmn_model::prelude::*;
/// use wmn_obs::NoopRecorder;
/// use wmn_search::movement::{SwapConfig, SwapMovement};
/// use wmn_search::neighborhood::ExplorationBudget;
/// use wmn_search::search::{NeighborhoodSearch, SearchConfig};
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let movement = SwapMovement::new(&instance, SwapConfig::default());
/// let config = SearchConfig {
///     budget: ExplorationBudget::sampled(8),
///     phases: 5,
/// };
/// let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), config);
///
/// let mut rng = rng_from_seed(3);
/// let initial = instance.random_placement(&mut rng);
/// let mut topo = evaluator.topology(&initial)?;
/// let outcome = search.run(&mut topo, &mut rng, &mut NoopRecorder);
/// assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct NeighborhoodSearch<'e, 'i> {
    evaluator: &'e Evaluator<'i>,
    movement: Box<dyn Movement>,
    config: SearchConfig,
}

impl<'e, 'i> NeighborhoodSearch<'e, 'i> {
    /// Creates a search with the given movement and configuration.
    pub fn new(
        evaluator: &'e Evaluator<'i>,
        movement: Box<dyn Movement>,
        config: SearchConfig,
    ) -> Self {
        NeighborhoodSearch {
            evaluator,
            movement,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> SearchConfig {
        self.config
    }

    /// Runs the search over `topo`, whose current state is the initial
    /// solution; build it with [`Evaluator::topology`], or reuse one (and
    /// its scratch buffers) across runs. Pin it to the full-rebuild
    /// reference engine with [`WmnTopology::set_connectivity_mode`] —
    /// results are identical either way. The topology is left at the
    /// search's final *current* state.
    ///
    /// The run emits telemetry to `recorder`: `search.ns.*` move counters
    /// plus the engine work-counter delta (`topology.*` / `connectivity.*`)
    /// of this run, attributed under a nested `search` → `ns` →
    /// propose/apply/evaluate phase scope (flat totals unchanged). With a
    /// disabled recorder the extra cost is one branch per run — results
    /// are bit-identical either way.
    pub fn run(
        &self,
        topo: &mut WmnTopology,
        rng: &mut dyn RngCore,
        recorder: &mut dyn Recorder,
    ) -> SearchOutcome {
        let engine_before = recorder.enabled().then(|| topo.engine_stats());
        let initial_evaluation = self.evaluator.evaluate_topology(topo);
        let mut current = initial_evaluation;
        let mut best_placement = topo.placement();
        let mut best_evaluation = initial_evaluation;
        let mut trace = SearchTrace::new();
        let mut proposed = 0;

        for phase in 1..=self.config.phases {
            let neighbor = best_neighbor(
                topo,
                self.evaluator,
                self.movement.as_ref(),
                self.config.budget,
                rng,
            );
            proposed += self.config.budget.count();
            let accepted = match neighbor {
                Some(n) if n.evaluation.fitness > current.fitness => {
                    let _ = n.action.apply(topo);
                    current = n.evaluation;
                    if current.fitness > best_evaluation.fitness {
                        best_evaluation = current;
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
        }

        if let Some(before) = engine_before {
            // The engine delta is the `apply` stage's.
            let engine = topo.engine_stats().delta_since(&before);
            let mut scope = phase(recorder, "search");
            let mut ns = phase(&mut scope, "ns");
            ns.counter("search.ns.phases", trace.len() as u64);
            phase(&mut ns, "propose").counter("search.ns.moves_proposed", proposed as u64);
            engine.record_counters(&mut phase(&mut ns, "apply"));
            phase(&mut ns, "evaluate")
                .counter("search.ns.moves_accepted", trace.accepted_count() as u64);
        }

        SearchOutcome {
            best_placement,
            best_evaluation,
            initial_evaluation,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movement::{RandomMovement, SwapConfig, SwapMovement};
    use wmn_model::instance::InstanceSpec;
    use wmn_model::rng::rng_from_seed;

    fn paper_setup(seed: u64) -> wmn_model::ProblemInstance {
        InstanceSpec::paper_normal()
            .unwrap()
            .generate(seed)
            .unwrap()
    }

    /// Runs `search` from `initial` over a fresh topology, unrecorded.
    fn run_from(
        search: &NeighborhoodSearch<'_, '_>,
        initial: &Placement,
        rng: &mut dyn RngCore,
    ) -> SearchOutcome {
        let mut topo = search.evaluator.topology(initial).unwrap();
        search.run(&mut topo, rng, &mut wmn_obs::NoopRecorder)
    }

    fn quick_config(phases: usize) -> SearchConfig {
        SearchConfig {
            budget: ExplorationBudget::sampled(8),
            phases,
        }
    }

    #[test]
    fn search_never_degrades() {
        let instance = paper_setup(1);
        let evaluator = Evaluator::paper_default(&instance);
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), quick_config(10));
        let mut rng = rng_from_seed(2);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&search, &initial, &mut rng);
        assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
        assert!(instance.validate_placement(&outcome.best_placement).is_ok());
    }

    #[test]
    fn trace_has_one_record_per_phase_in_fixed_mode() {
        let instance = paper_setup(3);
        let evaluator = Evaluator::paper_default(&instance);
        let movement = RandomMovement::new(&instance);
        let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), quick_config(15));
        let mut rng = rng_from_seed(4);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&search, &initial, &mut rng);
        assert_eq!(outcome.trace.len(), 15);
    }

    #[test]
    fn fitness_is_monotone_over_phases() {
        let instance = paper_setup(7);
        let evaluator = Evaluator::paper_default(&instance);
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), quick_config(20));
        let mut rng = rng_from_seed(8);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&search, &initial, &mut rng);
        let mut prev = 0.0f64;
        for p in outcome.trace.phases() {
            assert!(
                p.fitness() >= prev - 1e-12,
                "fitness dropped at phase {}",
                p.phase()
            );
            prev = p.fitness();
        }
    }

    #[test]
    fn swap_improves_giant_component_substantially() {
        // The Figure 4 claim at reduced scale: from a random placement, 30
        // swap phases should grow the giant component well beyond the
        // starting point.
        let instance = paper_setup(11);
        let evaluator = Evaluator::paper_default(&instance);
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let config = SearchConfig {
            budget: ExplorationBudget::sampled(16),
            phases: 30,
        };
        let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), config);
        let mut rng = rng_from_seed(12);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&search, &initial, &mut rng);
        let start = outcome.initial_evaluation.giant_size();
        let end = outcome.best_evaluation.giant_size();
        assert!(
            end >= start + 10,
            "swap search should grow the giant component: {start} -> {end}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let instance = paper_setup(13);
        let evaluator = Evaluator::paper_default(&instance);
        let initial = instance.random_placement(&mut rng_from_seed(1));
        let run = |seed: u64| {
            let movement = SwapMovement::new(&instance, SwapConfig::default());
            let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), quick_config(8));
            run_from(&search, &initial, &mut rng_from_seed(seed))
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.trace, b.trace);
    }
}

//! The neighborhood search driver (paper Algorithm 1).
//!
//! Starting from an initial solution (typically produced by an ad hoc
//! method), each **phase** computes the best neighbor under the configured
//! movement and moves to it if it improves the current solution. The paper
//! variant stops at the first non-improving phase; for figure generation
//! the driver can also run a fixed number of phases, recording the
//! evolution of the giant component ([`SearchTrace`]).

use crate::movement::Movement;
use crate::neighborhood::{best_neighbor, ExplorationBudget};
use crate::trace::{PhaseRecord, SearchTrace};
use rand::RngCore;
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::{Evaluation, Evaluator};
use wmn_model::placement::Placement;
use wmn_model::ModelError;
use wmn_obs::phase as obs_phase;
use wmn_obs::{NoopRecorder, Recorder};

/// Stopping behaviour of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoppingCondition {
    /// Hard cap on the number of phases.
    pub max_phases: usize,
    /// Stop at the first phase whose best neighbor does not improve the
    /// current solution (the literal Algorithm 1 behaviour). When `false`,
    /// non-improving phases are recorded (flat trace segments) and the
    /// search continues until `max_phases` — the Figure 4 mode.
    pub stop_on_first_non_improving: bool,
}

impl StoppingCondition {
    /// The paper's Algorithm 1: stop when the best neighbor stops
    /// improving, with a safety cap.
    pub fn paper_strict(max_phases: usize) -> Self {
        StoppingCondition {
            max_phases,
            stop_on_first_non_improving: true,
        }
    }

    /// Fixed-length run (Figure 4: 61 phases).
    pub fn fixed_phases(max_phases: usize) -> Self {
        StoppingCondition {
            max_phases,
            stop_on_first_non_improving: false,
        }
    }
}

impl Default for StoppingCondition {
    /// 61 fixed phases — the Figure 4 configuration.
    fn default() -> Self {
        StoppingCondition::fixed_phases(61)
    }
}

/// Configuration of a neighborhood search run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchConfig {
    /// Neighbors examined per phase.
    pub budget: ExplorationBudget,
    /// When to stop.
    pub stopping: StoppingCondition,
}

/// Result of a search run.
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

impl SearchOutcome {
    /// Fitness improvement over the initial solution.
    pub fn improvement(&self) -> f64 {
        self.best_evaluation.fitness - self.initial_evaluation.fitness
    }
}

/// Neighborhood search bound to an evaluator and a movement type.
///
/// # Examples
///
/// ```
/// use wmn_metrics::Evaluator;
/// use wmn_model::prelude::*;
/// use wmn_search::movement::{SwapConfig, SwapMovement};
/// use wmn_search::neighborhood::ExplorationBudget;
/// use wmn_search::search::{NeighborhoodSearch, SearchConfig, StoppingCondition};
///
/// let instance = InstanceSpec::paper_normal()?.generate(1)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let movement = SwapMovement::new(&instance, SwapConfig::default());
/// let config = SearchConfig {
///     budget: ExplorationBudget::sampled(8),
///     stopping: StoppingCondition::fixed_phases(5),
/// };
/// let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), config);
///
/// let mut rng = rng_from_seed(3);
/// let initial = instance.random_placement(&mut rng);
/// let outcome = search.run(&initial, &mut rng)?;
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

    /// The movement's name (for figure legends).
    pub fn movement_name(&self) -> &'static str {
        self.movement.name()
    }

    /// The active configuration.
    pub fn config(&self) -> SearchConfig {
        self.config
    }

    /// Runs the search from `initial`.
    ///
    /// # Errors
    ///
    /// Propagates placement validation for `initial`.
    pub fn run(
        &self,
        initial: &Placement,
        rng: &mut dyn RngCore,
    ) -> Result<SearchOutcome, ModelError> {
        let mut topo = self.evaluator.topology(initial)?;
        Ok(self.run_with_topology(&mut topo, rng))
    }

    /// Runs the search over a caller-provided topology (its current state
    /// is the initial solution). Lets callers reuse one topology — and its
    /// internal scratch buffers — across many runs, or pin the search to
    /// the full-rebuild reference engine via
    /// [`WmnTopology::set_connectivity_mode`]; results are identical to
    /// [`NeighborhoodSearch::run`] either way. The topology is left at the
    /// search's final *current* state.
    pub fn run_with_topology(
        &self,
        topo: &mut WmnTopology,
        rng: &mut dyn RngCore,
    ) -> SearchOutcome {
        self.run_with_topology_recorded(topo, rng, &mut NoopRecorder)
    }

    /// Like [`run_with_topology`](Self::run_with_topology), additionally
    /// emitting run telemetry to `recorder`: `search.ns.*` move counters
    /// plus the engine work-counter delta (`topology.*` / `connectivity.*`)
    /// attributable to this run, all attributed under a nested
    /// `search` → `ns` → propose/apply/evaluate phase scope (flat totals
    /// unchanged). With a disabled recorder the extra cost is
    /// one branch per run — results are bit-identical either way.
    pub fn run_with_topology_recorded(
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
        let mut proposed = 0u64;

        for phase in 1..=self.config.stopping.max_phases {
            let neighbor = best_neighbor(
                topo,
                self.evaluator,
                self.movement.as_ref(),
                self.config.budget,
                rng,
            );
            proposed += self.config.budget.count() as u64;
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
            if !accepted && self.config.stopping.stop_on_first_non_improving {
                break;
            }
        }

        if let Some(before) = engine_before {
            // Nested phase attribution (flat totals unchanged): the run's
            // counters land under `search.ns` with the propose/apply/
            // evaluate split of the phase loop; the engine-work delta is
            // the apply stage's, with connectivity staged insert/delete.
            let delta = topo.engine_stats().delta_since(&before);
            let mut scope = obs_phase(recorder, "search");
            let mut driver = obs_phase(&mut scope, "ns");
            driver.counter("search.ns.phases", trace.len() as u64);
            {
                let mut propose = obs_phase(&mut driver, "propose");
                propose.counter("search.ns.moves_proposed", proposed);
            }
            {
                let mut apply = obs_phase(&mut driver, "apply");
                delta.record_counters_staged(&mut apply);
            }
            {
                let mut evaluate = obs_phase(&mut driver, "evaluate");
                evaluate.counter("search.ns.moves_accepted", trace.accepted_count() as u64);
            }
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

    fn quick_config(phases: usize) -> SearchConfig {
        SearchConfig {
            budget: ExplorationBudget::sampled(8),
            stopping: StoppingCondition::fixed_phases(phases),
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
        let outcome = search.run(&initial, &mut rng).unwrap();
        assert!(outcome.improvement() >= 0.0);
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
        let outcome = search.run(&initial, &mut rng).unwrap();
        assert_eq!(outcome.trace.len(), 15);
    }

    #[test]
    fn strict_mode_stops_at_first_non_improving_phase() {
        let instance = paper_setup(5);
        let evaluator = Evaluator::paper_default(&instance);
        let movement = RandomMovement::new(&instance);
        let config = SearchConfig {
            budget: ExplorationBudget::sampled(4),
            stopping: StoppingCondition::paper_strict(200),
        };
        let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), config);
        let mut rng = rng_from_seed(6);
        let initial = instance.random_placement(&mut rng);
        let outcome = search.run(&initial, &mut rng).unwrap();
        // Stopped before the cap, and the last phase is the non-improving one.
        assert!(outcome.trace.len() < 200);
        let last = outcome.trace.phases().last().unwrap();
        assert!(!last.accepted);
        // Every earlier phase improved.
        for p in &outcome.trace.phases()[..outcome.trace.len() - 1] {
            assert!(p.accepted, "phase {} should have improved", p.phase());
        }
    }

    #[test]
    fn fitness_is_monotone_over_phases() {
        let instance = paper_setup(7);
        let evaluator = Evaluator::paper_default(&instance);
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), quick_config(20));
        let mut rng = rng_from_seed(8);
        let initial = instance.random_placement(&mut rng);
        let outcome = search.run(&initial, &mut rng).unwrap();
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
            stopping: StoppingCondition::fixed_phases(30),
        };
        let search = NeighborhoodSearch::new(&evaluator, Box::new(movement), config);
        let mut rng = rng_from_seed(12);
        let initial = instance.random_placement(&mut rng);
        let outcome = search.run(&initial, &mut rng).unwrap();
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
            search.run(&initial, &mut rng_from_seed(seed)).unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.best_placement, b.best_placement);
        assert_eq!(a.trace, b.trace);
    }
}

//! Tabu search over placements.
//!
//! Extension beyond the paper: the search always moves to the best
//! non-tabu neighbor — even when it is worse than the current solution —
//! while a short-term memory (the tabu list of recently touched routers)
//! prevents cycling. An aspiration criterion overrides the tabu when a
//! move would beat the best solution ever seen.

use crate::movement::{MoveAction, Movement};
use crate::telemetry::{record_run, RunReport};
use crate::trace::{PhaseRecord, SearchTrace};
use rand::RngCore;
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::{Evaluation, Evaluator};
use wmn_model::node::RouterId;
use wmn_model::placement::Placement;
use wmn_obs::Recorder;

/// Configuration for [`TabuSearch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabuConfig {
    /// Tabu tenure: how many phases a touched router stays tabu.
    pub tenure: usize,
    /// Candidate moves sampled per phase.
    pub candidates_per_phase: usize,
    /// Number of phases.
    pub phases: usize,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            tenure: 8,
            candidates_per_phase: 32,
            phases: 61,
        }
    }
}

/// Result of a tabu search run.
#[derive(Debug, Clone, PartialEq)]
pub struct TabuOutcome {
    /// Best placement encountered anywhere in the run.
    pub best_placement: Placement,
    /// Evaluation of the best placement.
    pub best_evaluation: Evaluation,
    /// Evaluation of the initial placement.
    pub initial_evaluation: Evaluation,
    /// Per-phase history (current solution per phase).
    pub trace: SearchTrace,
    /// Phases where the aspiration criterion overrode a tabu.
    pub aspirations: usize,
}

/// Tabu search bound to an evaluator and a movement.
///
/// # Examples
///
/// ```
/// use wmn_metrics::Evaluator;
/// use wmn_model::prelude::*;
/// use wmn_obs::NoopRecorder;
/// use wmn_search::movement::{SwapConfig, SwapMovement};
/// use wmn_search::tabu::{TabuConfig, TabuSearch};
///
/// let instance = InstanceSpec::paper_normal()?.generate(8)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let tabu = TabuSearch::new(
///     &evaluator,
///     Box::new(SwapMovement::new(&instance, SwapConfig::default())),
///     TabuConfig { phases: 5, ..TabuConfig::default() },
/// );
/// let mut rng = rng_from_seed(3);
/// let initial = instance.random_placement(&mut rng);
/// let mut topo = evaluator.topology(&initial)?;
/// let outcome = tabu.run(&mut topo, &mut rng, &mut NoopRecorder);
/// assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct TabuSearch<'e, 'i> {
    evaluator: &'e Evaluator<'i>,
    movement: Box<dyn Movement>,
    config: TabuConfig,
}

fn touched_routers(action: &MoveAction) -> [Option<RouterId>; 2] {
    match *action {
        MoveAction::Relocate { router, .. } => [Some(router), None],
        MoveAction::Swap { a, b } => [Some(a), Some(b)],
    }
}

impl<'e, 'i> TabuSearch<'e, 'i> {
    /// Creates a tabu search.
    pub fn new(
        evaluator: &'e Evaluator<'i>,
        movement: Box<dyn Movement>,
        config: TabuConfig,
    ) -> Self {
        TabuSearch {
            evaluator,
            movement,
            config,
        }
    }

    /// Runs over `topo`, whose current state is the initial solution, and
    /// emits `search.tabu.*` move counters plus the run's engine
    /// work-counter delta to `recorder`; see
    /// [`NeighborhoodSearch::run`](crate::search::NeighborhoodSearch::run).
    pub fn run(
        &self,
        topo: &mut WmnTopology,
        rng: &mut dyn RngCore,
        recorder: &mut dyn Recorder,
    ) -> TabuOutcome {
        let engine_before = recorder.enabled().then(|| topo.engine_stats());
        let initial_evaluation = self.evaluator.evaluate_topology(topo);
        let mut current = initial_evaluation;
        let mut best_evaluation = initial_evaluation;
        let mut best_placement = topo.placement();
        let mut trace = SearchTrace::new();
        // Tabu list: each router's expiry phase. A router is tabu through
        // phase `tabu_until[router]`, so checks are O(1) and entries expire
        // on their own.
        let mut tabu_until = vec![0usize; topo.router_count()];
        let mut aspirations = 0usize;

        for phase in 1..=self.config.phases {
            let mut chosen: Option<(MoveAction, Evaluation, bool)> = None;
            for _ in 0..self.config.candidates_per_phase {
                let action = self.movement.propose(topo, rng);
                let undo = action.apply(topo);
                let eval = self.evaluator.evaluate_topology(topo);
                undo.undo(topo);

                let is_tabu = touched_routers(&action)
                    .into_iter()
                    .flatten()
                    .any(|r| tabu_until[r.index()] >= phase);
                let aspires = eval.fitness > best_evaluation.fitness;
                if is_tabu && !aspires {
                    continue;
                }
                let better = match &chosen {
                    None => true,
                    Some((_, e, _)) => eval.fitness > e.fitness,
                };
                if better {
                    chosen = Some((action, eval, is_tabu));
                }
            }

            let accepted = if let Some((action, eval, was_tabu)) = chosen {
                let _ = action.apply(topo);
                current = eval;
                if was_tabu {
                    aspirations += 1;
                }
                for r in touched_routers(&action).into_iter().flatten() {
                    tabu_until[r.index()] = phase + self.config.tenure;
                }
                if current.fitness > best_evaluation.fitness {
                    best_evaluation = current;
                    best_placement = topo.placement();
                }
                true
            } else {
                false
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
            let report = RunReport {
                driver: "tabu",
                phases: ("search.tabu.phases", trace.len()),
                proposed: (
                    "search.tabu.moves_proposed",
                    self.config.phases * self.config.candidates_per_phase,
                ),
                evaluate: &[
                    ("search.tabu.moves_accepted", trace.accepted_count()),
                    ("search.tabu.aspirations", aspirations),
                ],
            };
            record_run(recorder, &topo.engine_stats().delta_since(&before), report);
        }

        TabuOutcome {
            best_placement,
            best_evaluation,
            initial_evaluation,
            trace,
            aspirations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movement::{RandomMovement, SwapConfig, SwapMovement};
    use wmn_model::instance::InstanceSpec;
    use wmn_model::placement::Placement;
    use wmn_model::rng::rng_from_seed;

    /// Runs `tabu` from `initial` over a fresh topology, unrecorded.
    fn run_from(
        tabu: &TabuSearch<'_, '_>,
        initial: &Placement,
        rng: &mut dyn RngCore,
    ) -> TabuOutcome {
        let mut topo = tabu.evaluator.topology(initial).unwrap();
        tabu.run(&mut topo, rng, &mut wmn_obs::NoopRecorder)
    }

    #[test]
    fn best_never_below_initial() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let tabu = TabuSearch::new(
            &evaluator,
            Box::new(RandomMovement::new(&instance)),
            TabuConfig {
                phases: 15,
                ..TabuConfig::default()
            },
        );
        let mut rng = rng_from_seed(2);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&tabu, &initial, &mut rng);
        assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
        assert!(instance.validate_placement(&outcome.best_placement).is_ok());
        assert_eq!(outcome.trace.len(), 15);
    }

    #[test]
    fn improves_giant_component_with_swap_movement() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(3).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let tabu = TabuSearch::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            TabuConfig {
                phases: 25,
                candidates_per_phase: 16,
                ..TabuConfig::default()
            },
        );
        let mut rng = rng_from_seed(4);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&tabu, &initial, &mut rng);
        assert!(
            outcome.best_evaluation.giant_size() >= outcome.initial_evaluation.giant_size() + 8
        );
    }

    #[test]
    fn moves_even_when_no_improvement_exists() {
        // Unlike Algorithm 1's strict mode, tabu keeps moving: over many
        // phases the number of accepted phases should equal the phase count
        // (random relocations of distinct routers are almost never all tabu).
        let instance = InstanceSpec::paper_normal().unwrap().generate(5).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let tabu = TabuSearch::new(
            &evaluator,
            Box::new(RandomMovement::new(&instance)),
            TabuConfig {
                phases: 10,
                tenure: 2,
                candidates_per_phase: 16,
            },
        );
        let mut rng = rng_from_seed(6);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&tabu, &initial, &mut rng);
        assert_eq!(outcome.trace.accepted_count(), 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(7).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let initial = instance.random_placement(&mut rng_from_seed(1));
        let run = |seed| {
            let tabu = TabuSearch::new(
                &evaluator,
                Box::new(SwapMovement::new(&instance, SwapConfig::default())),
                TabuConfig {
                    phases: 8,
                    ..TabuConfig::default()
                },
            );
            run_from(&tabu, &initial, &mut rng_from_seed(seed))
        };
        assert_eq!(run(9).trace, run(9).trace);
    }
}

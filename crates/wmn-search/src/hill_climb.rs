//! First-improvement hill climbing.
//!
//! A lighter alternative to the best-neighbor search of Algorithm 1: each
//! phase samples movements one at a time and accepts the **first** one that
//! improves the current solution, instead of evaluating the full budget.
//! Part of the "full featured local search methods" the paper lists as
//! future work.

use crate::movement::Movement;
use crate::search::SearchOutcome;
use crate::telemetry::{record_run, RunReport};
use crate::trace::{PhaseRecord, SearchTrace};
use rand::RngCore;
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::Evaluator;
use wmn_obs::Recorder;

/// Configuration for [`HillClimb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HillClimbConfig {
    /// Maximum phases (each phase = one accepted move or exhaustion).
    pub max_phases: usize,
    /// Samples per phase before declaring the phase non-improving.
    pub samples_per_phase: usize,
    /// Stop after this many consecutive non-improving phases.
    pub patience: usize,
}

impl Default for HillClimbConfig {
    fn default() -> Self {
        HillClimbConfig {
            max_phases: 61,
            samples_per_phase: 32,
            patience: 3,
        }
    }
}

/// First-improvement hill climber.
///
/// # Examples
///
/// ```
/// use wmn_metrics::Evaluator;
/// use wmn_model::prelude::*;
/// use wmn_obs::NoopRecorder;
/// use wmn_search::hill_climb::{HillClimb, HillClimbConfig};
/// use wmn_search::movement::{SwapConfig, SwapMovement};
///
/// let instance = InstanceSpec::paper_normal()?.generate(2)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let movement = SwapMovement::new(&instance, SwapConfig::default());
/// let climber = HillClimb::new(&evaluator, Box::new(movement), HillClimbConfig {
///     max_phases: 5,
///     ..HillClimbConfig::default()
/// });
/// let mut rng = rng_from_seed(1);
/// let initial = instance.random_placement(&mut rng);
/// let mut topo = evaluator.topology(&initial)?;
/// let outcome = climber.run(&mut topo, &mut rng, &mut NoopRecorder);
/// assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct HillClimb<'e, 'i> {
    evaluator: &'e Evaluator<'i>,
    movement: Box<dyn Movement>,
    config: HillClimbConfig,
}

impl<'e, 'i> HillClimb<'e, 'i> {
    /// Creates a hill climber.
    pub fn new(
        evaluator: &'e Evaluator<'i>,
        movement: Box<dyn Movement>,
        config: HillClimbConfig,
    ) -> Self {
        HillClimb {
            evaluator,
            movement,
            config,
        }
    }

    /// Runs over `topo`, whose current state is the initial solution, and
    /// emits `search.hc.*` move counters plus the run's engine
    /// work-counter delta to `recorder`; see
    /// [`NeighborhoodSearch::run`](crate::search::NeighborhoodSearch::run).
    pub fn run(
        &self,
        topo: &mut WmnTopology,
        rng: &mut dyn RngCore,
        recorder: &mut dyn Recorder,
    ) -> SearchOutcome {
        let engine_before = recorder.enabled().then(|| topo.engine_stats());
        let initial_evaluation = self.evaluator.evaluate_topology(topo);
        let mut current = initial_evaluation;
        let mut trace = SearchTrace::new();
        let mut stale_phases = 0usize;
        let mut proposed = 0;

        for phase in 1..=self.config.max_phases {
            let mut accepted = false;
            for _ in 0..self.config.samples_per_phase {
                let action = self.movement.propose(topo, rng);
                let undo = action.apply(topo);
                let eval = self.evaluator.evaluate_topology(topo);
                proposed += 1;
                if eval.fitness > current.fitness {
                    current = eval;
                    accepted = true;
                    break; // first improvement: keep the applied move
                }
                undo.undo(topo);
            }
            trace.push(PhaseRecord::new(
                phase,
                current.fitness,
                current.giant_size(),
                current.covered_clients(),
                accepted,
            ));
            stale_phases = if accepted { 0 } else { stale_phases + 1 };
            if stale_phases >= self.config.patience {
                break;
            }
        }

        if let Some(before) = engine_before {
            let report = RunReport {
                driver: "hc",
                phases: ("search.hc.phases", trace.len()),
                proposed: ("search.hc.moves_proposed", proposed),
                evaluate: &[("search.hc.moves_accepted", trace.accepted_count())],
            };
            record_run(recorder, &topo.engine_stats().delta_since(&before), report);
        }

        SearchOutcome {
            best_placement: topo.placement(),
            best_evaluation: current,
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
    use wmn_model::placement::Placement;
    use wmn_model::rng::rng_from_seed;

    /// Runs `climber` from `initial` over a fresh topology, unrecorded.
    fn run_from(
        climber: &HillClimb<'_, '_>,
        initial: &Placement,
        rng: &mut dyn RngCore,
    ) -> SearchOutcome {
        let mut topo = climber.evaluator.topology(initial).unwrap();
        climber.run(&mut topo, rng, &mut wmn_obs::NoopRecorder)
    }

    #[test]
    fn never_degrades_and_validates() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let movement = SwapMovement::new(&instance, SwapConfig::default());
        let climber = HillClimb::new(
            &evaluator,
            Box::new(movement),
            HillClimbConfig {
                max_phases: 12,
                ..HillClimbConfig::default()
            },
        );
        let mut rng = rng_from_seed(2);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&climber, &initial, &mut rng);
        assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
        assert!(instance.validate_placement(&outcome.best_placement).is_ok());
    }

    #[test]
    fn patience_stops_stalled_runs() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(3).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        // A movement that can never improve: relocate router 0 onto its own
        // position — fitness never rises, so patience must trigger.
        #[derive(Debug)]
        struct NoOpMovement;
        impl Movement for NoOpMovement {
            fn name(&self) -> &'static str {
                "NoOp"
            }
            fn propose(
                &self,
                topo: &wmn_graph::topology::WmnTopology,
                _rng: &mut dyn RngCore,
            ) -> crate::movement::MoveAction {
                crate::movement::MoveAction::Relocate {
                    router: wmn_model::RouterId(0),
                    to: topo.position(wmn_model::RouterId(0)),
                }
            }
        }
        let climber = HillClimb::new(
            &evaluator,
            Box::new(NoOpMovement),
            HillClimbConfig {
                max_phases: 100,
                samples_per_phase: 2,
                patience: 3,
            },
        );
        let mut rng = rng_from_seed(4);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&climber, &initial, &mut rng);
        assert_eq!(
            outcome.trace.len(),
            3,
            "stops after `patience` stale phases"
        );
        assert_eq!(outcome.trace.accepted_count(), 0);
    }

    #[test]
    fn random_movement_climbs_too() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(5).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let climber = HillClimb::new(
            &evaluator,
            Box::new(RandomMovement::new(&instance)),
            HillClimbConfig {
                max_phases: 15,
                samples_per_phase: 16,
                patience: 15,
            },
        );
        let mut rng = rng_from_seed(6);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&climber, &initial, &mut rng);
        assert!(outcome.best_evaluation.fitness > outcome.initial_evaluation.fitness);
    }
}

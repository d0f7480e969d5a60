//! Simulated annealing over placements.
//!
//! Extension beyond the paper (listed there as future work on "full
//! featured local search methods"): a Metropolis acceptance rule lets the
//! search escape the local optima that strict best-neighbor search
//! (Algorithm 1) stops at. Cooling is geometric.

use crate::movement::Movement;
use crate::telemetry::{record_run, RunReport};
use crate::trace::{PhaseRecord, SearchTrace};
use rand::{Rng, RngCore};
use wmn_graph::topology::WmnTopology;
use wmn_metrics::evaluator::{Evaluation, Evaluator};
use wmn_model::placement::Placement;
use wmn_obs::Recorder;

/// Configuration for [`SimulatedAnnealing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingConfig {
    /// Starting temperature (in fitness units; the default suits the
    /// `[0, 1]`-normalized weighted fitness).
    pub initial_temperature: f64,
    /// Geometric cooling factor per phase, in `(0, 1)`.
    pub cooling: f64,
    /// Moves attempted per temperature level (phase).
    pub moves_per_phase: usize,
    /// Number of phases (temperature levels).
    pub phases: usize,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            initial_temperature: 0.05,
            cooling: 0.92,
            moves_per_phase: 32,
            phases: 61,
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingOutcome {
    /// Best placement encountered anywhere in the run.
    pub best_placement: Placement,
    /// Evaluation of the best placement.
    pub best_evaluation: Evaluation,
    /// Evaluation of the initial placement.
    pub initial_evaluation: Evaluation,
    /// Per-phase history (current — not best — solution per phase).
    pub trace: SearchTrace,
    /// Total accepted moves (including uphill-in-cost acceptances).
    pub accepted_moves: usize,
}

/// Simulated annealing bound to an evaluator and a movement.
///
/// # Examples
///
/// ```
/// use wmn_metrics::Evaluator;
/// use wmn_model::prelude::*;
/// use wmn_obs::NoopRecorder;
/// use wmn_search::annealing::{AnnealingConfig, SimulatedAnnealing};
/// use wmn_search::movement::RandomMovement;
///
/// let instance = InstanceSpec::paper_normal()?.generate(4)?;
/// let evaluator = Evaluator::paper_default(&instance);
/// let sa = SimulatedAnnealing::new(
///     &evaluator,
///     Box::new(RandomMovement::new(&instance)),
///     AnnealingConfig { phases: 5, moves_per_phase: 8, ..AnnealingConfig::default() },
/// );
/// let mut rng = rng_from_seed(9);
/// let initial = instance.random_placement(&mut rng);
/// let mut topo = evaluator.topology(&initial)?;
/// let outcome = sa.run(&mut topo, &mut rng, &mut NoopRecorder);
/// assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct SimulatedAnnealing<'e, 'i> {
    evaluator: &'e Evaluator<'i>,
    movement: Box<dyn Movement>,
    config: AnnealingConfig,
}

impl<'e, 'i> SimulatedAnnealing<'e, 'i> {
    /// Creates an annealer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < cooling < 1` and `initial_temperature > 0`.
    pub fn new(
        evaluator: &'e Evaluator<'i>,
        movement: Box<dyn Movement>,
        config: AnnealingConfig,
    ) -> Self {
        assert!(
            config.cooling > 0.0 && config.cooling < 1.0,
            "cooling factor must be in (0, 1), got {}",
            config.cooling
        );
        assert!(
            config.initial_temperature > 0.0,
            "initial temperature must be positive"
        );
        SimulatedAnnealing {
            evaluator,
            movement,
            config,
        }
    }

    /// Runs over `topo`, whose current state is the initial solution, and
    /// emits `search.sa.*` move counters plus the run's engine
    /// work-counter delta to `recorder`; see
    /// [`NeighborhoodSearch::run`](crate::search::NeighborhoodSearch::run).
    pub fn run(
        &self,
        topo: &mut WmnTopology,
        rng: &mut dyn RngCore,
        recorder: &mut dyn Recorder,
    ) -> AnnealingOutcome {
        let engine_before = recorder.enabled().then(|| topo.engine_stats());
        let initial_evaluation = self.evaluator.evaluate_topology(topo);
        let mut current = initial_evaluation;
        let mut best_evaluation = initial_evaluation;
        let mut best_placement = topo.placement();
        let mut trace = SearchTrace::new();
        let mut temperature = self.config.initial_temperature;
        let mut accepted_moves = 0usize;

        for phase in 1..=self.config.phases {
            let mut phase_accepted = false;
            for _ in 0..self.config.moves_per_phase {
                let action = self.movement.propose(topo, rng);
                let undo = action.apply(topo);
                let eval = self.evaluator.evaluate_topology(topo);
                let delta = eval.fitness - current.fitness;
                let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temperature).exp();
                if accept {
                    current = eval;
                    accepted_moves += 1;
                    phase_accepted = true;
                    if current.fitness > best_evaluation.fitness {
                        best_evaluation = current;
                        best_placement = topo.placement();
                    }
                } else {
                    undo.undo(topo);
                }
            }
            trace.push(PhaseRecord::new(
                phase,
                current.fitness,
                current.giant_size(),
                current.covered_clients(),
                phase_accepted,
            ));
            temperature *= self.config.cooling;
        }

        if let Some(before) = engine_before {
            let report = RunReport {
                driver: "sa",
                phases: ("search.sa.phases", trace.len()),
                proposed: (
                    "search.sa.moves_proposed",
                    self.config.phases * self.config.moves_per_phase,
                ),
                evaluate: &[("search.sa.moves_accepted", accepted_moves)],
            };
            record_run(recorder, &topo.engine_stats().delta_since(&before), report);
        }

        AnnealingOutcome {
            best_placement,
            best_evaluation,
            initial_evaluation,
            trace,
            accepted_moves,
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

    /// Runs `sa` from `initial` over a fresh topology, unrecorded.
    fn run_from(
        sa: &SimulatedAnnealing<'_, '_>,
        initial: &Placement,
        rng: &mut dyn RngCore,
    ) -> AnnealingOutcome {
        let mut topo = sa.evaluator.topology(initial).unwrap();
        sa.run(&mut topo, rng, &mut wmn_obs::NoopRecorder)
    }

    fn quick() -> AnnealingConfig {
        AnnealingConfig {
            phases: 12,
            moves_per_phase: 12,
            ..AnnealingConfig::default()
        }
    }

    #[test]
    fn best_never_below_initial() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let sa = SimulatedAnnealing::new(
            &evaluator,
            Box::new(RandomMovement::new(&instance)),
            quick(),
        );
        let mut rng = rng_from_seed(2);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&sa, &initial, &mut rng);
        assert!(outcome.best_evaluation.fitness >= outcome.initial_evaluation.fitness);
        assert!(instance.validate_placement(&outcome.best_placement).is_ok());
        assert_eq!(outcome.trace.len(), 12);
    }

    #[test]
    fn accepts_some_downhill_moves_at_high_temperature() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(3).unwrap();
        // Use the normalized weighted fitness so temperature units are
        // comparable to fitness deltas (the lexicographic scalarization has
        // deltas in the hundreds).
        let evaluator = Evaluator::new(
            &instance,
            wmn_graph::topology::TopologyConfig::paper_default(),
            wmn_metrics::fitness::FitnessFunction::weighted(0.7).expect("valid alpha"),
        );
        let sa = SimulatedAnnealing::new(
            &evaluator,
            Box::new(RandomMovement::new(&instance)),
            AnnealingConfig {
                initial_temperature: 10.0, // essentially accept-everything
                cooling: 0.99,
                moves_per_phase: 32,
                phases: 4,
            },
        );
        let mut rng = rng_from_seed(4);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&sa, &initial, &mut rng);
        // At T=10 with fitness deltas << 1, acceptance ratio approaches 1.
        assert!(
            outcome.accepted_moves as f64 >= 0.9 * (4.0 * 32.0),
            "hot annealer should accept nearly everything, got {}",
            outcome.accepted_moves
        );
    }

    #[test]
    fn swap_movement_anneals_to_good_solutions() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(5).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let sa = SimulatedAnnealing::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            AnnealingConfig {
                phases: 25,
                moves_per_phase: 16,
                ..AnnealingConfig::default()
            },
        );
        let mut rng = rng_from_seed(6);
        let initial = instance.random_placement(&mut rng);
        let outcome = run_from(&sa, &initial, &mut rng);
        assert!(
            outcome.best_evaluation.giant_size() >= outcome.initial_evaluation.giant_size() + 8,
            "annealed swap should grow the giant component: {} -> {}",
            outcome.initial_evaluation.giant_size(),
            outcome.best_evaluation.giant_size()
        );
    }

    #[test]
    #[should_panic(expected = "cooling")]
    fn rejects_bad_cooling() {
        let instance = InstanceSpec::paper_normal().unwrap().generate(1).unwrap();
        let evaluator = Evaluator::paper_default(&instance);
        let _ = SimulatedAnnealing::new(
            &evaluator,
            Box::new(RandomMovement::new(&instance)),
            AnnealingConfig {
                cooling: 1.5,
                ..AnnealingConfig::default()
            },
        );
    }
}

//! Local search shoot-out: the paper's swap and random movements side by
//! side with the extension algorithms (hill climbing, simulated annealing,
//! tabu search), all from the same initial placement.
//!
//! ```bash
//! cargo run --release --example search_comparison
//! ```

use wmn::prelude::*;

fn main() -> Result<(), ModelError> {
    let instance = InstanceSpec::paper_normal()?.generate(2009)?;
    let evaluator = Evaluator::paper_default(&instance);
    let initial = instance.random_placement(&mut rng_from_seed(1));
    let topology = || evaluator.topology(&initial);
    let start = evaluator.evaluate(&initial)?;
    println!("instance: {instance}");
    println!(
        "initial random placement: giant {}/64, coverage {}/192",
        start.giant_size(),
        start.covered_clients()
    );
    println!();
    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "algorithm", "giant", "coverage", "phases"
    );
    println!("{}", "-".repeat(60));

    let phases = 61;
    let budget = 16;

    // Paper Figure 4, swap movement.
    {
        let search = NeighborhoodSearch::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            SearchConfig {
                budget: ExplorationBudget::sampled(budget),
                stopping: StoppingCondition::fixed_phases(phases),
            },
        );
        let o = search.run(&mut topology()?, &mut rng_from_seed(2), &mut NoopRecorder);
        print_row(
            "neighborhood search (swap)",
            &o.best_evaluation,
            o.trace.len(),
        );
    }

    // Paper Figure 4, random movement baseline.
    {
        let search = NeighborhoodSearch::new(
            &evaluator,
            Box::new(RandomMovement::new(&instance)),
            SearchConfig {
                budget: ExplorationBudget::sampled(budget),
                stopping: StoppingCondition::fixed_phases(phases),
            },
        );
        let o = search.run(&mut topology()?, &mut rng_from_seed(2), &mut NoopRecorder);
        print_row(
            "neighborhood search (random)",
            &o.best_evaluation,
            o.trace.len(),
        );
    }

    // Extensions: the paper's "full featured local search" future work.
    {
        let climber = HillClimb::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            HillClimbConfig {
                max_phases: phases,
                samples_per_phase: budget,
                patience: 10,
            },
        );
        let o = climber.run(&mut topology()?, &mut rng_from_seed(2), &mut NoopRecorder);
        print_row(
            "hill climb (swap, first-improve)",
            &o.best_evaluation,
            o.trace.len(),
        );
    }
    {
        let sa = SimulatedAnnealing::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            AnnealingConfig {
                initial_temperature: 25.0, // lexicographic fitness units
                cooling: 0.9,
                moves_per_phase: budget,
                phases,
            },
        );
        let o = sa.run(&mut topology()?, &mut rng_from_seed(2), &mut NoopRecorder);
        print_row(
            "simulated annealing (swap)",
            &o.best_evaluation,
            o.trace.len(),
        );
    }
    {
        let tabu = TabuSearch::new(
            &evaluator,
            Box::new(SwapMovement::new(&instance, SwapConfig::default())),
            TabuConfig {
                tenure: 8,
                candidates_per_phase: budget,
                phases,
            },
        );
        let o = tabu.run(&mut topology()?, &mut rng_from_seed(2), &mut NoopRecorder);
        print_row("tabu search (swap)", &o.best_evaluation, o.trace.len());
    }

    println!();
    println!("The swap movement dominates the random baseline (paper Figure 4);");
    println!("the extension searches trade a little wall-clock for escape from");
    println!("the plateaus where strict best-neighbor search stops.");
    Ok(())
}

fn print_row(name: &str, e: &Evaluation, phases: usize) {
    println!(
        "{:<28} {:>7}/64 {:>7}/192 {:>8}",
        name,
        e.giant_size(),
        e.covered_clients(),
        phases
    );
}

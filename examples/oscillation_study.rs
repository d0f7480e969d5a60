//! Robustness under radio oscillation: the paper's routers have coverage
//! "oscillating between minimum and maximum values" — so how stable is an
//! optimized placement when every radius is re-drawn?
//!
//! This study optimizes a placement once, then re-evaluates it under many
//! independent re-oscillations of the radii, reporting the distribution of
//! the giant component and coverage.
//!
//! ```bash
//! cargo run --release --example oscillation_study
//! ```

use wmn::metrics::RunningStats;
use wmn::prelude::*;

fn main() -> Result<(), ModelError> {
    let instance = InstanceSpec::paper_normal()?.generate(2009)?;
    let evaluator = Evaluator::paper_default(&instance);

    // Optimize once with HotSpot + swap search.
    let mut rng = rng_from_seed(3);
    let initial = AdHocMethod::HotSpot.place(&instance, &mut rng);
    let search = NeighborhoodSearch::new(
        &evaluator,
        Box::new(SwapMovement::new(&instance, SwapConfig::default())),
        SearchConfig {
            budget: ExplorationBudget::sampled(16),
            stopping: StoppingCondition::fixed_phases(61),
        },
    );
    let mut topo = evaluator.topology(&initial)?;
    let outcome = search.run(&mut topo, &mut rng, &mut NoopRecorder);
    let nominal = outcome.best_evaluation;
    println!("optimized under the generation-time radii:");
    println!(
        "  giant {}/64, coverage {}/192",
        nominal.giant_size(),
        nominal.covered_clients()
    );

    // Re-oscillate the radii many times and re-evaluate the same placement.
    let trials = 200;
    let mut giant = RunningStats::new();
    let mut coverage = RunningStats::new();
    let mut osc_rng = rng_from_seed(4);
    for _ in 0..trials {
        let mut oscillated = instance.clone();
        oscillated.oscillate_radii(&mut osc_rng);
        let eval = Evaluator::paper_default(&oscillated).evaluate(&outcome.best_placement)?;
        giant.push(eval.giant_size() as f64);
        coverage.push(eval.covered_clients() as f64);
    }

    println!();
    println!("under {trials} independent radius re-oscillations:");
    println!(
        "  giant component: mean {:.1} (sd {:.1}, min {:.0}, max {:.0})",
        giant.mean(),
        giant.sample_std_dev(),
        giant.min().unwrap_or(f64::NAN),
        giant.max().unwrap_or(f64::NAN)
    );
    println!(
        "  coverage:        mean {:.1} (sd {:.1}, min {:.0}, max {:.0})",
        coverage.mean(),
        coverage.sample_std_dev(),
        coverage.min().unwrap_or(f64::NAN),
        coverage.max().unwrap_or(f64::NAN)
    );
    println!();
    println!(
        "retention: {:.0}% of the optimized giant component survives a re-oscillation on average",
        100.0 * giant.mean() / nominal.giant_size().max(1) as f64
    );
    println!("(placements tuned to one radius draw degrade under oscillation —");
    println!(" the gap is the safety margin a deployment planner must budget)");
    Ok(())
}

//! Municipal mesh rollout: compare GA initialization strategies on an
//! "urban sprawl" (Weibull) client field — the paper's scenario 2 at a
//! planner-friendly scale.
//!
//! ```bash
//! cargo run --release --example municipal_rollout
//! ```

use wmn::prelude::*;

fn main() -> Result<(), ModelError> {
    // A district: 48 routers, 256 households, Weibull sprawl from the old
    // town corner.
    let area = Area::square(160.0)?;
    let sprawl = ClientDistribution::try_weibull(1.5, area.width() / 3.0)?;
    let spec = InstanceSpec::new(area, 48, 256, sprawl, RadioProfile::new(3.0, 10.0)?)?;
    let instance = spec.generate(7)?;
    let evaluator = Evaluator::paper_default(&instance);

    let config = GaConfig::builder()
        .population_size(32)
        .generations(150)
        .threads(4)
        .build()
        .expect("valid GA config");

    println!("district: {instance}");
    println!("GA: population 32, 150 generations, elitist, tournament(3)");
    println!();
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "initialization", "giant (init)", "giant (final)", "coverage"
    );
    println!("{}", "-".repeat(62));

    let inits = [
        AdHocMethod::Random,
        AdHocMethod::Corners,
        AdHocMethod::Cross,
        AdHocMethod::HotSpot,
    ]
    .map(PopulationInit::AdHoc);

    let mut best: Option<(String, Evaluation)> = None;
    for init in inits {
        let mut rng = rng_from_seed(11);
        let engine = GaEngine::new(&evaluator, config.clone());
        let outcome = engine.run(&init, &mut rng, &mut NoopRecorder)?;
        let first = outcome.trace.records()[0];
        let e = outcome.best_evaluation;
        println!(
            "{:<22} {:>9}/48 {:>9}/48 {:>8}/256",
            init.name(),
            first.best_giant(),
            e.giant_size(),
            e.covered_clients()
        );
        if best.as_ref().is_none_or(|(_, b)| e.fitness > b.fitness) {
            best = Some((init.name(), e));
        }
    }

    let (name, e) = best.expect("at least one init ran");
    println!();
    println!(
        "recommended plan: {name} initialization -> {} connected routers covering {} households",
        e.giant_size(),
        e.covered_clients()
    );
    Ok(())
}

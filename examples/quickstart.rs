//! Quickstart: evaluate all seven ad hoc placement methods on the paper's
//! evaluation instance and print a Table-1-style comparison.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use wmn::prelude::*;

fn main() -> Result<(), ModelError> {
    // 64 routers (radii oscillating in [2, 8]), 192 clients ~ N(64, 12.8),
    // on a 128 x 128 area — the instance behind the paper's Table 1.
    let instance = InstanceSpec::paper_normal()?.generate(42)?;
    let evaluator = Evaluator::paper_default(&instance);

    println!("instance: {instance}");
    println!();
    println!(
        "{:<10} {:>15} {:>15}",
        "method", "giant component", "covered clients"
    );
    println!("{}", "-".repeat(42));

    let mut rng = rng_from_seed(7);
    for method in AdHocMethod::all() {
        let placement = method.place(&instance, &mut rng);
        let eval = evaluator.evaluate(&placement)?;
        println!(
            "{:<10} {:>9}/64 {:>11}/192",
            method.name(),
            eval.giant_size(),
            eval.covered_clients()
        );
    }

    println!();
    println!("Ad hoc methods are fast but far from optimal (paper §3);");
    println!("see the `campus_wifi` and `municipal_rollout` examples");
    println!("for the neighborhood search and GA that refine them.");
    Ok(())
}

//! Campus WiFi planning on the paper's Figure 4 instance: 192 clients
//! clustered around the middle of a 128 × 128 campus (Normal, `N(64,
//! 12.8)`). Place the 64 routers with HotSpot, refine them with the paper's
//! swap-movement neighborhood search, and render the deployment as an
//! ASCII map.
//!
//! ```bash
//! cargo run --release --example campus_wifi
//! ```

use wmn::prelude::*;

/// Renders routers (`#` = giant component, `o` = other) and clients
/// (`.` / `:` for covered) on a character grid.
fn render_map(topo: &WmnTopology, instance: &ProblemInstance, cols: usize, rows: usize) -> String {
    let area = instance.area();
    let mut grid = vec![vec![' '; cols]; rows];
    let cell = |p: Point| {
        let cx = ((p.x / area.width()) * (cols - 1) as f64).round() as usize;
        let cy = ((p.y / area.height()) * (rows - 1) as f64).round() as usize;
        (cx, rows - 1 - cy)
    };
    let covered = topo.covered_mask();
    for (c, &is_covered) in instance.clients().iter().zip(&covered) {
        let (cx, cy) = cell(c.position());
        grid[cy][cx] = if is_covered { ':' } else { '.' };
    }
    for i in 0..topo.router_count() {
        let id = RouterId(i);
        let (cx, cy) = cell(topo.position(id));
        grid[cy][cx] = if topo.in_giant(id) { '#' } else { 'o' };
    }
    let mut out = String::new();
    out.push_str(&format!("+{}+\n", "-".repeat(cols)));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!("+{}+\n", "-".repeat(cols)));
    out
}

fn main() -> Result<(), ModelError> {
    let instance = InstanceSpec::paper_normal()?.generate(2024)?;
    let evaluator = Evaluator::paper_default(&instance);
    let (routers, clients) = (instance.router_count(), instance.client_count());

    // HotSpot is the natural fit: strongest routers onto the densest
    // client zones.
    let mut rng = rng_from_seed(5);
    let initial = AdHocMethod::HotSpot.place(&instance, &mut rng);
    let before = evaluator.evaluate(&initial)?;

    // Refine with the swap movement (paper Algorithm 3), at Figure 4's
    // effort: 61 phases of 16 sampled neighbors.
    let movement = SwapMovement::new(&instance, SwapConfig::default());
    let search = NeighborhoodSearch::new(
        &evaluator,
        Box::new(movement),
        SearchConfig {
            budget: ExplorationBudget::sampled(16),
            phases: 61,
        },
    );
    let mut topo = evaluator.topology(&initial)?;
    let outcome = search.run(&mut topo, &mut rng, &mut NoopRecorder);
    let after = outcome.best_evaluation;

    println!("campus: {instance}");
    println!();
    println!(
        "HotSpot standalone : giant {:>2}/{routers} routers, {:>3}/{clients} clients covered",
        before.giant_size(),
        before.covered_clients()
    );
    println!(
        "after swap search  : giant {:>2}/{routers} routers, {:>3}/{clients} clients covered",
        after.giant_size(),
        after.covered_clients()
    );
    println!();

    let topo = evaluator.topology(&outcome.best_placement)?;
    println!(
        "deployment map (# router in mesh, o isolated router, : covered client, . uncovered):"
    );
    println!("{}", render_map(&topo, &instance, 64, 32));
    Ok(())
}

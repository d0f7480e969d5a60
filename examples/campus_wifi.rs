//! Campus WiFi planning: clients cluster around three buildings (a hotspot
//! mixture); place 24 routers with HotSpot, then refine with the paper's
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
    for (i, c) in instance.clients().iter().enumerate() {
        let (cx, cy) = cell(c.position());
        grid[cy][cx] = if topo.covered_mask()[i] { ':' } else { '.' };
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
    let area = Area::new(200.0, 120.0)?;
    // Three campus buildings of different sizes.
    let buildings = ClientDistribution::try_hotspots(vec![
        Hotspot {
            center: Point::new(40.0, 60.0),
            sigma: 9.0,
            weight: 3.0, // main lecture hall
        },
        Hotspot {
            center: Point::new(120.0, 90.0),
            sigma: 7.0,
            weight: 2.0, // library
        },
        Hotspot {
            center: Point::new(160.0, 30.0),
            sigma: 6.0,
            weight: 1.0, // dorms
        },
    ])?;
    let spec = InstanceSpec::new(area, 24, 150, buildings, RadioProfile::new(6.0, 14.0)?)?;
    let instance = spec.generate(2024)?;
    let evaluator = Evaluator::paper_default(&instance);

    // HotSpot is the natural fit: strongest routers onto the busiest
    // buildings.
    let mut rng = rng_from_seed(5);
    let initial = AdHocMethod::HotSpot.place(&instance, &mut rng);
    let before = evaluator.evaluate(&initial)?;

    // Refine with the swap movement (paper Algorithm 3).
    let movement = SwapMovement::new(&instance, SwapConfig::default());
    let search = NeighborhoodSearch::new(
        &evaluator,
        Box::new(movement),
        SearchConfig {
            budget: ExplorationBudget::sampled(24),
            stopping: StoppingCondition::fixed_phases(40),
        },
    );
    let mut topo = evaluator.topology(&initial)?;
    let outcome = search.run(&mut topo, &mut rng, &mut NoopRecorder);
    let after = outcome.best_evaluation;

    println!("campus: {instance}");
    println!();
    println!(
        "HotSpot standalone : giant {:>2}/24 routers, {:>3}/150 clients covered",
        before.giant_size(),
        before.covered_clients()
    );
    println!(
        "after swap search  : giant {:>2}/24 routers, {:>3}/150 clients covered",
        after.giant_size(),
        after.covered_clients()
    );
    println!();

    let topo = evaluator.topology(&outcome.best_placement)?;
    println!(
        "deployment map (# router in mesh, o isolated router, : covered client, . uncovered):"
    );
    println!("{}", render_map(&topo, &instance, 100, 30));
    Ok(())
}

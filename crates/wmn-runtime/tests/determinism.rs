//! The crate-level determinism contract: a grid of seeded stochastic jobs
//! produces bit-identical, identically-ordered results for any worker
//! count.

use rand::Rng as _;
use wmn_obs::RobustnessStats;
use wmn_runtime::grid::{domain, Cell};
use wmn_runtime::pool::{FailureKind, RetryPolicy, Runtime};
use wmn_runtime::sink::{drain, MemorySink};

/// A miniature "experiment": walk a cell's RNG for a while and digest the
/// stream, so any seeding or ordering slip changes the output.
fn simulate(cell: &Cell, root: u64) -> u64 {
    let mut rng = cell.rng(root);
    let mut digest = cell.seed(root);
    for _ in 0..512 {
        digest = digest
            .wrapping_mul(0x100000001B3)
            .wrapping_add(rng.gen::<u64>());
    }
    digest
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for scenario in 0..3u64 {
        for method in 0..7u64 {
            for dom in [domain::STANDALONE, domain::GA] {
                cells.push(Cell::new(
                    format!("s{scenario}-m{method}-d{dom}"),
                    &[dom, scenario, method],
                ));
            }
        }
    }
    cells
}

#[test]
fn any_thread_count_is_bit_identical_to_serial() {
    let reference: Vec<u64> = Runtime::serial().execute(grid(), |_, cell| simulate(&cell, 2009));
    assert_eq!(reference.len(), 42);
    for threads in [2, 4, 8] {
        let parallel = Runtime::new(threads).execute(grid(), |_, cell| simulate(&cell, 2009));
        assert_eq!(parallel, reference, "threads = {threads}");
    }
}

#[test]
fn every_cell_has_a_distinct_stream() {
    let outputs = Runtime::new(4).execute(grid(), |_, cell| simulate(&cell, 7));
    let unique: std::collections::HashSet<u64> = outputs.iter().copied().collect();
    assert_eq!(unique.len(), outputs.len());
}

#[test]
fn sinks_observe_results_in_grid_order() {
    let cells = grid();
    let labels: Vec<String> = cells.iter().map(|c| c.label().to_owned()).collect();
    let results = Runtime::new(8).execute(cells, |index, cell| {
        vec![
            cell.label().to_owned(),
            simulate(&cell, 1).to_string(),
            index.to_string(),
        ]
    });

    let mut sink = MemorySink::new();
    let header: Vec<String> = ["cell", "digest", "index"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    drain(&mut sink, &header, &results).unwrap();

    assert_eq!(sink.columns, header);
    for (i, row) in sink.rows.iter().enumerate() {
        assert_eq!(row[0], labels[i], "row {i} out of grid order");
        assert_eq!(row[2], i.to_string());
    }
}

#[test]
fn root_seed_selects_a_different_universe() {
    let a = Runtime::new(4).execute(grid(), |_, cell| simulate(&cell, 1));
    let b = Runtime::new(4).execute(grid(), |_, cell| simulate(&cell, 2));
    assert_ne!(a, b);
}

#[test]
fn errors_are_reported_deterministically() {
    for threads in [1, 2, 8] {
        let err = Runtime::new(threads)
            .try_execute_isolated(
                grid(),
                RetryPolicy::default(),
                None,
                &mut RobustnessStats::default(),
                |ctx, cell| {
                    if ctx.index >= 5 {
                        Err(format!("cell {} failed", cell.label()))
                    } else {
                        Ok(ctx.index)
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err.index, 5, "threads = {threads}");
        assert_eq!(
            err.kind,
            FailureKind::Error(String::from("cell s0-m2-d1 failed")),
            "threads = {threads}"
        );
    }
}

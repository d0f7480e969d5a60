//! The crate-level determinism contract: a grid of seeded stochastic jobs
//! produces bit-identical, identically-ordered results for any worker
//! count.

use rand::Rng as _;
use wmn_obs::RobustnessStats;
use wmn_runtime::grid::{domain, Cell};
use wmn_runtime::pool::{FailureKind, JobFailure, JobPolicy, Runtime};

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

/// Runs `work` over every cell of the grid, fault-free and unrecorded.
fn run_grid<R: Send>(
    runtime: Runtime,
    work: impl Fn(usize, &Cell) -> Result<R, String> + Sync,
) -> Result<Vec<R>, JobFailure<String>> {
    let jobs: Vec<(usize, Cell)> = grid().into_iter().enumerate().collect();
    runtime.run(
        jobs,
        &JobPolicy::default(),
        &mut RobustnessStats::default(),
        None,
        |(index, cell), _| work(*index, cell),
    )
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
    let run = |runtime| run_grid(runtime, |_, cell| Ok(simulate(cell, 2009))).unwrap();
    let reference: Vec<u64> = run(Runtime::new(1));
    assert_eq!(reference.len(), 42);
    for threads in [2, 4, 8] {
        assert_eq!(run(Runtime::new(threads)), reference, "threads = {threads}");
    }
}

#[test]
fn every_cell_has_a_distinct_stream() {
    let outputs = run_grid(Runtime::new(4), |_, cell| Ok(simulate(cell, 7))).unwrap();
    let unique: std::collections::HashSet<u64> = outputs.iter().copied().collect();
    assert_eq!(unique.len(), outputs.len());
}

/// Whatever consumes the results (the experiment writers render them as
/// rows) sees them in grid order, however the workers finished.
#[test]
fn sinks_observe_results_in_grid_order() {
    let labels: Vec<String> = grid().iter().map(|c| c.label().to_owned()).collect();
    let results = run_grid(Runtime::new(8), |index, cell| {
        Ok((cell.label().to_owned(), simulate(cell, 1), index))
    })
    .unwrap();

    assert_eq!(results.len(), labels.len());
    for (i, (label, digest, index)) in results.iter().enumerate() {
        assert_eq!(label, &labels[i], "result {i} out of grid order");
        assert_eq!(*index, i);
        assert_eq!(*digest, simulate(&grid()[i], 1));
    }
}

#[test]
fn root_seed_selects_a_different_universe() {
    let run = |root| run_grid(Runtime::new(4), |_, cell| Ok(simulate(cell, root))).unwrap();
    let (a, b) = (run(1), run(2));
    assert_ne!(a, b);
}

#[test]
fn errors_are_reported_deterministically() {
    for threads in [1, 2, 8] {
        let err = run_grid(Runtime::new(threads), |index, cell| {
            if index >= 5 {
                Err(format!("cell {} failed", cell.label()))
            } else {
                Ok(index)
            }
        })
        .unwrap_err();
        assert_eq!(err.index, 5, "threads = {threads}");
        assert_eq!(
            err.kind,
            FailureKind::Error(String::from("cell s0-m2-d1 failed")),
            "threads = {threads}"
        );
    }
}

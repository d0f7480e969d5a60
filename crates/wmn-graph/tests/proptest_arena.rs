//! Property tests for the arena-backed incremental engine.
//!
//! Random interleavings of single moves, swaps, batches, and undos drive
//! the slab-arena storage (adjacency lists, disk-client caches, the
//! epoch-stamped batch mask) through every repair path, and after each
//! operation the engine must match the full-rebuild reference.
//! [`WmnTopology::assert_consistent`] does the heavy lifting: beyond the
//! observable state (adjacency, components, masks, cover counts) it
//! asserts the slab internals — span bounds, power-of-two capacities,
//! acyclic free lists, and that live plus free blocks tile the arena
//! exactly — so a leaked or overlapped block fails here even when the
//! lists it corrupts happen to read back correctly.

use proptest::prelude::*;
use wmn_graph::topology::WmnTopology;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::InstanceSpec;
use wmn_model::node::RouterId;
use wmn_model::rng::rng_from_seed;

const N_ROUTERS: usize = 16;
const SIDE: f64 = 64.0;

/// One step of an interleaved operation stream.
#[derive(Debug, Clone)]
enum Op {
    /// `move_router` to a fresh position.
    Move { i: usize, x: f64, y: f64 },
    /// `move_router`, then undo it with the returned old position.
    MoveUndo { i: usize, x: f64, y: f64 },
    /// `swap_routers` (self-swaps included: must be a no-op).
    Swap { a: usize, b: usize },
    /// One `apply_moves` batch, duplicates and all.
    Batch { moves: Vec<(usize, f64, f64)> },
    /// An `apply_moves` batch immediately reverted by its inverse batch.
    BatchUndo { moves: Vec<(usize, f64, f64)> },
}

fn coord() -> impl Strategy<Value = f64> {
    0.0..SIDE
}

fn batch_moves() -> impl Strategy<Value = Vec<(usize, f64, f64)>> {
    proptest::collection::vec((0..N_ROUTERS, coord(), coord()), 1..8)
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored proptest shim has no `prop_oneof`; a discriminant
    // drawn alongside every field picks the variant uniformly.
    (
        0usize..5,
        0..N_ROUTERS,
        coord(),
        coord(),
        0..N_ROUTERS,
        batch_moves(),
    )
        .prop_map(|(kind, i, x, y, b, moves)| match kind {
            0 => Op::Move { i, x, y },
            1 => Op::MoveUndo { i, x, y },
            2 => Op::Swap { a: i, b },
            3 => Op::Batch { moves },
            _ => Op::BatchUndo { moves },
        })
}

fn build_topology(seed: u64) -> WmnTopology {
    let area = Area::square(SIDE).unwrap();
    let spec = InstanceSpec::new(
        area,
        N_ROUTERS,
        24,
        wmn_model::distribution::ClientDistribution::Uniform,
        wmn_model::radio::RadioProfile::paper_default(),
    )
    .unwrap();
    let instance = spec.generate(seed).unwrap();
    let mut rng = rng_from_seed(seed ^ 0x2a);
    let placement = instance.random_placement(&mut rng);
    WmnTopology::build(&instance, &placement).unwrap()
}

fn to_batch(moves: &[(usize, f64, f64)]) -> Vec<(RouterId, Point)> {
    moves
        .iter()
        .map(|&(i, x, y)| (RouterId(i), Point::new(x, y)))
        .collect()
}

proptest! {
    // assert_consistent clones and rebuilds after every op; keep the case
    // count modest so the suite stays fast in CI.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arena_engine_survives_interleaved_op_streams(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op(), 1..12),
    ) {
        let mut topo = build_topology(seed);
        for op in &ops {
            match op {
                Op::Move { i, x, y } => {
                    topo.move_router(RouterId(*i), Point::new(*x, *y));
                }
                Op::MoveUndo { i, x, y } => {
                    let before = topo.position(RouterId(*i));
                    let old = topo.move_router(RouterId(*i), Point::new(*x, *y));
                    prop_assert_eq!(old, before, "move_router must return the old position");
                    topo.move_router(RouterId(*i), old);
                    prop_assert_eq!(topo.position(RouterId(*i)), before);
                }
                Op::Swap { a, b } => {
                    let (pa, pb) = (topo.position(RouterId(*a)), topo.position(RouterId(*b)));
                    topo.swap_routers(RouterId(*a), RouterId(*b));
                    prop_assert_eq!(topo.position(RouterId(*a)), pb);
                    prop_assert_eq!(topo.position(RouterId(*b)), pa);
                }
                Op::Batch { moves } => {
                    topo.apply_moves(&to_batch(moves), None);
                }
                Op::BatchUndo { moves } => {
                    // Inverse batch: each touched router back to where it
                    // stood before the batch (last write wins inside the
                    // batch, so one restore per distinct router suffices).
                    let batch = to_batch(moves);
                    let inverse: Vec<(RouterId, Point)> = batch
                        .iter()
                        .map(|&(id, _)| (id, topo.position(id)))
                        .collect();
                    let before: Vec<Point> =
                        (0..topo.router_count()).map(|i| topo.position(RouterId(i))).collect();
                    topo.apply_moves(&batch, None);
                    topo.apply_moves(&inverse, None);
                    for (i, &p) in before.iter().enumerate() {
                        prop_assert_eq!(topo.position(RouterId(i)), p);
                    }
                }
            }
            // Full-rebuild reference + slab-internal invariants.
            topo.assert_consistent();
        }
        // The stream's end state agrees with a from-scratch rebuild of the
        // same placement on the headline observables too.
        let mut fresh = topo.clone();
        fresh.rebuild_full();
        prop_assert_eq!(topo.giant_size(), fresh.giant_size());
        prop_assert_eq!(topo.covered_count(), fresh.covered_count());
    }
}

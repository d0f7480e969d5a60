//! Property-based tests pinning the incremental (delta-evaluation) engine
//! of [`WmnTopology`] to the full-rebuild ground truth: random interleaved
//! `move_router` / `swap_routers` / undo sequences must keep
//! `assert_consistent` green, and the in-place workspace rebuild must
//! equal a fresh build. Instance sides reach down to 15, where the
//! mutual-range mesh is mostly one giant component, so moves flip the
//! giant membership of routers they did not move. A last property pins
//! the placement-stamp invariant: equal stamps mean bit-identical
//! positions, and `moves_since` reports exactly the routers a move or
//! swap changed.

use proptest::prelude::*;
use rand::{Rng, RngCore};
use std::collections::HashMap;
use wmn_graph::topology::{ConnectivityMode, WmnTopology};
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::node::RouterId;
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;
use wmn_model::Placement;

/// One step of an interleaved mutation sequence, generated from raw
/// integers so shrinking stays meaningful.
#[derive(Debug, Clone, Copy)]
enum Step {
    Move { router: usize, x: f64, y: f64 },
    Swap { a: usize, b: usize },
    UndoLast,
}

fn step_strategy(side: f64) -> impl Strategy<Value = Step> {
    (
        0usize..4,
        any::<usize>(),
        any::<usize>(),
        // Deliberately propose some out-of-area points: move_router clamps.
        -10.0..side + 10.0,
        -10.0..side + 10.0,
    )
        .prop_map(|(kind, a, b, x, y)| match kind {
            0 | 1 => Step::Move { router: a, x, y },
            2 => Step::Swap { a, b },
            _ => Step::UndoLast,
        })
}

fn instance_strategy() -> impl Strategy<Value = ProblemInstance> {
    // Log-uniform sides from 15 to 160: the small areas give
    // mutual-range meshes whose giant holds most routers, so writes flip
    // the giant membership of routers they did not move; the large ones
    // give sparse meshes of many components.
    (0.0..1.0f64, 2usize..24, 1usize..48, any::<u64>()).prop_map(|(u, routers, clients, seed)| {
        let side = 15.0 * (160.0 / 15.0f64).powf(u);
        let area = Area::square(side).unwrap();
        InstanceSpec::new(
            area,
            routers,
            clients,
            ClientDistribution::Uniform,
            RadioProfile::paper_default(),
        )
        .unwrap()
        .generate(seed)
        .unwrap()
    })
}

/// Applies `steps` to a topology, tracking undo tokens, checking the full
/// invariant set after every mutation.
fn run_sequence(instance: &ProblemInstance, steps: &[Step], seed: u64) {
    let mut rng = rng_from_seed(seed);
    let placement = instance.random_placement(&mut rng);
    let mut topo = WmnTopology::build(instance, &placement).unwrap();
    let n = topo.router_count();
    // Undo log: either "move router back to point" or "re-swap the pair".
    let mut undo_log: Vec<Step> = Vec::new();
    for step in steps {
        match *step {
            Step::Move { router, x, y } => {
                let id = RouterId(router % n);
                let old = topo.move_router(id, Point::new(x, y));
                undo_log.push(Step::Move {
                    router: id.index(),
                    x: old.x,
                    y: old.y,
                });
            }
            Step::Swap { a, b } => {
                let (a, b) = (RouterId(a % n), RouterId(b % n));
                topo.swap_routers(a, b);
                undo_log.push(Step::Swap {
                    a: a.index(),
                    b: b.index(),
                });
            }
            Step::UndoLast => match undo_log.pop() {
                Some(Step::Move { router, x, y }) => {
                    let _ = topo.move_router(RouterId(router), Point::new(x, y));
                }
                Some(Step::Swap { a, b }) => {
                    topo.swap_routers(RouterId(a), RouterId(b));
                }
                _ => {}
            },
        }
        topo.assert_consistent();
    }
    // Unwind whatever is left: the state must return to the initial one.
    let initial = WmnTopology::build(instance, &placement).unwrap();
    while let Some(undo) = undo_log.pop() {
        match undo {
            Step::Move { router, x, y } => {
                let _ = topo.move_router(RouterId(router), Point::new(x, y));
            }
            Step::Swap { a, b } => topo.swap_routers(RouterId(a), RouterId(b)),
            Step::UndoLast => unreachable!("never logged"),
        }
    }
    topo.assert_consistent();
    assert_eq!(topo.placement(), initial.placement());
    assert_eq!(topo.giant_size(), initial.giant_size());
    assert_eq!(topo.covered_count(), initial.covered_count());
    assert_eq!(topo.covered_mask(), initial.covered_mask());
}

/// A position write as [`WmnTopology::placement_stamp`] defines exact
/// reverts: a router's move between two bit patterns, or a swap of a pair.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Write {
    Move {
        router: usize,
        from: (u64, u64),
        to: (u64, u64),
    },
    Swap(usize, usize),
}

impl Write {
    fn reverts(&self, prev: &Write) -> bool {
        match (*self, *prev) {
            (
                Write::Move { router, to, .. },
                Write::Move {
                    router: r, from, ..
                },
            ) => router == r && to == from,
            (Write::Swap(a, b), Write::Swap(c, d)) => (a, b) == (c, d),
            _ => false,
        }
    }
}

fn bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// How the stream last changed a topology's routers, so it can undo it.
#[derive(Debug, Clone, Copy)]
enum Undo {
    MoveBack { router: usize, to: Point },
    SwapAgain(usize, usize),
}

type Seen = HashMap<u64, Vec<(u64, u64)>>;

/// Records `topo`'s positions under its stamp the first time the stamp
/// appears, and asserts they are bit-identical every later time.
fn check_stamp(topo: &WmnTopology, seen: &mut Seen) {
    let positions: Vec<(u64, u64)> = topo
        .placement()
        .as_slice()
        .iter()
        .map(|&p| bits(p))
        .collect();
    let stamp = topo.placement_stamp();
    let first = seen.entry(stamp).or_insert_with(|| positions.clone());
    assert_eq!(
        *first, positions,
        "stamp {stamp} recurred with other positions"
    );
}

/// Applies one move or swap and checks its stamp against the contract,
/// given the topology's previous revertible write `prev` (updated).
/// Returns whether the write exactly reverted `prev`, and its own undo.
fn stamped_write(
    topo: &mut WmnTopology,
    prev: &mut Option<(Write, u64)>,
    seen: &mut Seen,
    op: Undo,
) -> (bool, Undo) {
    let before = topo.placement_stamp();
    let (write, undo) = match op {
        Undo::MoveBack { router, to } => {
            let from = topo.move_router(RouterId(router), to);
            let to = topo.position(RouterId(router));
            let write = Write::Move {
                router,
                from: bits(from),
                to: bits(to),
            };
            (write, Undo::MoveBack { router, to: from })
        }
        Undo::SwapAgain(a, b) => {
            topo.swap_routers(RouterId(a), RouterId(b));
            (Write::Swap(a.min(b), a.max(b)), op)
        }
    };
    let after = topo.placement_stamp();
    let exact = match *prev {
        Some((p, stamp)) if write.reverts(&p) => {
            assert_eq!(after, stamp, "an exact revert must restore the stamp");
            true
        }
        _ => {
            assert!(
                !seen.contains_key(&after),
                "a write must take a fresh stamp"
            );
            false
        }
    };
    *prev = Some((write, before));
    check_stamp(topo, seen);
    check_moves_since(topo, before, seen);
    (exact, undo)
}

/// Asserts that `moves_since(before)`, just after a move or swap made at
/// stamp `before`, reports what it changed: the positions first seen under
/// `before`, with the reported routers moved from their reported positions
/// to their current ones, are the current positions.
fn check_moves_since(topo: &WmnTopology, before: u64, seen: &Seen) {
    let mut positions = seen[&before].clone();
    let moves = topo
        .moves_since(before)
        .expect("a move or swap reports its routers");
    for (id, from) in moves {
        assert_eq!(
            positions[id.index()],
            bits(from),
            "router {id:?}'s previous position"
        );
        positions[id.index()] = bits(topo.position(id));
    }
    let current: Vec<(u64, u64)> = topo
        .placement()
        .as_slice()
        .iter()
        .map(|&p| bits(p))
        .collect();
    assert_eq!(
        positions, current,
        "the reported moves must give the current positions"
    );
    assert!(
        topo.moves_since(topo.placement_stamp()).is_none(),
        "no write was made at the current stamp"
    );
}

/// Runs `ops` seeded writes over two topologies of `instance`, checking
/// every stamp against the contract of [`WmnTopology::placement_stamp`].
/// Returns how many exact reverts restored a stamp, and how many reverts
/// were inexact (one ulp off, another swap pair, after an intervening
/// write, or after a copy).
fn run_stamp_stream(instance: &ProblemInstance, seed: u64, ops: usize) -> (usize, usize) {
    let mut rng = rng_from_seed(seed);
    let area = instance.area();
    let n = instance.router_count();
    let mut topos = [(); 2]
        .map(|()| WmnTopology::build(instance, &instance.random_placement(&mut rng)).unwrap());
    let mut seen = Seen::new();
    // Per topology: its previous move or swap while no other write has
    // followed it (with the stamp from before it), and an undo log that
    // outlives other writes and copies.
    let mut prev: [Option<(Write, u64)>; 2] = [None, None];
    let mut log: [Vec<Undo>; 2] = [Vec::new(), Vec::new()];
    let (mut restored, mut inexact) = (0, 0);
    for topo in &topos {
        check_stamp(topo, &mut seen);
    }
    let random_point = |rng: &mut dyn RngCore| {
        Point::new(
            rng.gen_range(-5.0..area.width() + 5.0),
            rng.gen_range(-5.0..area.height() + 5.0),
        )
    };
    let random_pair = |rng: &mut dyn RngCore| {
        let a = rng.gen_range(0..n);
        (a, (a + rng.gen_range(1..n)) % n)
    };
    for _ in 0..ops {
        let t = rng.gen_range(0..2);
        let [a, b] = &mut topos;
        let (topo, other) = if t == 0 { (a, b) } else { (b, a) };
        let stamp_before = topo.placement_stamp();
        match rng.gen_range(0..14) {
            // A search probe: a move or swap, then its undo.
            0..=2 => {
                let op = if rng.gen_bool(0.5) {
                    let router = rng.gen_range(0..n);
                    Undo::MoveBack {
                        router,
                        to: random_point(&mut rng),
                    }
                } else {
                    let (a, b) = random_pair(&mut rng);
                    Undo::SwapAgain(a, b)
                };
                let (_, undo) = stamped_write(topo, &mut prev[t], &mut seen, op);
                let (exact, _) = stamped_write(topo, &mut prev[t], &mut seen, undo);
                assert!(exact, "undoing the previous write must be an exact revert");
                restored += 1;
            }
            // A logged move or swap.
            3..=5 => {
                let op = if rng.gen_bool(0.7) {
                    let router = rng.gen_range(0..n);
                    Undo::MoveBack {
                        router,
                        to: random_point(&mut rng),
                    }
                } else {
                    let (a, b) = random_pair(&mut rng);
                    Undo::SwapAgain(a, b)
                };
                let (_, undo) = stamped_write(topo, &mut prev[t], &mut seen, op);
                log[t].push(undo);
            }
            // The last logged undo: exact unless another write or a copy
            // came between.
            6..=7 => {
                if let Some(undo) = log[t].pop() {
                    let (exact, _) = stamped_write(topo, &mut prev[t], &mut seen, undo);
                    restored += usize::from(exact);
                    inexact += usize::from(!exact);
                }
            }
            // The last logged undo one ulp off, or a swap of another pair.
            8 => {
                let off = match log[t].pop() {
                    Some(Undo::MoveBack { router, to }) => {
                        let x = if to.x > 0.0 {
                            to.x.next_down()
                        } else {
                            to.x.next_up()
                        };
                        Some(Undo::MoveBack {
                            router,
                            to: Point::new(x, to.y),
                        })
                    }
                    Some(Undo::SwapAgain(a, b)) if n >= 3 => {
                        let c = (0..n).find(|&c| c != a && c != b).unwrap();
                        Some(Undo::SwapAgain(a, c))
                    }
                    _ => None,
                };
                if let Some(off) = off {
                    // Exact only if it happens to revert a later write
                    // (say, a probe that swapped `a` and `c`).
                    let (exact, _) = stamped_write(topo, &mut prev[t], &mut seen, off);
                    restored += usize::from(exact);
                    inexact += usize::from(!exact);
                }
            }
            // The undo of the logged write before the last one.
            9 => {
                if log[t].len() >= 2 {
                    let undo = log[t].remove(log[t].len() - 2);
                    let (exact, _) = stamped_write(topo, &mut prev[t], &mut seen, undo);
                    restored += usize::from(exact);
                    inexact += usize::from(!exact);
                }
            }
            // A batch of one to five moves, with or without a donor.
            10 => {
                let moves: Vec<(RouterId, Point)> = (0..rng.gen_range(1..6))
                    .map(|_| (RouterId(rng.gen_range(0..n)), random_point(&mut rng)))
                    .collect();
                topo.apply_moves(&moves, rng.gen_bool(0.5).then_some(&*other));
                assert!(
                    !seen.contains_key(&topo.placement_stamp()),
                    "a batch reused a stamp"
                );
                assert!(topo.moves_since(stamp_before).is_none());
                prev[t] = None;
                check_stamp(topo, &mut seen);
            }
            // A whole new placement, in place or in a new topology.
            11 => {
                let placement = instance.random_placement(&mut rng);
                if rng.gen_bool(0.5) {
                    topo.reset_placement(&placement);
                } else {
                    *topo = WmnTopology::build(instance, &placement).unwrap();
                }
                assert!(
                    !seen.contains_key(&topo.placement_stamp()),
                    "a rebuild reused a stamp"
                );
                assert!(topo.moves_since(stamp_before).is_none());
                prev[t] = None;
                check_stamp(topo, &mut seen);
            }
            // A copy of the other topology.
            _ => {
                if rng.gen_bool(0.5) {
                    *topo = other.clone();
                } else {
                    topo.clone_from(other);
                }
                assert_eq!(topo.placement_stamp(), other.placement_stamp());
                assert!(topo.moves_since(stamp_before).is_none());
                prev[t] = None;
                check_stamp(topo, &mut seen);
            }
        }
    }
    (restored, inexact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_sequences_stay_consistent(
        instance in instance_strategy(),
        steps in proptest::collection::vec(step_strategy(160.0), 1..24),
        seed in any::<u64>(),
    ) {
        run_sequence(&instance, &steps, seed);
    }

    #[test]
    fn rebuild_mode_matches_incremental_state(
        instance in instance_strategy(),
        steps in proptest::collection::vec(step_strategy(160.0), 1..16),
        seed in any::<u64>(),
    ) {
        let mut rng = rng_from_seed(seed);
        let placement = instance.random_placement(&mut rng);
        let mut inc = WmnTopology::build(&instance, &placement).unwrap();
        let mut reb = WmnTopology::build(&instance, &placement).unwrap();
        reb.set_connectivity_mode(ConnectivityMode::FullRebuild);
        prop_assert_eq!(reb.connectivity_mode(), ConnectivityMode::FullRebuild);
        let n = inc.router_count();
        for step in &steps {
            match *step {
                Step::Move { router, x, y } => {
                    let id = RouterId(router % n);
                    let p = Point::new(x, y);
                    prop_assert_eq!(inc.move_router(id, p), reb.move_router(id, p));
                }
                Step::Swap { a, b } => {
                    inc.swap_routers(RouterId(a % n), RouterId(b % n));
                    reb.swap_routers(RouterId(a % n), RouterId(b % n));
                }
                Step::UndoLast => {}
            }
            prop_assert_eq!(inc.giant_size(), reb.giant_size());
            prop_assert_eq!(inc.covered_count(), reb.covered_count());
            prop_assert_eq!(inc.covered_mask(), reb.covered_mask());
            prop_assert_eq!(inc.placement(), reb.placement());
        }
    }

    #[test]
    fn batch_apply_matches_fresh_build(
        instance in instance_strategy(),
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (any::<usize>(), -10.0..170.0f64, -10.0..170.0f64),
                0..20,
            ),
            1..6,
        ),
        seed in any::<u64>(),
    ) {
        let mut rng = rng_from_seed(seed);
        let placement = instance.random_placement(&mut rng);
        let mut topo = WmnTopology::build(&instance, &placement).unwrap();
        let n = topo.router_count();
        let mut moves = Vec::new();
        for batch in &batches {
            moves.clear();
            moves.extend(
                batch
                    .iter()
                    .map(|&(r, x, y)| (RouterId(r % n), Point::new(x, y))),
            );
            // The inverse batch: each unique router back to where it was.
            let mut undo: Vec<(RouterId, Point)> = Vec::new();
            for &(id, _) in &moves {
                if !undo.iter().any(|&(u, _)| u == id) {
                    undo.push((id, topo.position(id)));
                }
            }
            let before = (topo.giant_size(), topo.covered_count(), topo.placement());
            topo.apply_moves(&moves, None);
            topo.assert_consistent();
            let fresh =
                WmnTopology::build(&instance, &topo.placement()).unwrap();
            prop_assert_eq!(topo.giant_size(), fresh.giant_size());
            prop_assert_eq!(topo.covered_count(), fresh.covered_count());
            prop_assert_eq!(topo.covered_mask(), fresh.covered_mask());
            topo.apply_moves(&undo, None);
            topo.assert_consistent();
            prop_assert_eq!(
                (topo.giant_size(), topo.covered_count(), topo.placement()),
                before
            );
            // Leave the batch applied for the next round.
            topo.apply_moves(&moves, None);
            topo.assert_consistent();
        }
    }

    #[test]
    fn clone_from_then_diff_apply_equals_fresh_build(
        instance in instance_strategy(),
        seeds in proptest::collection::vec(any::<u64>(), 1..6),
        seed in any::<u64>(),
    ) {
        // The GA child-evaluation shape: copy a parent's state, apply the
        // placement diff, compare against a from-scratch build.
        let mut rng = rng_from_seed(seed);
        let parent_placement = instance.random_placement(&mut rng);
        let parent = WmnTopology::build(&instance, &parent_placement).unwrap();
        let mut leased =
            WmnTopology::build(&instance, &instance.random_placement(&mut rng))
                .unwrap();
        let mut moves = Vec::new();
        for child_seed in &seeds {
            let child: Placement =
                instance.random_placement(&mut rng_from_seed(*child_seed));
            leased.clone_from(&parent);
            leased.diff_placement_into(&child, &mut moves);
            leased.apply_moves(&moves, None);
            leased.assert_consistent();
            let fresh = WmnTopology::build(&instance, &child).unwrap();
            prop_assert_eq!(leased.placement(), child);
            prop_assert_eq!(leased.giant_size(), fresh.giant_size());
            prop_assert_eq!(leased.covered_count(), fresh.covered_count());
            prop_assert_eq!(leased.covered_mask(), fresh.covered_mask());
        }
    }

    #[test]
    fn equal_placement_stamps_mean_bit_identical_positions(
        instance in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let (restored, inexact) = run_stamp_stream(&instance, seed, 300);
        prop_assert!(restored >= 50, "only {} exact reverts restored a stamp", restored);
        prop_assert!(inexact >= 10, "only {} inexact reverts", inexact);
    }

    #[test]
    fn reset_placement_equals_fresh_build(
        instance in instance_strategy(),
        seeds in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut rng = rng_from_seed(1);
        let mut workspace =
            WmnTopology::build(&instance, &instance.random_placement(&mut rng)).unwrap();
        for seed in seeds {
            let placement: Placement =
                instance.random_placement(&mut rng_from_seed(seed));
            workspace.reset_placement(&placement);
            workspace.assert_consistent();
            let fresh = WmnTopology::build(&instance, &placement).unwrap();
            prop_assert_eq!(workspace.giant_size(), fresh.giant_size());
            prop_assert_eq!(workspace.covered_count(), fresh.covered_count());
            prop_assert_eq!(workspace.covered_mask(), fresh.covered_mask());
            prop_assert_eq!(workspace.components().count(), fresh.components().count());
        }
    }
}

//! Property-based tests pitting the dynamic connectivity engine
//! ([`ConnectivityMode::Dynamic`]) against the full-rebuild reference
//! ([`ConnectivityMode::FullRebuild`]): interleaved move / swap / batch /
//! undo streams must keep both topologies **bit-identical** — labels,
//! sizes, giant, masks, coverage. Instance sides reach down to 15, where
//! the mutual-range mesh is mostly one giant component. A seeded stream on
//! ~2,000 routers covers the sparse regime of large neighborhood-search
//! runs: thousands of components and a small giant among many rivals of
//! equal size, where the engine's giant hand-off runs. A seeded stream of
//! moves and swaps on a percolated mesh checks that single writes take
//! the cheaper coverage repair, delta or full pass.

use proptest::prelude::*;
use rand::Rng;
use wmn_graph::topology::{ConnectivityMode, WmnTopology};
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::{Area, Point};
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::node::RouterId;
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;

/// One step of an interleaved mutation stream.
#[derive(Debug, Clone)]
enum Step {
    Move { router: usize, x: f64, y: f64 },
    Swap { a: usize, b: usize },
    Batch { moves: Vec<(usize, f64, f64)> },
    UndoLast,
}

fn step_strategy(side: f64) -> impl Strategy<Value = Step> {
    // Raw-int selector + payload fields (shrinking-friendly, and the only
    // surface the vendored proptest shim supports — no `prop_oneof!`).
    (
        0usize..8,
        any::<usize>(),
        any::<usize>(),
        // Deliberately out-of-area sometimes: the topology clamps.
        -10.0..side + 10.0,
        -10.0..side + 10.0,
        proptest::collection::vec(
            (any::<usize>(), -10.0..side + 10.0, -10.0..side + 10.0),
            2..10,
        ),
    )
        .prop_map(|(kind, a, b, x, y, moves)| match kind {
            0..=2 => Step::Move { router: a, x, y },
            3 | 4 => Step::Swap { a, b },
            5 | 6 => Step::Batch { moves },
            _ => Step::UndoLast,
        })
}

fn instance_strategy() -> impl Strategy<Value = ProblemInstance> {
    // Log-uniform sides from 15 to 160: the small areas give
    // mutual-range meshes whose giant holds most routers, so writes flip
    // the giant membership of routers they did not move; the large ones
    // give sparse meshes of many components.
    (0.0..1.0f64, 3usize..26, 1usize..40, any::<u64>()).prop_map(|(u, routers, clients, seed)| {
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

/// Applies the same step to every topology in `topos`.
fn apply_step(topos: &mut [WmnTopology], step: &Step, undo_log: &mut Vec<Step>) {
    let n = topos[0].router_count();
    match step {
        Step::Move { router, x, y } => {
            let id = RouterId(router % n);
            let mut old = Point::new(0.0, 0.0);
            for t in topos.iter_mut() {
                old = t.move_router(id, Point::new(*x, *y));
            }
            undo_log.push(Step::Move {
                router: id.index(),
                x: old.x,
                y: old.y,
            });
        }
        Step::Swap { a, b } => {
            let (a, b) = (RouterId(a % n), RouterId(b % n));
            for t in topos.iter_mut() {
                t.swap_routers(a, b);
            }
            undo_log.push(Step::Swap {
                a: a.index(),
                b: b.index(),
            });
        }
        Step::Batch { moves } => {
            let batch: Vec<(RouterId, Point)> = moves
                .iter()
                .map(|&(r, x, y)| (RouterId(r % n), Point::new(x, y)))
                .collect();
            // Inverse batch: each unique router back to its pre-batch spot.
            let mut inverse = Vec::new();
            for &(id, _) in &batch {
                if !inverse.iter().any(|&(u, _): &(RouterId, Point)| u == id) {
                    inverse.push((id, topos[0].position(id)));
                }
            }
            for t in topos.iter_mut() {
                t.apply_moves(&batch, None);
            }
            undo_log.push(Step::Batch {
                moves: inverse
                    .iter()
                    .map(|&(id, p)| (id.index(), p.x, p.y))
                    .collect(),
            });
        }
        Step::UndoLast => {
            if let Some(undo) = undo_log.pop() {
                apply_step(topos, &undo, &mut Vec::new());
            }
        }
    }
}

/// Asserts full observable-state equality between the topologies.
fn assert_identical(topos: &[WmnTopology], context: &str) {
    let lead = &topos[0];
    for (k, t) in topos.iter().enumerate().skip(1) {
        assert_eq!(lead.placement(), t.placement(), "{context}: placement {k}");
        assert_eq!(
            lead.components(),
            t.components(),
            "{context}: components {k}"
        );
        assert_eq!(lead.giant_size(), t.giant_size(), "{context}: giant {k}");
        assert_eq!(
            lead.components().giant_mask(),
            t.components().giant_mask(),
            "{context}: giant mask {k}"
        );
        assert_eq!(
            lead.covered_count(),
            t.covered_count(),
            "{context}: covered {k}"
        );
        assert_eq!(lead.covered_mask(), t.covered_mask(), "{context}: mask {k}");
    }
}

fn run_pair(instance: &ProblemInstance, steps: &[Step], seed: u64) {
    let mut rng = rng_from_seed(seed);
    let placement = instance.random_placement(&mut rng);
    let build = || WmnTopology::build(instance, &placement).unwrap();
    let dynamic = build();
    assert_eq!(dynamic.connectivity_mode(), ConnectivityMode::Dynamic);
    let mut full = build();
    full.set_connectivity_mode(ConnectivityMode::FullRebuild);
    let mut topos = [dynamic, full];
    let mut undo_log = Vec::new();
    for (s, step) in steps.iter().enumerate() {
        apply_step(&mut topos, step, &mut undo_log);
        assert_identical(&topos, &format!("step {s}"));
    }
    topos[0].assert_consistent();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dynamic_equals_full_rebuild(
        instance in instance_strategy(),
        steps in proptest::collection::vec(step_strategy(160.0), 1..16),
        seed in any::<u64>(),
    ) {
        run_pair(&instance, &steps, seed);
    }
}

#[test]
fn dynamic_path_statistics_accumulate() {
    let instance = InstanceSpec::paper_normal().unwrap().generate(7).unwrap();
    let placement = instance.random_placement(&mut rng_from_seed(8));
    let mut topo = WmnTopology::build(&instance, &placement).unwrap();
    let mut rng = rng_from_seed(9);
    for _ in 0..60 {
        let id = RouterId(rng.gen_range(0..topo.router_count()));
        let to = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
        topo.move_router(id, to);
    }
    topo.assert_consistent();
    let stats = topo.engine_stats();
    assert!(stats.repairs > 0);
    assert!(
        stats.insertions + stats.deletions > 0,
        "60 random moves must churn edges"
    );
    assert!(stats.bfs_edge_visits > 0, "repairs must relabel");
}

/// A spot within 1.5 of a random router: inside every mutual range (radii
/// are at least 2), so a router landing there links to that one.
fn near_a_router(topo: &WmnTopology, rng: &mut impl Rng) -> (f64, f64) {
    let host = topo.position(RouterId(rng.gen_range(0..topo.router_count())));
    (
        host.x + rng.gen_range(-1.5..1.5),
        host.y + rng.gen_range(-1.5..1.5),
    )
}

#[test]
fn sparse_stream_matches_full_rebuild() {
    // The paper's router density at 32× the routers: 2048 routers on a
    // 724 × 724 area (the paper's 128 × 128 scaled by √32).
    let n = 2048;
    let side = 724.0;
    let instance = InstanceSpec::new(
        Area::square(side).unwrap(),
        n,
        3 * n,
        ClientDistribution::Uniform,
        RadioProfile::paper_default(),
    )
    .unwrap()
    .generate(41)
    .unwrap();
    let placement = instance.random_placement(&mut rng_from_seed(43));
    let build = || WmnTopology::build(&instance, &placement);
    let mut full = build().unwrap();
    full.set_connectivity_mode(ConnectivityMode::FullRebuild);
    let mut topos = [build().unwrap(), full];
    assert!(
        topos[0].components().count() > n / 2,
        "the mesh must be sparse"
    );

    let mut rng = rng_from_seed(47);
    let mut undo_log = Vec::new();
    let (mut handoffs, mut batches, mut merges, mut splits) = (0, 0, 0, 0);
    for s in 0..400 {
        let router = rng.gen_range(0..n);
        let step = match rng.gen_range(0..20) {
            0..=6 => {
                let (x, y) = near_a_router(&topos[0], &mut rng);
                Step::Move { router, x, y }
            }
            7..=9 => Step::Move {
                router,
                x: rng.gen_range(0.0..side),
                y: rng.gen_range(0.0..side),
            },
            10 | 11 => {
                // A giant member leaves: the old giant loses members and
                // may fall behind (or tie) one of its many small rivals.
                let members = topos[0].components().giant_members();
                Step::Move {
                    router: members[rng.gen_range(0..members.len())],
                    x: rng.gen_range(0.0..side),
                    y: rng.gen_range(0.0..side),
                }
            }
            12..=14 => Step::Swap {
                a: router,
                b: rng.gen_range(0..n),
            },
            15..=17 => Step::UndoLast,
            _ => {
                batches += 1;
                let k = rng.gen_range(2..8);
                Step::Batch {
                    moves: (0..k)
                        .map(|_| {
                            let (x, y) = near_a_router(&topos[0], &mut rng);
                            (rng.gen_range(0..n), x, y)
                        })
                        .collect(),
                }
            }
        };
        let giant_before = topos[1].components().giant_label_opt();
        let count_before = topos[1].components().count();
        apply_step(&mut topos, &step, &mut undo_log);
        assert_identical(&topos, &format!("sparse step {s}"));
        handoffs += usize::from(topos[1].components().giant_label_opt() != giant_before);
        let count_after = topos[1].components().count();
        merges += usize::from(count_after < count_before);
        splits += usize::from(count_after > count_before);
    }
    topos[0].assert_consistent();
    assert!(batches >= 3, "the stream must apply a few batches");
    assert!(handoffs > 10, "the stream must hand the giant over");
    assert!(
        merges > 50 && splits > 50,
        "the stream must join and cut components: {merges} merging and {splits} splitting steps"
    );
}

#[test]
fn single_writes_take_the_cheaper_coverage_repair() {
    // 1,024 routers on a 160 × 160 area: the mesh percolates, so a move or
    // swap often flips the giant membership of routers it did not move.
    // Each such write must pick the cheaper coverage repair: the delta
    // over the changed disks when few routers flipped, one full pass when
    // the giant changed wholesale.
    let n = 1024;
    let side = 160.0;
    let instance = InstanceSpec::new(
        Area::square(side).unwrap(),
        n,
        3 * n,
        ClientDistribution::Uniform,
        RadioProfile::paper_default(),
    )
    .unwrap()
    .generate(41)
    .unwrap();
    let placement = instance.random_placement(&mut rng_from_seed(43));
    let build = || WmnTopology::build(&instance, &placement);
    let mut full = build().unwrap();
    full.set_connectivity_mode(ConnectivityMode::FullRebuild);
    let mut topos = [build().unwrap(), full];

    let mut rng = rng_from_seed(47);
    let mut undo_log = Vec::new();
    let (mut delta, mut full_pass) = (0, 0);
    for s in 0..600 {
        let router = rng.gen_range(0..n);
        let step = match rng.gen_range(0..10) {
            0..=3 => {
                let (x, y) = near_a_router(&topos[0], &mut rng);
                Step::Move { router, x, y }
            }
            4 | 5 => Step::Move {
                router,
                x: rng.gen_range(0.0..side),
                y: rng.gen_range(0.0..side),
            },
            6 => {
                let members = topos[0].components().giant_members();
                Step::Move {
                    router: members[rng.gen_range(0..members.len())],
                    x: rng.gen_range(0.0..side),
                    y: rng.gen_range(0.0..side),
                }
            }
            7 | 8 => Step::Swap {
                a: router,
                b: rng.gen_range(0..n),
            },
            _ => Step::UndoLast,
        };
        let positions = topos[0].placement();
        let mask = topos[0].components().giant_mask();
        let full_passes = topos[0].engine_stats().coverage_full_recomputes;
        apply_step(&mut topos, &step, &mut undo_log);
        assert_identical(&topos, &format!("percolated step {s}"));
        let moved = topos[0].placement();
        let now = topos[0].components().giant_mask();
        let flipped_unmoved =
            (0..n).any(|i| mask[i] != now[i] && positions.as_slice()[i] == moved.as_slice()[i]);
        if flipped_unmoved {
            let took_full = topos[0].engine_stats().coverage_full_recomputes > full_passes;
            full_pass += usize::from(took_full);
            delta += usize::from(!took_full);
        }
    }
    topos[0].assert_consistent();
    assert!(
        delta > 0 && full_pass > 0,
        "writes flipping unmoved routers must take both repairs: \
         {delta} deltas, {full_pass} full passes"
    );
}

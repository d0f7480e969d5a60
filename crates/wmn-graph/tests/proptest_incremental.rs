//! Property-based tests pinning the incremental (delta-evaluation) engine
//! of [`WmnTopology`] to the full-rebuild ground truth: random interleaved
//! `move_router` / `swap_routers` / undo sequences must keep
//! `assert_consistent` green under **both** coverage rules and **all**
//! link models, and the in-place workspace rebuild must equal a fresh
//! build.

use proptest::prelude::*;
use wmn_graph::adjacency::LinkModel;
use wmn_graph::topology::{ConnectivityMode, CoverageRule, TopologyConfig, WmnTopology};
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
    (60.0..160.0f64, 2usize..24, 1usize..48, any::<u64>()).prop_map(
        |(side, routers, clients, seed)| {
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
        },
    )
}

fn all_configs() -> Vec<TopologyConfig> {
    let mut configs = Vec::new();
    for link_model in [
        LinkModel::CoverageOverlap,
        LinkModel::MutualRange,
        LinkModel::FixedRange(9.0),
    ] {
        for coverage_rule in [CoverageRule::GiantComponentOnly, CoverageRule::AnyRouter] {
            configs.push(TopologyConfig {
                link_model,
                coverage_rule,
            });
        }
    }
    configs
}

/// Applies `steps` to a topology, tracking undo tokens, checking the full
/// invariant set after every mutation.
fn run_sequence(instance: &ProblemInstance, config: TopologyConfig, steps: &[Step], seed: u64) {
    let mut rng = rng_from_seed(seed);
    let placement = instance.random_placement(&mut rng);
    let mut topo = WmnTopology::build(instance, &placement, config).unwrap();
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
    let initial = WmnTopology::build(instance, &placement, config).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_sequences_stay_consistent_all_configs(
        instance in instance_strategy(),
        steps in proptest::collection::vec(step_strategy(160.0), 1..24),
        seed in any::<u64>(),
    ) {
        for config in all_configs() {
            run_sequence(&instance, config, &steps, seed);
        }
    }

    #[test]
    fn rebuild_mode_matches_incremental_state(
        instance in instance_strategy(),
        steps in proptest::collection::vec(step_strategy(160.0), 1..16),
        seed in any::<u64>(),
    ) {
        let mut rng = rng_from_seed(seed);
        let placement = instance.random_placement(&mut rng);
        let config = TopologyConfig::paper_default();
        let mut inc = WmnTopology::build(&instance, &placement, config).unwrap();
        let mut reb = WmnTopology::build(&instance, &placement, config).unwrap();
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
    fn batch_apply_matches_fresh_build_all_configs(
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
        for config in all_configs() {
            let mut rng = rng_from_seed(seed);
            let placement = instance.random_placement(&mut rng);
            let mut topo = WmnTopology::build(&instance, &placement, config).unwrap();
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
                topo.apply_moves(&moves);
                topo.assert_consistent();
                let fresh =
                    WmnTopology::build(&instance, &topo.placement(), config).unwrap();
                prop_assert_eq!(topo.giant_size(), fresh.giant_size());
                prop_assert_eq!(topo.covered_count(), fresh.covered_count());
                prop_assert_eq!(topo.covered_mask(), fresh.covered_mask());
                topo.apply_moves(&undo);
                topo.assert_consistent();
                prop_assert_eq!(
                    (topo.giant_size(), topo.covered_count(), topo.placement()),
                    before
                );
                // Leave the batch applied for the next round.
                topo.apply_moves(&moves);
                topo.assert_consistent();
            }
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
        for config in all_configs() {
            let mut rng = rng_from_seed(seed);
            let parent_placement = instance.random_placement(&mut rng);
            let parent = WmnTopology::build(&instance, &parent_placement, config).unwrap();
            let mut leased =
                WmnTopology::build(&instance, &instance.random_placement(&mut rng), config)
                    .unwrap();
            let mut moves = Vec::new();
            for child_seed in &seeds {
                let child: Placement =
                    instance.random_placement(&mut rng_from_seed(*child_seed));
                leased.clone_from(&parent);
                leased.diff_placement_into(&child, &mut moves);
                leased.apply_moves(&moves);
                leased.assert_consistent();
                let fresh = WmnTopology::build(&instance, &child, config).unwrap();
                prop_assert_eq!(leased.placement(), child);
                prop_assert_eq!(leased.giant_size(), fresh.giant_size());
                prop_assert_eq!(leased.covered_count(), fresh.covered_count());
                prop_assert_eq!(leased.covered_mask(), fresh.covered_mask());
            }
        }
    }

    #[test]
    fn reset_placement_equals_fresh_build(
        instance in instance_strategy(),
        seeds in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let config = TopologyConfig::paper_default();
        let mut rng = rng_from_seed(1);
        let mut workspace =
            WmnTopology::build(&instance, &instance.random_placement(&mut rng), config).unwrap();
        for seed in seeds {
            let placement: Placement =
                instance.random_placement(&mut rng_from_seed(seed));
            workspace.reset_placement(&placement);
            workspace.assert_consistent();
            let fresh = WmnTopology::build(&instance, &placement, config).unwrap();
            prop_assert_eq!(workspace.giant_size(), fresh.giant_size());
            prop_assert_eq!(workspace.covered_count(), fresh.covered_count());
            prop_assert_eq!(workspace.covered_mask(), fresh.covered_mask());
            prop_assert_eq!(workspace.components().count(), fresh.components().count());
        }
    }
}

//! Property-based tests pitting the dynamic connectivity engine
//! ([`ConnectivityMode::Dynamic`]) against the full-rebuild reference
//! ([`ConnectivityMode::FullRebuild`]): interleaved move / swap / batch /
//! undo streams must keep both topologies **bit-identical** — labels,
//! sizes, giant, masks, coverage — across all three [`LinkModel`]s and
//! both coverage rules, including with a cost cap tiny enough to force the
//! engine's whole-graph rescan fallback mid-stream.

use proptest::prelude::*;
use wmn_graph::adjacency::LinkModel;
use wmn_graph::topology::{ConnectivityMode, CoverageRule, TopologyConfig, WmnTopology};
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
    (60.0..160.0f64, 3usize..26, 1usize..40, any::<u64>()).prop_map(
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
                t.apply_moves(&batch);
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
            lead.covered_count(),
            t.covered_count(),
            "{context}: covered {k}"
        );
        assert_eq!(lead.covered_mask(), t.covered_mask(), "{context}: mask {k}");
    }
}

fn run_pair(
    instance: &ProblemInstance,
    config: TopologyConfig,
    steps: &[Step],
    seed: u64,
    fallback_cap: Option<usize>,
) {
    let mut rng = rng_from_seed(seed);
    let placement = instance.random_placement(&mut rng);
    let build = || WmnTopology::build(instance, &placement, config).unwrap();
    let mut dynamic = build();
    assert_eq!(dynamic.connectivity_mode(), ConnectivityMode::Dynamic);
    dynamic.set_fallback_cap_for_tests(fallback_cap);
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
    fn dynamic_equals_full_rebuild_all_configs(
        instance in instance_strategy(),
        steps in proptest::collection::vec(step_strategy(160.0), 1..16),
        seed in any::<u64>(),
    ) {
        for config in all_configs() {
            run_pair(&instance, config, &steps, seed, None);
        }
    }

    #[test]
    fn forced_fallback_stays_identical(
        instance in instance_strategy(),
        steps in proptest::collection::vec(step_strategy(160.0), 1..12),
        seed in any::<u64>(),
        cap in 0usize..5,
    ) {
        // A tiny (or zero) cost cap drives deletions onto the rescan
        // fallback mid-stream; results must not change.
        run_pair(
            &instance,
            TopologyConfig::paper_default(),
            &steps,
            seed,
            Some(cap),
        );
    }
}

#[test]
fn fallback_counter_proves_the_capped_path_ran() {
    let instance = InstanceSpec::paper_normal().unwrap().generate(3).unwrap();
    let placement = instance.random_placement(&mut rng_from_seed(5));
    // CoverageOverlap gives a dense mesh, so deletions must run real
    // bidirectional searches (the sparse paper mesh can resolve most
    // deletions through the O(1) singleton fast path, which no cap stops).
    let config = TopologyConfig {
        link_model: LinkModel::CoverageOverlap,
        coverage_rule: CoverageRule::GiantComponentOnly,
    };
    let mut topo = WmnTopology::build(&instance, &placement, config).unwrap();
    topo.set_fallback_cap_for_tests(Some(0));
    let mut rng = rng_from_seed(6);
    use rand::Rng;
    for _ in 0..40 {
        let id = RouterId(rng.gen_range(0..topo.router_count()));
        let to = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
        topo.move_router(id, to);
    }
    topo.assert_consistent();
    let stats = topo.connectivity_stats();
    assert!(stats.repairs > 0, "dynamic path must have run");
    assert!(
        stats.fallbacks > 0,
        "zero cap must force the rescan fallback"
    );
}

#[test]
fn dynamic_path_statistics_accumulate() {
    let instance = InstanceSpec::paper_normal().unwrap().generate(7).unwrap();
    let placement = instance.random_placement(&mut rng_from_seed(8));
    let mut topo =
        WmnTopology::build(&instance, &placement, TopologyConfig::paper_default()).unwrap();
    let mut rng = rng_from_seed(9);
    use rand::Rng;
    for _ in 0..60 {
        let id = RouterId(rng.gen_range(0..topo.router_count()));
        let to = Point::new(rng.gen_range(0.0..=128.0), rng.gen_range(0.0..=128.0));
        topo.move_router(id, to);
    }
    topo.assert_consistent();
    let stats = topo.connectivity_stats();
    assert!(stats.repairs > 0);
    assert!(
        stats.insertions + stats.deletions > 0,
        "60 random moves must churn edges"
    );
    assert_eq!(stats.fallbacks, 0, "default cap must hold at paper scale");
}

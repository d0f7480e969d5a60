//! Property-based tests pinning the topology-backed GA evaluation path to
//! scratch chromosome evaluation: for children produced by crossover and by
//! **every** mutation operator, "adopt the parent's live topology + apply
//! the placement diff" must evaluate exactly like a fresh
//! `Evaluator::evaluate` of the child placement.

use proptest::prelude::*;
use wmn_ga::crossover;
use wmn_ga::mutation::MutationOp;
use wmn_metrics::evaluator::{EvalWorkspace, Evaluator};
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::Area;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::placement::Placement;
use wmn_model::rng::rng_from_seed;

fn instance_strategy() -> impl Strategy<Value = ProblemInstance> {
    // Log-uniform sides from 15 to 140: the small areas give
    // mutual-range meshes whose giant holds most routers, so writes flip
    // the giant membership of routers they did not move; the large ones
    // give sparse meshes of many components.
    (0.0..1.0f64, 4usize..32, 8usize..64, any::<u64>()).prop_map(|(u, routers, clients, seed)| {
        let side = 15.0 * (140.0 / 15.0f64).powf(u);
        let area = Area::square(side).unwrap();
        InstanceSpec::new(
            area,
            routers,
            clients,
            ClientDistribution::Uniform,
            wmn_model::radio::RadioProfile::paper_default(),
        )
        .unwrap()
        .generate(seed)
        .unwrap()
    })
}

fn all_mutations() -> Vec<MutationOp> {
    vec![
        MutationOp::UniformReset { rate: 0.2 },
        MutationOp::GaussianJitter {
            rate: 0.5,
            sigma_fraction: 0.05,
        },
        MutationOp::AnchorAttach {
            rate: 1.0,
            locality: 40.0,
        },
    ]
}

/// Evaluates `child` through the delta path rooted at `parent` and asserts
/// exact equality with scratch evaluation.
fn assert_delta_eval_matches(
    evaluator: &Evaluator<'_>,
    parent: &Placement,
    child: &Placement,
    context: &str,
) {
    let parent_topo = evaluator.topology(parent).unwrap();
    let mut slot = EvalWorkspace::new();
    slot.adopt_topology(&parent_topo);
    let mut moves = Vec::new();
    let delta = evaluator
        .evaluate_moves_to_from(slot.topology_mut().unwrap(), child, &mut moves, None)
        .unwrap();
    let scratch = evaluator.evaluate(child).unwrap();
    assert_eq!(delta, scratch, "{context}");
    slot.topology_mut().unwrap().assert_consistent();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crossover_children_evaluate_identically(
        instance in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = rng_from_seed(seed);
        let pa = instance.random_placement(&mut rng);
        let pb = instance.random_placement(&mut rng);
        let evaluator = Evaluator::paper_default(&instance);
        let (c1, c2) = crossover::single_point(&pa, &pb, &mut rng);
        assert_delta_eval_matches(&evaluator, &pa, &c1, "c1 vs pa");
        assert_delta_eval_matches(&evaluator, &pb, &c1, "c1 vs pb");
        assert_delta_eval_matches(&evaluator, &pb, &c2, "c2 vs pb");
    }

    #[test]
    fn mutation_children_evaluate_identically(
        instance in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = rng_from_seed(seed);
        let parent = instance.random_placement(&mut rng);
        let evaluator = Evaluator::paper_default(&instance);
        let mut actions = Vec::new();
        for op in all_mutations() {
            let mut child = parent.clone();
            op.plan(&child, &instance, &mut rng, &mut actions);
            for action in &actions {
                action.apply_to_placement(&mut child);
            }
            assert_delta_eval_matches(&evaluator, &parent, &child, &format!("{op}"));
        }
        // The whole paper stack, applied repeatedly (deep drift).
        let mut child = parent.clone();
        for _ in 0..4 {
            for op in MutationOp::paper_default_stack() {
                op.plan(&child, &instance, &mut rng, &mut actions);
                for action in &actions {
                    action.apply_to_placement(&mut child);
                }
            }
        }
        assert_delta_eval_matches(&evaluator, &parent, &child, "paper stack x4");
    }

    #[test]
    fn crossed_then_mutated_children_evaluate_identically(
        instance in instance_strategy(),
        seed in any::<u64>(),
    ) {
        // The exact child shape the engine produces: crossover followed by
        // the full mutation stack, evaluated against either parent.
        let mut rng = rng_from_seed(seed);
        let pa = instance.random_placement(&mut rng);
        let pb = instance.random_placement(&mut rng);
        let evaluator = Evaluator::paper_default(&instance);
        let (mut c1, _) = crossover::single_point(&pa, &pb, &mut rng);
        let mut actions = Vec::new();
        for op in MutationOp::paper_default_stack() {
            op.plan(&c1, &instance, &mut rng, &mut actions);
            for action in &actions {
                action.apply_to_placement(&mut c1);
            }
        }
        assert_delta_eval_matches(&evaluator, &pa, &c1, "engine child vs pa");
        assert_delta_eval_matches(&evaluator, &pb, &c1, "engine child vs pb");
    }
}

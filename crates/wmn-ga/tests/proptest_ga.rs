//! Property-based tests for the GA crate: operator closure (children of
//! valid parents are valid) and engine invariants.

use proptest::prelude::*;
use wmn_ga::crossover;
use wmn_ga::engine::{GaConfig, GaEngine};
use wmn_ga::init::PopulationInit;
use wmn_ga::mutation::MutationOp;
use wmn_metrics::Evaluator;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::Area;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;
use wmn_placement::registry::AdHocMethod;

fn arbitrary_instance() -> impl Strategy<Value = ProblemInstance> {
    (30.0..160.0f64, 2usize..24, 1usize..48, any::<u64>()).prop_map(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crossover_children_are_valid(
        instance in arbitrary_instance(),
        seed in any::<u64>(),
    ) {
        let mut rng = rng_from_seed(seed);
        let a = instance.random_placement(&mut rng);
        let b = instance.random_placement(&mut rng);
        let (c1, c2) = crossover::single_point(&a, &b, &mut rng);
        prop_assert!(instance.validate_placement(&c1).is_ok(), "child 1");
        prop_assert!(instance.validate_placement(&c2).is_ok(), "child 2");
    }

    #[test]
    fn mutation_stack_preserves_validity(
        instance in arbitrary_instance(),
        seed in any::<u64>(),
        rounds in 1usize..20,
    ) {
        let mut rng = rng_from_seed(seed);
        let mut placement = instance.random_placement(&mut rng);
        let mut actions = Vec::new();
        for _ in 0..rounds {
            for op in MutationOp::paper_default_stack() {
                op.plan(&placement, &instance, &mut rng, &mut actions);
                for action in &actions {
                    action.apply_to_placement(&mut placement);
                }
            }
        }
        prop_assert!(instance.validate_placement(&placement).is_ok());
    }

    #[test]
    fn single_point_crossover_is_gene_conservative(
        instance in arbitrary_instance(),
        seed in any::<u64>(),
    ) {
        // For every router id, the multiset {c1[i], c2[i]} equals
        // {a[i], b[i]} — crossover only redistributes genes.
        let mut rng = rng_from_seed(seed);
        let a = instance.random_placement(&mut rng);
        let b = instance.random_placement(&mut rng);
        let (c1, c2) = crossover::single_point(&a, &b, &mut rng);
        for i in 0..a.len() {
            let (pa, pb) = (a.as_slice()[i], b.as_slice()[i]);
            let (ka, kb) = (c1.as_slice()[i], c2.as_slice()[i]);
            prop_assert!(
                (ka == pa && kb == pb) || (ka == pb && kb == pa),
                "gene {} not conserved", i
            );
        }
    }

    #[test]
    fn engine_runs_on_arbitrary_instances(
        instance in arbitrary_instance(),
        seed in any::<u64>(),
    ) {
        let evaluator = Evaluator::paper_default(&instance);
        let config = GaConfig::builder()
            .population_size(6)
            .generations(4)
            .elitism(1)
            .build()
            .unwrap();
        let engine = GaEngine::new(&evaluator, config);
        let outcome = engine
            .run(
                &PopulationInit::AdHoc(AdHocMethod::Random),
                &mut rng_from_seed(seed),
                &mut wmn_obs::NoopRecorder,
            )
            .unwrap();
        prop_assert_eq!(outcome.trace.len(), 5);
        prop_assert!(instance.validate_placement(&outcome.best_placement).is_ok());
        // Elitist best-so-far is monotone.
        let mut prev = f64::NEG_INFINITY;
        for r in outcome.trace.records() {
            prop_assert!(r.best_fitness() >= prev - 1e-9);
            prev = r.best_fitness();
        }
        // The reported best matches a fresh evaluation.
        let re = evaluator.evaluate(&outcome.best_placement).unwrap();
        prop_assert!((re.fitness - outcome.best_evaluation.fitness).abs() < 1e-9);
    }

    #[test]
    fn populations_from_any_method_are_valid(
        instance in arbitrary_instance(),
        seed in any::<u64>(),
        size in 1usize..12,
    ) {
        for method in AdHocMethod::all() {
            let pop = PopulationInit::AdHoc(method)
                .build(&instance, size, &mut rng_from_seed(seed));
            prop_assert_eq!(pop.len(), size);
            for ind in pop.individuals() {
                prop_assert!(instance.validate_placement(ind.placement()).is_ok());
            }
        }
    }
}

//! The full method × distribution matrix through the public facade:
//! every ad hoc method must produce valid, deterministic, in-area
//! placements on every paper scenario, and every evaluation must respect
//! the structural bounds.

use wmn::prelude::*;

fn scenarios() -> Vec<(&'static str, InstanceSpec)> {
    vec![
        ("uniform", InstanceSpec::paper_uniform().expect("valid")),
        ("normal", InstanceSpec::paper_normal().expect("valid")),
        (
            "exponential",
            InstanceSpec::paper_exponential().expect("valid"),
        ),
        ("weibull", InstanceSpec::paper_weibull().expect("valid")),
    ]
}

#[test]
fn every_method_on_every_scenario_is_valid_and_bounded() {
    for (name, spec) in scenarios() {
        let instance = spec.generate(99).expect("generates");
        let evaluator = Evaluator::paper_default(&instance);
        for method in AdHocMethod::all() {
            let placement = method.place(&instance, &mut rng_from_seed(1));
            instance
                .validate_placement(&placement)
                .unwrap_or_else(|e| panic!("{name}/{method}: {e}"));
            let eval = evaluator.evaluate(&placement).expect("evaluates");
            assert!(eval.giant_size() >= 1, "{name}/{method}");
            assert!(
                eval.giant_size() <= instance.router_count(),
                "{name}/{method}"
            );
            assert!(
                eval.covered_clients() <= instance.client_count(),
                "{name}/{method}"
            );
            assert!(
                eval.measurement.component_count >= 1
                    && eval.measurement.component_count <= instance.router_count(),
                "{name}/{method}"
            );
        }
    }
}

#[test]
fn matrix_results_are_deterministic() {
    for (_, spec) in scenarios() {
        let instance = spec.generate(123).expect("generates");
        let evaluator = Evaluator::paper_default(&instance);
        for method in AdHocMethod::all() {
            let a = method.place(&instance, &mut rng_from_seed(5));
            let b = method.place(&instance, &mut rng_from_seed(5));
            assert_eq!(a, b, "{method} not deterministic");
            assert_eq!(
                evaluator.evaluate(&a).expect("evaluates"),
                evaluator.evaluate(&b).expect("evaluates")
            );
        }
    }
}

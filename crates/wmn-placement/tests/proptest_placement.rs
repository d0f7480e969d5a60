//! Property-based tests: every ad hoc method yields a valid placement on
//! arbitrary instances, deterministically per seed.

use proptest::prelude::*;
use wmn_model::distribution::ClientDistribution;
use wmn_model::geometry::Area;
use wmn_model::instance::{InstanceSpec, ProblemInstance};
use wmn_model::radio::RadioProfile;
use wmn_model::rng::rng_from_seed;
use wmn_placement::registry::AdHocMethod;

fn arbitrary_instance() -> impl Strategy<Value = ProblemInstance> {
    (
        20.0..300.0f64, // width
        20.0..300.0f64, // height
        1usize..80,     // routers
        1usize..120,    // clients
        0usize..4,      // distribution selector
        any::<u64>(),   // instance seed
    )
        .prop_map(|(w, h, routers, clients, which, seed)| {
            let area = Area::new(w, h).unwrap();
            let dist = match which {
                0 => ClientDistribution::Uniform,
                1 => ClientDistribution::paper_normal(&area).unwrap(),
                2 => ClientDistribution::paper_exponential(&area).unwrap(),
                _ => ClientDistribution::paper_weibull(&area).unwrap(),
            };
            InstanceSpec::new(area, routers, clients, dist, RadioProfile::paper_default())
                .unwrap()
                .generate(seed)
                .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_method_is_total_and_valid(instance in arbitrary_instance(), seed in any::<u64>()) {
        for method in AdHocMethod::all() {
            let placement = method.place(&instance, &mut rng_from_seed(seed));
            prop_assert!(
                instance.validate_placement(&placement).is_ok(),
                "{method} invalid on {instance}"
            );
            prop_assert_eq!(placement.len(), instance.router_count());
        }
    }

    #[test]
    fn every_method_is_deterministic(instance in arbitrary_instance(), seed in any::<u64>()) {
        for method in AdHocMethod::all() {
            let a = method.place(&instance, &mut rng_from_seed(seed));
            let b = method.place(&instance, &mut rng_from_seed(seed));
            prop_assert_eq!(a, b, "{} not deterministic", method);
        }
    }

    #[test]
    fn different_seeds_usually_differ(instance in arbitrary_instance(), seed in any::<u64>()) {
        // Stochastic methods must actually consume the RNG: with paper
        // defaults (adherence 0.9, jitter > 0) two different seeds virtually
        // never coincide on multi-router instances.
        prop_assume!(instance.router_count() >= 8);
        for method in AdHocMethod::all() {
            let a = method.place(&instance, &mut rng_from_seed(seed));
            let b = method.place(&instance, &mut rng_from_seed(seed ^ 0xDEAD_BEEF));
            prop_assert_ne!(a, b, "{} ignored its rng", method);
        }
    }
}

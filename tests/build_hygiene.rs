//! Build-hygiene smoke tests: the invariants every later PR leans on.
//!
//! These are deliberately cheap and broad — if instance generation stops
//! being deterministic or an ad hoc method starts emitting out-of-bounds
//! routers, every experiment and search result in the repo silently
//! changes meaning.

use wmn::prelude::*;

/// The paper's evaluation spec generated twice from one seed is identical.
#[test]
fn instance_generation_is_deterministic() {
    let spec = InstanceSpec::paper_normal().expect("paper spec is valid");
    let a = spec.generate(42).expect("generation succeeds");
    let b = spec.generate(42).expect("generation succeeds");
    assert_eq!(a, b, "same spec + seed must reproduce the same instance");

    let c = spec.generate(43).expect("generation succeeds");
    assert_ne!(a, c, "different seeds must produce different instances");
}

/// All seven ad hoc methods place every router inside the deployment area
/// and pass the instance's own placement validation.
#[test]
fn all_adhoc_methods_place_in_bounds() {
    let instance = InstanceSpec::paper_normal()
        .expect("paper spec is valid")
        .generate(7)
        .expect("generation succeeds");
    let area = instance.area();

    let methods = AdHocMethod::all();
    assert_eq!(methods.len(), 7, "the paper defines seven ad hoc methods");

    for method in methods {
        let placement = method.place(&instance, &mut rng_from_seed(11));
        assert_eq!(
            placement.len(),
            instance.router_count(),
            "{method} must place every router"
        );
        for (id, point) in placement.iter() {
            assert!(
                area.contains(point),
                "{method} placed router {id:?} at {point} outside {area}"
            );
        }
        instance
            .validate_placement(&placement)
            .unwrap_or_else(|e| panic!("{method} failed validation: {e}"));
    }
}

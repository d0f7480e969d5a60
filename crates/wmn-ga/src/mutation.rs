//! Mutation operators on placement chromosomes.
//!
//! All operators clamp results into the deployment area, so mutated
//! children of valid individuals stay valid. The paper does not specify its
//! GA operators (it cites an external GA implementation); the default stack
//! combines generic operators (jitter, reset) with a problem-aware
//! **anchor-attach** move that relocates a router into the mutual link
//! range of another — the GA-side counterpart of the swap movement's
//! "re-establish mesh nodes network connections" step, and the operator
//! that lets populations assemble connected meshes at all under the
//! mutual-range link model.
//!
//! Every operator is expressed as a **plan of [`MoveAction`] deltas**
//! ([`MutationOp::plan`]) — the same move vocabulary `wmn-search` uses —
//! which the topology-backed GA engine applies to chromosomes with
//! [`MoveAction::apply_to_placement`] and folds into the incremental batch
//! repair of the evaluation topology.

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::fmt;
use wmn_model::distribution::standard_normal;
use wmn_model::geometry::Point;
use wmn_model::instance::ProblemInstance;
use wmn_model::placement::Placement;
use wmn_search::movement::MoveAction;

/// A mutation strategy; `rate` fields are probabilities (per gene for the
/// gene-wise operators, per application for anchor-attach).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MutationOp {
    /// Each router is reset to a uniform random position with probability
    /// `rate`.
    UniformReset {
        /// Per-router reset probability.
        rate: f64,
    },
    /// Each router is jittered by Gaussian noise with probability `rate`;
    /// `sigma_fraction` scales the noise to the area's smaller dimension.
    GaussianJitter {
        /// Per-router jitter probability.
        rate: f64,
        /// Noise standard deviation as a fraction of `min(W, H)`.
        sigma_fraction: f64,
    },
    /// With probability `rate` (per application), a random router relocates
    /// to within mutual link range (`min(r_a, r_b)`) of a **nearby** router
    /// (an anchor within `locality` length units, or the nearest router
    /// when none is that close), so the pair can form a link.
    ///
    /// The locality bound is what makes this a *local* perturbation: sub-
    /// meshes can consolidate, but distant clusters (e.g. the four Corners
    /// blobs) merge only through many intermediate generations — the
    /// mechanism behind the initialization-dependent convergence of the
    /// paper's Figures 1–3.
    AnchorAttach {
        /// Probability that the attach happens at all.
        rate: f64,
        /// Maximum anchor distance, in length units.
        locality: f64,
    },
}

impl MutationOp {
    /// The mutation stack used for the paper reproduction: small jitter,
    /// occasional uniform resets, and frequent anchor-attach moves.
    pub fn paper_default_stack() -> Vec<MutationOp> {
        vec![
            MutationOp::GaussianJitter {
                rate: 0.08,
                sigma_fraction: 0.02,
            },
            MutationOp::UniformReset { rate: 0.001 },
            MutationOp::AnchorAttach {
                rate: 0.3,
                locality: 16.0,
            },
        ]
    }

    /// Plans the mutation as a batch of [`MoveAction`] deltas against
    /// `placement`, **without applying them**, writing the actions into
    /// `out` (cleared first). Returns the number of genes the actions will
    /// change.
    ///
    /// The topology-backed GA engine routes every mutation through here
    /// and applies the actions with [`MoveAction::apply_to_placement`].
    /// Relocation targets are already clamped into the deployment area.
    ///
    /// Actions are planned against the *incoming* placement: within one
    /// operator no action's target depends on another's effect, so applying
    /// them in any order lands the same placement.
    pub fn plan(
        &self,
        placement: &Placement,
        instance: &ProblemInstance,
        rng: &mut dyn RngCore,
        out: &mut Vec<MoveAction>,
    ) -> usize {
        out.clear();
        let area = instance.area();
        let n = placement.len();
        if n == 0 {
            return 0;
        }
        match *self {
            MutationOp::UniformReset { rate } => {
                for i in 0..n {
                    if rng.gen::<f64>() < rate {
                        out.push(MoveAction::Relocate {
                            router: wmn_model::RouterId(i),
                            to: Point::new(
                                rng.gen_range(0.0..=area.width()),
                                rng.gen_range(0.0..=area.height()),
                            ),
                        });
                    }
                }
                out.len()
            }
            MutationOp::GaussianJitter {
                rate,
                sigma_fraction,
            } => {
                let sigma = sigma_fraction.max(0.0) * area.width().min(area.height());
                for i in 0..n {
                    if rng.gen::<f64>() < rate {
                        let id = wmn_model::RouterId(i);
                        let p = placement[id];
                        out.push(MoveAction::Relocate {
                            router: id,
                            to: area.clamp_point(Point::new(
                                p.x + sigma * standard_normal(rng),
                                p.y + sigma * standard_normal(rng),
                            )),
                        });
                    }
                }
                out.len()
            }
            MutationOp::AnchorAttach { rate, locality } => {
                if n >= 2 && rng.gen::<f64>() < rate {
                    let mover = rng.gen_range(0..n);
                    let mover_pos = placement[wmn_model::RouterId(mover)];
                    // Anchor pool: routers within `locality` of the mover.
                    let nearby: Vec<usize> = (0..n)
                        .filter(|&j| j != mover)
                        .filter(|&j| {
                            placement[wmn_model::RouterId(j)].distance_squared(mover_pos)
                                <= locality * locality
                        })
                        .collect();
                    // No anchor in reach -> no-op: the attach is a *local*
                    // perturbation; isolated routers cannot teleport across
                    // the area (that is what keeps initialization structure
                    // relevant over the whole run, as in the paper).
                    if nearby.is_empty() {
                        return 0;
                    }
                    let anchor = nearby[rng.gen_range(0..nearby.len())];
                    let reach = instance.routers()[mover]
                        .current_radius()
                        .min(instance.routers()[anchor].current_radius());
                    let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                    let dist = reach * rng.gen_range(0.4..0.95);
                    let a = placement[wmn_model::RouterId(anchor)];
                    out.push(MoveAction::Relocate {
                        router: wmn_model::RouterId(mover),
                        to: area.clamp_point(Point::new(
                            a.x + dist * angle.cos(),
                            a.y + dist * angle.sin(),
                        )),
                    });
                    1
                } else {
                    0
                }
            }
        }
    }
}

impl fmt::Display for MutationOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationOp::UniformReset { rate } => write!(f, "uniform-reset(rate={rate})"),
            MutationOp::GaussianJitter {
                rate,
                sigma_fraction,
            } => write!(f, "gaussian-jitter(rate={rate}, sigma={sigma_fraction})"),
            MutationOp::AnchorAttach { rate, locality } => {
                write!(f, "anchor-attach(rate={rate}, locality={locality})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_model::instance::InstanceBuilder;
    use wmn_model::radio::RadioProfile;
    use wmn_model::rng::rng_from_seed;
    use wmn_model::Area;

    fn instance(n: usize) -> ProblemInstance {
        let area = Area::square(100.0).unwrap();
        InstanceBuilder::new(area)
            .routers(RadioProfile::new(2.0, 8.0).unwrap(), n)
            .client(Point::new(50.0, 50.0))
            .build()
            .unwrap()
    }

    fn placement(n: usize) -> Placement {
        (0..n).map(|i| Point::new(i as f64, 50.0)).collect()
    }

    #[test]
    fn uniform_reset_rate_zero_changes_nothing() {
        let inst = instance(20);
        let p = placement(20);
        let mut actions = Vec::new();
        let op = MutationOp::UniformReset { rate: 0.0 };
        let changed = op.plan(&p, &inst, &mut rng_from_seed(1), &mut actions);
        assert_eq!(changed, 0);
        assert!(actions.is_empty());
    }

    #[test]
    fn uniform_reset_rate_one_changes_everything() {
        let inst = instance(20);
        let mut p = placement(20);
        let before = p.clone();
        let mut actions = Vec::new();
        let op = MutationOp::UniformReset { rate: 1.0 };
        let changed = op.plan(&p, &inst, &mut rng_from_seed(2), &mut actions);
        for action in &actions {
            action.apply_to_placement(&mut p);
        }
        assert_eq!(changed, 20);
        assert_ne!(p, before);
        assert!(p.validate(&inst.area(), 20).is_ok());
    }

    #[test]
    fn jitter_keeps_positions_in_area() {
        let inst = instance(50);
        let mut p = placement(50);
        let mut rng = rng_from_seed(3);
        let mut actions = Vec::new();
        let op = MutationOp::GaussianJitter {
            rate: 1.0,
            sigma_fraction: 0.2,
        };
        for _ in 0..50 {
            op.plan(&p, &inst, &mut rng, &mut actions);
            for action in &actions {
                action.apply_to_placement(&mut p);
            }
            assert!(p.validate(&inst.area(), 50).is_ok());
        }
    }

    #[test]
    fn jitter_moves_points_locally() {
        let inst = instance(100);
        let mut p = placement(100);
        let before = p.clone();
        let mut actions = Vec::new();
        let op = MutationOp::GaussianJitter {
            rate: 1.0,
            sigma_fraction: 0.01, // sigma = 1 unit
        };
        op.plan(&p, &inst, &mut rng_from_seed(4), &mut actions);
        for action in &actions {
            action.apply_to_placement(&mut p);
        }
        let max_shift2 = p
            .as_slice()
            .iter()
            .zip(before.as_slice())
            .map(|(a, b)| a.distance_squared(*b))
            .fold(0.0f64, f64::max);
        assert!(max_shift2 > 0.0);
        assert!(
            max_shift2 < 10.0 * 10.0,
            "sigma=1 should rarely shift 10 units, got {}",
            max_shift2.sqrt()
        );
    }

    #[test]
    fn anchor_attach_lands_within_mutual_range() {
        let inst = instance(12);
        let mut rng = rng_from_seed(7);
        let mut actions = Vec::new();
        let op = MutationOp::AnchorAttach {
            rate: 1.0,
            locality: 30.0,
        };
        for _ in 0..100 {
            let mut p = placement(12);
            let before = p.clone();
            let changed = op.plan(&p, &inst, &mut rng, &mut actions);
            for action in &actions {
                action.apply_to_placement(&mut p);
            }
            assert_eq!(changed, 1);
            // Exactly one router moved; it must sit within min-radius reach
            // of some other router (modulo area clamping at the boundary).
            let moved: Vec<usize> = (0..12)
                .filter(|&i| p.as_slice()[i] != before.as_slice()[i])
                .collect();
            assert_eq!(moved.len(), 1);
            let m = moved[0];
            let max_reach = inst.routers()[m].profile().max_radius();
            let near = (0..12).filter(|&j| j != m).any(|j| {
                p.as_slice()[m].distance_squared(p.as_slice()[j]) <= max_reach * max_reach
            });
            assert!(near, "attached router must be near an anchor");
            assert!(p.validate(&inst.area(), 12).is_ok());
        }
    }

    #[test]
    fn anchor_attach_on_singleton_is_noop() {
        let inst = instance(1);
        let mut actions = Vec::new();
        let op = MutationOp::AnchorAttach {
            rate: 1.0,
            locality: 30.0,
        };
        let changed = op.plan(&placement(1), &inst, &mut rng_from_seed(8), &mut actions);
        assert_eq!(changed, 0);
        assert!(actions.is_empty());
    }

    #[test]
    fn empty_placement_is_noop_for_all_ops() {
        let inst = instance(2);
        let mut rng = rng_from_seed(9);
        let mut actions = Vec::new();
        for op in MutationOp::paper_default_stack() {
            assert_eq!(op.plan(&Placement::new(), &inst, &mut rng, &mut actions), 0);
            assert!(actions.is_empty());
        }
    }

    #[test]
    fn paper_stack_keeps_validity() {
        let inst = instance(64);
        let mut p = placement(64);
        let mut rng = rng_from_seed(10);
        let mut actions = Vec::new();
        for _ in 0..100 {
            for op in MutationOp::paper_default_stack() {
                op.plan(&p, &inst, &mut rng, &mut actions);
                for action in &actions {
                    action.apply_to_placement(&mut p);
                }
            }
        }
        assert!(p.validate(&inst.area(), 64).is_ok());
    }

    #[test]
    fn plan_is_pure_and_deterministic_per_seed() {
        let inst = instance(32);
        for op in MutationOp::paper_default_stack() {
            let base = placement(32);
            // Planning must not touch the placement...
            let (mut first, mut second) = (Vec::new(), Vec::new());
            let probe = base.clone();
            let changed = op.plan(&probe, &inst, &mut rng_from_seed(77), &mut first);
            assert_eq!(probe, base, "{op}: plan mutated the placement");
            // ...and the same stream plans the same actions.
            let again = op.plan(&probe, &inst, &mut rng_from_seed(77), &mut second);
            assert_eq!(first, second, "{op}");
            assert_eq!(changed, again, "{op}");
            assert_eq!(changed, first.len(), "{op}");
            let mut planned = base.clone();
            for action in &first {
                action.apply_to_placement(&mut planned);
            }
            assert!(planned.validate(&inst.area(), 32).is_ok(), "{op}");
        }
    }
}

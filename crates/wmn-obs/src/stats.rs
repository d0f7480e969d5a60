//! Always-on deterministic work counters for the evaluation engine.
//!
//! Every counter here is a plain `u64` incremented on a code path the
//! engine already executes; for a fixed seed the totals are exact and
//! reproducible across runs, machines, and thread counts (the GA and the
//! runtime both aggregate per-slot/per-job counters in index order).
//! That makes them the perf oracle the wall clock cannot be: a change
//! that silently reintroduces whole-graph rescans shows up as an exact
//! counter diff, not a maybe-noise timing delta.
//!
//! Each counter set is declared once, as one list: an entry gives a
//! counter its field, its telemetry name and, for the engine set, its
//! section inside `ga > evaluate`. `merge`, `delta_since`, `for_each` and
//! the section lookup are generated from that list, so adding a counter
//! is one entry. The fields stay named `pub u64`s, so a hot path's
//! increment is a plain field write.
//!
//! The structs are `#[non_exhaustive]`: downstream crates read and
//! mutate the public fields (the hot paths in `wmn-graph` do exactly
//! that) but construct them only through `Default`, so new counters can
//! be added without breaking anyone.

use crate::recorder::{phase, Recorder};

/// Declares a counter set from one list of `field: "telemetry.name"`
/// entries: the struct of `pub u64` fields, `merge`, `delta_since`, and
/// `for_each`, which visits the counters in list order. Entries of the
/// form `field: "name" => section` also give each counter its section
/// inside `ga > evaluate` (`None`: `evaluate` itself; `Some(s)`:
/// `apply_moves > s`), read by [`repair_section`]. A set declares every
/// counter's section or none; a list that mixes the two does not compile.
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $set:ident {
            $( $(#[$doc:meta])* $field:ident: $name:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[non_exhaustive]
        pub struct $set {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl $set {
            /// Adds `other`'s counts into `self` (order-independent, so
            /// merging per-worker counters in index order is
            /// deterministic).
            pub fn merge(&mut self, other: &$set) {
                $( self.$field += other.$field; )*
            }

            /// The counts accumulated since `earlier` was captured
            /// (saturating, so a snapshot from before a fresh build or
            /// `clone`, whose counters start at zero, yields zeros instead
            /// of wrapping).
            #[must_use]
            pub fn delta_since(&self, earlier: &$set) -> $set {
                $set { $( $field: self.$field.saturating_sub(earlier.$field), )* }
            }

            /// Visits every counter, zeros included, as a dot-qualified
            /// `(name, value)` pair in declaration order — the telemetry
            /// emission order.
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f($name, self.$field); )*
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $set:ident {
            $( $(#[$doc:meta])* $field:ident: $name:literal => $section:expr, )*
        }
    ) => {
        counter_set! {
            $(#[$meta])*
            pub struct $set {
                $( $(#[$doc])* $field: $name, )*
            }
        }

        impl $set {
            /// Every counter's telemetry name and its section inside
            /// `ga > evaluate`, in declaration order.
            const SECTIONS: &'static [(&'static str, Option<&'static str>)] =
                &[$( ($name, $section), )*];
        }
    };
    ($(#[$meta:meta])* pub struct $set:ident { $($entries:tt)* }) => {
        compile_error!(concat!(
            "every counter of ",
            stringify!($set),
            " declares its `ga > evaluate` section, or none does"
        ));
    };
}

counter_set! {
    /// The fault-isolation profile of one batch execution: injected faults
    /// (`wmn-runtime`'s `FaultPlan`), caught panics, and retry outcomes.
    /// Reported on stderr by the experiment runners — deliberately **not**
    /// part of `telemetry.json`, whose byte-identity across faulty and
    /// fault-free runs is the chaos gate's whole point.
    pub struct RobustnessStats {
        /// Panics injected by a fault plan.
        injected_panics: "fault.injected_panics",
        /// `Err` returns injected by a fault plan.
        injected_errors: "fault.injected_errors",
        /// Panics caught by the pool's per-job `catch_unwind` (injected or
        /// organic).
        caught_panics: "fault.caught_panics",
        /// Job attempts started (successes and failures alike).
        attempts: "retry.attempts",
        /// Attempts beyond each job's first (i.e. actual retries).
        retries: "retry.retries",
        /// Jobs that failed at least once and then succeeded.
        recovered_jobs: "retry.recovered_jobs",
        /// Jobs that exhausted their attempt budget without succeeding.
        exhausted_jobs: "retry.exhausted_jobs",
    }
}

impl RobustnessStats {
    /// Whether the batch ran without incident: no counter but `attempts`
    /// is set. First attempts alone (`attempts` equals the job count) are
    /// business as usual, so a fault-free run is uneventful even though
    /// its counters are not all zero.
    pub fn is_uneventful(&self) -> bool {
        *self
            == RobustnessStats {
                attempts: self.attempts,
                ..RobustnessStats::default()
            }
    }
}

counter_set! {
    /// The work profile of one evaluation engine — a `WmnTopology` and the
    /// `DynamicConnectivity` repairs it runs — or a deterministic aggregate
    /// of many: `topology.*` counts moves, coverage strategy, disk caches
    /// and state copies; `connectivity.*` counts the edge diffs the
    /// connectivity engine applied and how much of the graph it scanned.
    ///
    /// Each counter's section inside `ga > evaluate` is the scope
    /// [`record_evaluate_counters`](EngineStats::record_evaluate_counters)
    /// attributes its work to (see [`repair_section`]).
    pub struct EngineStats {
        /// Single-router moves applied (`move_router`).
        single_moves: "topology.single_moves" => Some("edge_repair"),
        /// Router swaps applied (`swap_routers`).
        swaps: "topology.swaps" => Some("edge_repair"),
        /// Batch repairs applied (every non-empty `apply_moves`).
        batch_repairs: "topology.batch_repairs" => Some("edge_repair"),
        /// Distinct routers moved across all batch repairs.
        batch_moved_routers: "topology.batch_moved_routers" => Some("edge_repair"),
        /// Repairs that early-outed because the moved routers' link sets
        /// were unchanged (component work skipped entirely; only the
        /// moved disks are re-counted).
        link_noop_repairs: "topology.link_noop_repairs" => Some("coverage"),
        /// Coverage repairs resolved by the exact per-disk delta path.
        coverage_delta_repairs: "topology.coverage_delta_repairs" => Some("coverage"),
        /// Coverage repairs that fell back to a full in-place recompute.
        coverage_full_recomputes: "topology.coverage_full_recomputes" => Some("coverage"),
        /// Client-grid radius queries issued to (re)fill a router's disk
        /// cache.
        disk_grid_queries: "topology.disk_grid_queries" => Some("coverage"),
        /// Disk-cache hits: coverage work served from a router's cached
        /// client set without touching the grid.
        disk_cache_hits: "topology.disk_cache_hits" => Some("coverage"),
        /// Disk-cache grafts: caches copied from a donor topology (the GA's
        /// non-lineage parent) instead of re-queried.
        disk_cache_grafts: "topology.disk_cache_grafts" => Some("coverage"),
        /// Whole-topology rebuilds: `rebuild_full` (every move under
        /// `FullRebuild` mode) and in-place `reset_placement` rebuilds.
        full_rebuilds: "topology.full_rebuilds" => Some("full_rebuild"),
        /// Buffer-reusing `clone_from` state copies (vs. fresh `clone`s).
        clone_from_reuses: "topology.clone_from_reuses" => None,
        /// Edge diffs the connectivity engine applied (calls to
        /// `apply_edge_diff`).
        repairs: "connectivity.repairs" => Some("component_repair"),
        /// Inserted edges in the applied diffs.
        insertions: "connectivity.insertions" => Some("component_repair"),
        /// Deleted edges in the applied diffs.
        deletions: "connectivity.deletions" => Some("component_repair"),
        /// Adjacency entries the repairs scanned: the relabel BFS over
        /// every component holding an endpoint of a changed edge, plus the
        /// collection of an untouched component that gained or lost the
        /// giant.
        bfs_edge_visits: "connectivity.bfs_edge_visits" => Some("component_repair"),
    }
}

impl EngineStats {
    /// Emits every counter into `recorder` under its telemetry name,
    /// skipping zeros (deltas are sparse).
    pub fn record_counters(&self, recorder: &mut dyn Recorder) {
        self.for_each(|name, v| {
            if v != 0 {
                recorder.counter(name, v);
            }
        });
    }

    /// Emits a GA generation's engine work into `evaluate` (a recorder
    /// with the `ga > evaluate` phase open), each non-zero counter under
    /// the section [`repair_section`] gives it: on `evaluate` itself, or
    /// under `apply_moves > {section}`. Flat totals equal one
    /// [`record_counters`](EngineStats::record_counters) call; only the
    /// attribution differs.
    pub fn record_evaluate_counters(&self, evaluate: &mut dyn Recorder, reference: bool) {
        self.for_each(|name, v| {
            if v == 0 {
                return;
            }
            match repair_section(name, reference) {
                None => evaluate.counter(name, v),
                Some(section) => {
                    let mut apply = phase(&mut *evaluate, "apply_moves");
                    phase(&mut apply, section).counter(name, v);
                }
            }
        });
    }
}

/// The section inside `ga > evaluate` that the engine counter `name` is
/// attributed to, as [`EngineStats`] declares it: `None` for the state
/// copies (`topology.clone_from_reuses`), which stay on `evaluate`
/// itself, otherwise the section of the one repair routine
/// (`WmnTopology`'s shared repair behind `apply_moves`) under
/// `apply_moves`:
///
/// * `edge_repair` — the write bookkeeping (`topology.batch_*`, and the
///   `single_moves`/`swaps` counters of the search-side entry points);
/// * `component_repair` — every `connectivity.*` counter;
/// * `coverage` — the coverage strategy and disk-cache counters, and the
///   no-op early-outs (`topology.link_noop_repairs`), whose only work is
///   re-counting the moved disks;
/// * `full_rebuild` — `topology.full_rebuilds`.
///
/// Under the full-rebuild reference (`reference`), every counter outside
/// `evaluate` itself goes to `full_rebuild`, since the reference rebuilds
/// instead of repairing.
///
/// # Panics
///
/// Panics if `name` is not an [`EngineStats`] counter.
pub fn repair_section(name: &str, reference: bool) -> Option<&'static str> {
    let &(_, section) = EngineStats::SECTIONS
        .iter()
        .find(|(counter, _)| *counter == name)
        .unwrap_or_else(|| panic!("{name:?} is not an engine counter"));
    section.map(|section| if reference { "full_rebuild" } else { section })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineStats {
        EngineStats {
            repairs: 5,
            insertions: 3,
            deletions: 2,
            bfs_edge_visits: 40,
            ..Default::default()
        }
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.repairs, 10);
        assert_eq!(a.insertions, 6);
        assert_eq!(a.bfs_edge_visits, 80);
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let earlier = sample();
        let mut later = earlier;
        later.repairs += 7;
        later.bfs_edge_visits += 1;
        let d = later.delta_since(&earlier);
        assert_eq!(d.repairs, 7);
        assert_eq!(d.bfs_edge_visits, 1);
        assert_eq!(d.insertions, 0);
        // A later snapshot that starts from zero saturates instead of
        // wrapping.
        let fresh = EngineStats::default();
        assert_eq!(fresh.delta_since(&earlier), fresh);
    }

    #[test]
    fn engine_for_each_is_fixed_order_and_complete() {
        let e = EngineStats {
            single_moves: 1,
            repairs: 2,
            ..Default::default()
        };
        let mut names = Vec::new();
        e.for_each(|name, _| names.push(name));
        assert_eq!(names.len(), 12 + 4, "every field appears exactly once");
        assert_eq!(names[0], "topology.single_moves");
        assert_eq!(names[12], "connectivity.repairs");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
    }

    #[test]
    fn uneventful_ignores_first_attempts_but_not_incidents() {
        let mut r = RobustnessStats::default();
        assert!(r.is_uneventful());
        // A fault-free batch still counts one attempt per job.
        r.attempts = 7;
        assert!(r.is_uneventful());
        r.retries = 1;
        assert!(!r.is_uneventful());
        r.retries = 0;
        r.injected_errors = 1;
        assert!(!r.is_uneventful());
    }

    #[test]
    fn robustness_for_each_is_fixed_order_and_complete() {
        let r = RobustnessStats {
            injected_panics: 1,
            attempts: 2,
            ..Default::default()
        };
        let mut names = Vec::new();
        r.for_each(|name, _| names.push(name));
        assert_eq!(names.len(), 3 + 4);
        assert_eq!(names[0], "fault.injected_panics");
        assert_eq!(names[3], "retry.attempts");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
    }

    #[test]
    fn robustness_merge_adds_fieldwise() {
        let mut a = RobustnessStats {
            caught_panics: 2,
            retries: 3,
            ..Default::default()
        };
        let b = RobustnessStats {
            caught_panics: 1,
            recovered_jobs: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.caught_panics, 3);
        assert_eq!(a.retries, 3);
        assert_eq!(a.recovered_jobs, 5);
    }

    /// An engine profile with every counter set, each to its own value.
    fn every_counter() -> EngineStats {
        EngineStats {
            single_moves: 1,
            swaps: 2,
            batch_repairs: 3,
            batch_moved_routers: 4,
            link_noop_repairs: 5,
            coverage_delta_repairs: 6,
            coverage_full_recomputes: 7,
            disk_grid_queries: 8,
            disk_cache_hits: 9,
            disk_cache_grafts: 10,
            full_rebuilds: 11,
            clone_from_reuses: 12,
            repairs: 13,
            insertions: 14,
            deletions: 15,
            bfs_edge_visits: 16,
        }
    }

    /// Every engine counter declares its section, and each section is
    /// pinned here: moving a counter to another scope fails this test (and
    /// the counter gate, whose baselines hold the attribution tree).
    #[test]
    fn every_engine_counter_has_its_section() {
        let expected = [
            ("topology.single_moves", Some("edge_repair")),
            ("topology.swaps", Some("edge_repair")),
            ("topology.batch_repairs", Some("edge_repair")),
            ("topology.batch_moved_routers", Some("edge_repair")),
            ("topology.link_noop_repairs", Some("coverage")),
            ("topology.coverage_delta_repairs", Some("coverage")),
            ("topology.coverage_full_recomputes", Some("coverage")),
            ("topology.disk_grid_queries", Some("coverage")),
            ("topology.disk_cache_hits", Some("coverage")),
            ("topology.disk_cache_grafts", Some("coverage")),
            ("topology.full_rebuilds", Some("full_rebuild")),
            ("topology.clone_from_reuses", None),
            ("connectivity.repairs", Some("component_repair")),
            ("connectivity.insertions", Some("component_repair")),
            ("connectivity.deletions", Some("component_repair")),
            ("connectivity.bfs_edge_visits", Some("component_repair")),
        ];
        let mut names = Vec::new();
        every_counter().for_each(|name, _| names.push(name));
        let pinned: Vec<&str> = expected.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, pinned, "every counter is pinned, in emission order");
        assert_eq!(EngineStats::SECTIONS, expected, "one section per counter");
        for (name, section) in expected {
            assert_eq!(repair_section(name, false), section, "{name}");
            // The reference rebuilds instead of repairing.
            let reference = section.map(|_| "full_rebuild");
            assert_eq!(repair_section(name, true), reference, "{name} (reference)");
        }
    }

    #[test]
    #[should_panic(expected = "not an engine counter")]
    fn repair_section_refuses_a_name_outside_the_table() {
        let _ = repair_section("topology.edges_linked", false);
    }

    #[test]
    fn evaluate_attribution_puts_every_counter_in_one_scope() {
        let e = every_counter();
        let mut flat = crate::TelemetryRecorder::new();
        e.record_counters(&mut flat);
        for reference in [false, true] {
            let mut rec = crate::TelemetryRecorder::new();
            e.record_evaluate_counters(&mut phase(&mut rec, "evaluate"), reference);
            assert_eq!(rec.counters(), flat.counters(), "flat totals are unchanged");
            // Each counter sits in its scope with its whole value, and the
            // tree holds no more than their sum: each lands exactly once.
            let root = rec.attribution();
            let (mut counters, mut sum) = (0, 0);
            e.for_each(|name, v| {
                let path = match repair_section(name, reference) {
                    None => vec!["evaluate"],
                    Some(section) => vec!["evaluate", "apply_moves", section],
                };
                let got = root.get(&path).and_then(|node| node.counters.get(name));
                assert_eq!(got, Some(&v), "{name} belongs in {path:?}");
                counters += 1;
                sum += v;
            });
            assert_eq!(counters, 16);
            assert_eq!(root.total(), sum, "every counter lands exactly once");
        }
    }

    #[test]
    fn record_counters_skips_zeros() {
        let e = EngineStats {
            swaps: 4,
            ..Default::default()
        };
        let mut rec = crate::TelemetryRecorder::new();
        e.record_counters(&mut rec);
        assert_eq!(rec.counters().len(), 1);
        assert_eq!(rec.counters().get("topology.swaps"), Some(&4));
    }
}

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
//! The structs are `#[non_exhaustive]`: downstream crates read and
//! mutate the public fields (the hot paths in `wmn-graph` do exactly
//! that) but construct them only through `Default`, so new counters can
//! be added without breaking anyone.

use crate::recorder::{phase, Recorder};

/// Cumulative counters of the dynamic-connectivity repair engine
/// (`wmn-graph`'s `DynamicConnectivity`): how many edge diffs it applied
/// and how much of the graph it scanned to apply them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ConnectivityStats {
    /// Diff applications attempted (calls to `apply_edge_diff`).
    pub repairs: u64,
    /// Inserted edges in the applied diffs.
    pub insertions: u64,
    /// Deleted edges in the applied diffs.
    pub deletions: u64,
    /// Adjacency entries the repairs scanned: the relabel BFS over every
    /// component holding an endpoint of a changed edge, plus the
    /// collection of an untouched component that gained or lost the giant.
    pub bfs_edge_visits: u64,
}

impl ConnectivityStats {
    /// Adds `other`'s counts into `self` (order-independent, so merging
    /// per-worker stats in index order is deterministic).
    pub fn merge(&mut self, other: &ConnectivityStats) {
        self.repairs += other.repairs;
        self.insertions += other.insertions;
        self.deletions += other.deletions;
        self.bfs_edge_visits += other.bfs_edge_visits;
    }

    /// The counts accumulated since `earlier` was captured (saturating,
    /// so a snapshot from before a fresh build or `clone`, whose counters
    /// start at zero, yields zeros instead of wrapping).
    #[must_use]
    pub fn delta_since(&self, earlier: &ConnectivityStats) -> ConnectivityStats {
        ConnectivityStats {
            repairs: self.repairs.saturating_sub(earlier.repairs),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            deletions: self.deletions.saturating_sub(earlier.deletions),
            bfs_edge_visits: self.bfs_edge_visits.saturating_sub(earlier.bfs_edge_visits),
        }
    }

    /// Visits every counter as a `(name, value)` pair in a fixed,
    /// documented order (the telemetry emission order).
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        f("repairs", self.repairs);
        f("insertions", self.insertions);
        f("deletions", self.deletions);
        f("bfs_edge_visits", self.bfs_edge_visits);
    }
}

/// Cumulative counters of `WmnTopology`'s delta-evaluation engine:
/// coverage repair strategy, disk-cache effectiveness, and state-copy
/// buffer reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TopologyStats {
    /// Single-router moves applied (`move_router`).
    pub single_moves: u64,
    /// Router swaps applied (`swap_routers`).
    pub swaps: u64,
    /// Batch repairs applied (`apply_moves` with ≥ 2 distinct routers).
    pub batch_repairs: u64,
    /// Distinct routers moved across all batch repairs.
    pub batch_moved_routers: u64,
    /// Repairs that early-outed because the moved routers' link sets
    /// were unchanged (component and coverage work skipped entirely).
    pub link_noop_repairs: u64,
    /// Coverage repairs resolved by the exact per-disk delta path.
    pub coverage_delta_repairs: u64,
    /// Coverage repairs that fell back to a full in-place recompute.
    pub coverage_full_recomputes: u64,
    /// Client-grid radius queries issued to (re)fill a router's disk
    /// cache.
    pub disk_grid_queries: u64,
    /// Disk-cache hits: coverage work served from a router's cached
    /// client set without touching the grid.
    pub disk_cache_hits: u64,
    /// Disk-cache grafts: caches copied from a donor topology (the GA's
    /// non-lineage parent) instead of re-queried.
    pub disk_cache_grafts: u64,
    /// Whole-topology rebuilds: `rebuild_full` (every move under
    /// `FullRebuild` mode) and in-place `reset_placement` rebuilds.
    pub full_rebuilds: u64,
    /// Buffer-reusing `clone_from` state copies (vs. fresh `clone`s).
    pub clone_from_reuses: u64,
}

impl TopologyStats {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &TopologyStats) {
        self.single_moves += other.single_moves;
        self.swaps += other.swaps;
        self.batch_repairs += other.batch_repairs;
        self.batch_moved_routers += other.batch_moved_routers;
        self.link_noop_repairs += other.link_noop_repairs;
        self.coverage_delta_repairs += other.coverage_delta_repairs;
        self.coverage_full_recomputes += other.coverage_full_recomputes;
        self.disk_grid_queries += other.disk_grid_queries;
        self.disk_cache_hits += other.disk_cache_hits;
        self.disk_cache_grafts += other.disk_cache_grafts;
        self.full_rebuilds += other.full_rebuilds;
        self.clone_from_reuses += other.clone_from_reuses;
    }

    /// The counts accumulated since `earlier` was captured (saturating).
    #[must_use]
    pub fn delta_since(&self, earlier: &TopologyStats) -> TopologyStats {
        TopologyStats {
            single_moves: self.single_moves.saturating_sub(earlier.single_moves),
            swaps: self.swaps.saturating_sub(earlier.swaps),
            batch_repairs: self.batch_repairs.saturating_sub(earlier.batch_repairs),
            batch_moved_routers: self
                .batch_moved_routers
                .saturating_sub(earlier.batch_moved_routers),
            link_noop_repairs: self
                .link_noop_repairs
                .saturating_sub(earlier.link_noop_repairs),
            coverage_delta_repairs: self
                .coverage_delta_repairs
                .saturating_sub(earlier.coverage_delta_repairs),
            coverage_full_recomputes: self
                .coverage_full_recomputes
                .saturating_sub(earlier.coverage_full_recomputes),
            disk_grid_queries: self
                .disk_grid_queries
                .saturating_sub(earlier.disk_grid_queries),
            disk_cache_hits: self.disk_cache_hits.saturating_sub(earlier.disk_cache_hits),
            disk_cache_grafts: self
                .disk_cache_grafts
                .saturating_sub(earlier.disk_cache_grafts),
            full_rebuilds: self.full_rebuilds.saturating_sub(earlier.full_rebuilds),
            clone_from_reuses: self
                .clone_from_reuses
                .saturating_sub(earlier.clone_from_reuses),
        }
    }

    /// Visits every counter as a `(name, value)` pair in a fixed order.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        f("single_moves", self.single_moves);
        f("swaps", self.swaps);
        f("batch_repairs", self.batch_repairs);
        f("batch_moved_routers", self.batch_moved_routers);
        f("link_noop_repairs", self.link_noop_repairs);
        f("coverage_delta_repairs", self.coverage_delta_repairs);
        f("coverage_full_recomputes", self.coverage_full_recomputes);
        f("disk_grid_queries", self.disk_grid_queries);
        f("disk_cache_hits", self.disk_cache_hits);
        f("disk_cache_grafts", self.disk_cache_grafts);
        f("full_rebuilds", self.full_rebuilds);
        f("clone_from_reuses", self.clone_from_reuses);
    }
}

/// Counters of injected faults (`wmn-runtime`'s `FaultPlan`) and the
/// panics the pool isolated, regardless of their origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FaultStats {
    /// Panics injected by a fault plan.
    pub injected_panics: u64,
    /// `Err` returns injected by a fault plan.
    pub injected_errors: u64,
    /// Panics caught by the pool's per-job `catch_unwind` (injected or
    /// organic).
    pub caught_panics: u64,
}

impl FaultStats {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected_panics += other.injected_panics;
        self.injected_errors += other.injected_errors;
        self.caught_panics += other.caught_panics;
    }

    /// Visits every counter as a `(name, value)` pair in a fixed order.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        f("injected_panics", self.injected_panics);
        f("injected_errors", self.injected_errors);
        f("caught_panics", self.caught_panics);
    }
}

/// Counters of the pool's bounded retry policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RetryStats {
    /// Job attempts started (successes and failures alike).
    pub attempts: u64,
    /// Attempts beyond each job's first (i.e. actual retries).
    pub retries: u64,
    /// Jobs that failed at least once and then succeeded.
    pub recovered_jobs: u64,
    /// Jobs that exhausted their attempt budget without succeeding.
    pub exhausted_jobs: u64,
}

impl RetryStats {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.recovered_jobs += other.recovered_jobs;
        self.exhausted_jobs += other.exhausted_jobs;
    }

    /// Visits every counter as a `(name, value)` pair in a fixed order.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        f("attempts", self.attempts);
        f("retries", self.retries);
        f("recovered_jobs", self.recovered_jobs);
        f("exhausted_jobs", self.exhausted_jobs);
    }
}

/// The fault-isolation profile of one batch execution: injected faults
/// plus retry outcomes. Reported on stderr by the experiment runners —
/// deliberately **not** part of `telemetry.json`, whose byte-identity
/// across faulty and fault-free runs is the chaos gate's whole point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RobustnessStats {
    /// Injected-fault and caught-panic counters.
    pub fault: FaultStats,
    /// Retry-policy counters.
    pub retry: RetryStats,
}

impl RobustnessStats {
    /// Adds `other`'s counts into `self` (order-independent).
    pub fn merge(&mut self, other: &RobustnessStats) {
        self.fault.merge(&other.fault);
        self.retry.merge(&other.retry);
    }

    /// Whether the batch ran without incident: no faults injected or
    /// caught, no retries, no recovered or exhausted jobs. First
    /// attempts alone (`retry.attempts` equals the job count) are
    /// business as usual, so a fault-free run is uneventful even though
    /// its counters are not all zero.
    pub fn is_uneventful(&self) -> bool {
        self.fault == FaultStats::default()
            && self.retry.retries == 0
            && self.retry.recovered_jobs == 0
            && self.retry.exhausted_jobs == 0
    }

    /// Visits every counter as a dot-qualified `(name, value)` pair
    /// (`fault.*` then `retry.*`) in a fixed order.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        self.fault
            .for_each(|name, v| f(qualified_fault_name(name), v));
        self.retry
            .for_each(|name, v| f(qualified_retry_name(name), v));
    }
}

/// The unified work profile of one evaluation engine (a `WmnTopology`
/// and its embedded connectivity engine), or a deterministic aggregate
/// of many.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Topology-level counters (moves, coverage strategy, disk caches).
    pub topology: TopologyStats,
    /// Connectivity-repair counters.
    pub connectivity: ConnectivityStats,
}

impl EngineStats {
    /// Composes an engine profile from its topology and connectivity
    /// counter groups.
    pub fn new(topology: TopologyStats, connectivity: ConnectivityStats) -> EngineStats {
        EngineStats {
            topology,
            connectivity,
        }
    }

    /// Adds `other`'s counts into `self` (order-independent).
    pub fn merge(&mut self, other: &EngineStats) {
        self.topology.merge(&other.topology);
        self.connectivity.merge(&other.connectivity);
    }

    /// The counts accumulated since `earlier` was captured (saturating).
    #[must_use]
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            topology: self.topology.delta_since(&earlier.topology),
            connectivity: self.connectivity.delta_since(&earlier.connectivity),
        }
    }

    /// Visits every counter as a dot-qualified `(name, value)` pair
    /// (`topology.*`, then `connectivity.*`) in a fixed order — the shape
    /// the [`Recorder`] layer and telemetry JSON use.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        self.topology.for_each(|name, v| {
            f(qualified_topology_name(name), v);
        });
        self.connectivity.for_each(|name, v| {
            f(qualified_connectivity_name(name), v);
        });
    }

    /// Emits every counter into `recorder` under `topology.*` /
    /// `connectivity.*` names, skipping zeros (deltas are sparse).
    pub fn record_counters(&self, recorder: &mut dyn Recorder) {
        self.for_each(|name, v| {
            if v != 0 {
                recorder.counter(name, v);
            }
        });
    }
}

/// The phase scope a GA generation's [`EngineStats`] counter is
/// attributed to inside `ga > evaluate`, fixed by the counter's name:
/// `None` for the state copies (`topology.clone_from_reuses`), which stay
/// on `evaluate` itself, otherwise the section of the one repair routine
/// (`WmnTopology`'s shared repair behind `apply_moves`) under
/// `apply_moves`:
///
/// * `edge_repair` — the write bookkeeping (`topology.batch_*`, and the
///   `single_moves`/`swaps` counters of the search-side entry points);
/// * `component_repair` — every `connectivity.*` counter;
/// * `coverage` — the coverage strategy and disk-cache counters, and the
///   no-op early-outs (`topology.link_noop_repairs`), whose only work is
///   re-counting the moved disks;
/// * `full_rebuild` — `topology.full_rebuilds`, and under the full-rebuild
///   reference (`reference`) every repair counter, since the reference
///   rebuilds instead of repairing.
pub fn repair_section(name: &str, reference: bool) -> Option<&'static str> {
    match name {
        "topology.clone_from_reuses" => None,
        _ if reference => Some("full_rebuild"),
        "topology.full_rebuilds" => Some("full_rebuild"),
        "topology.single_moves"
        | "topology.swaps"
        | "topology.batch_repairs"
        | "topology.batch_moved_routers" => Some("edge_repair"),
        _ if name.starts_with("connectivity.") => Some("component_repair"),
        _ => Some("coverage"),
    }
}

impl EngineStats {
    /// Emits a GA generation's engine work into `evaluate` (a recorder
    /// with the `ga > evaluate` phase open), each non-zero counter under
    /// the scope [`repair_section`] names: state copies on `evaluate`
    /// itself, everything else under `apply_moves > {section}`. Flat
    /// totals equal one [`record_counters`](EngineStats::record_counters)
    /// call; only the attribution differs.
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

/// Maps a [`TopologyStats`] field name to its dot-qualified telemetry
/// name. Static strings keep the recorder API allocation-free.
fn qualified_topology_name(name: &'static str) -> &'static str {
    match name {
        "single_moves" => "topology.single_moves",
        "swaps" => "topology.swaps",
        "batch_repairs" => "topology.batch_repairs",
        "batch_moved_routers" => "topology.batch_moved_routers",
        "link_noop_repairs" => "topology.link_noop_repairs",
        "coverage_delta_repairs" => "topology.coverage_delta_repairs",
        "coverage_full_recomputes" => "topology.coverage_full_recomputes",
        "disk_grid_queries" => "topology.disk_grid_queries",
        "disk_cache_hits" => "topology.disk_cache_hits",
        "disk_cache_grafts" => "topology.disk_cache_grafts",
        "full_rebuilds" => "topology.full_rebuilds",
        "clone_from_reuses" => "topology.clone_from_reuses",
        other => other,
    }
}

/// Maps a [`ConnectivityStats`] field name to its dot-qualified
/// telemetry name.
fn qualified_connectivity_name(name: &'static str) -> &'static str {
    match name {
        "repairs" => "connectivity.repairs",
        "insertions" => "connectivity.insertions",
        "deletions" => "connectivity.deletions",
        "bfs_edge_visits" => "connectivity.bfs_edge_visits",
        other => other,
    }
}

/// Maps a [`FaultStats`] field name to its dot-qualified name.
fn qualified_fault_name(name: &'static str) -> &'static str {
    match name {
        "injected_panics" => "fault.injected_panics",
        "injected_errors" => "fault.injected_errors",
        "caught_panics" => "fault.caught_panics",
        other => other,
    }
}

/// Maps a [`RetryStats`] field name to its dot-qualified name.
fn qualified_retry_name(name: &'static str) -> &'static str {
    match name {
        "attempts" => "retry.attempts",
        "retries" => "retry.retries",
        "recovered_jobs" => "retry.recovered_jobs",
        "exhausted_jobs" => "retry.exhausted_jobs",
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_connectivity() -> ConnectivityStats {
        ConnectivityStats {
            repairs: 5,
            insertions: 3,
            deletions: 2,
            bfs_edge_visits: 40,
            ..Default::default()
        }
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = sample_connectivity();
        let b = sample_connectivity();
        a.merge(&b);
        assert_eq!(a.repairs, 10);
        assert_eq!(a.insertions, 6);
        assert_eq!(a.bfs_edge_visits, 80);
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let earlier = sample_connectivity();
        let mut later = earlier;
        later.repairs += 7;
        later.bfs_edge_visits += 1;
        let d = later.delta_since(&earlier);
        assert_eq!(d.repairs, 7);
        assert_eq!(d.bfs_edge_visits, 1);
        assert_eq!(d.insertions, 0);
        // A later snapshot that starts from zero saturates instead of
        // wrapping.
        let fresh = ConnectivityStats::default();
        assert_eq!(fresh.delta_since(&earlier), fresh);
    }

    #[test]
    fn engine_for_each_is_fixed_order_and_complete() {
        let mut e = EngineStats::default();
        e.topology.single_moves = 1;
        e.connectivity.repairs = 2;
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
        r.retry.attempts = 7;
        assert!(r.is_uneventful());
        r.retry.retries = 1;
        assert!(!r.is_uneventful());
        r.retry.retries = 0;
        r.fault.injected_errors = 1;
        assert!(!r.is_uneventful());
    }

    #[test]
    fn robustness_for_each_is_fixed_order_and_complete() {
        let mut r = RobustnessStats::default();
        r.fault.injected_panics = 1;
        r.retry.attempts = 2;
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
        let mut a = RobustnessStats::default();
        a.fault.caught_panics = 2;
        a.retry.retries = 3;
        let mut b = RobustnessStats::default();
        b.fault.caught_panics = 1;
        b.retry.recovered_jobs = 5;
        a.merge(&b);
        assert_eq!(a.fault.caught_panics, 3);
        assert_eq!(a.retry.retries, 3);
        assert_eq!(a.retry.recovered_jobs, 5);
    }

    /// An engine profile with every counter set, each to its own value.
    fn every_counter() -> EngineStats {
        EngineStats::new(
            TopologyStats {
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
            },
            ConnectivityStats {
                repairs: 13,
                insertions: 14,
                deletions: 15,
                bfs_edge_visits: 16,
            },
        )
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
        let section = |name| repair_section(name, false);
        assert_eq!(section("topology.clone_from_reuses"), None);
        assert_eq!(section("topology.batch_repairs"), Some("edge_repair"));
        assert_eq!(section("topology.batch_moved_routers"), Some("edge_repair"));
        assert_eq!(
            section("connectivity.bfs_edge_visits"),
            Some("component_repair")
        );
        assert_eq!(section("topology.disk_cache_grafts"), Some("coverage"));
        assert_eq!(
            section("topology.coverage_full_recomputes"),
            Some("coverage")
        );
        assert_eq!(
            repair_section("topology.coverage_full_recomputes", true),
            Some("full_rebuild")
        );
        assert_eq!(repair_section("topology.clone_from_reuses", true), None);
    }

    #[test]
    fn record_counters_skips_zeros() {
        let mut e = EngineStats::default();
        e.topology.swaps = 4;
        let mut rec = crate::TelemetryRecorder::new();
        e.record_counters(&mut rec);
        assert_eq!(rec.counters().len(), 1);
        assert_eq!(rec.counters().get("topology.swaps"), Some(&4));
    }
}

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

/// Cumulative counters of the dynamic-connectivity repair engine
/// (`wmn-graph`'s `DynamicConnectivity`), proving which repair path ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ConnectivityStats {
    /// Diff applications attempted (calls to `apply_edge_diff`).
    pub repairs: u64,
    /// Edge insertions processed (each a DSU union over component ids).
    pub insertions: u64,
    /// Edge deletions processed (each a bounded bidirectional search).
    pub deletions: u64,
    /// Label-class merges that actually joined two components.
    pub merges: u64,
    /// Deletions that split a component.
    pub splits: u64,
    /// Total edge visits performed by the bidirectional searches.
    pub bfs_edge_visits: u64,
    /// Deletions settled by the triangle fast path: a neighbor shared by
    /// both endpoints in the final adjacency proves they stay connected,
    /// so no search runs at all.
    pub triangle_shortcuts: u64,
    /// Repairs that exceeded the cost cap and fell back to the
    /// whole-graph DSU rescan.
    pub fallbacks: u64,
}

impl ConnectivityStats {
    /// Resets every counter to zero (the start of a measurement window).
    pub fn reset(&mut self) {
        *self = ConnectivityStats::default();
    }

    /// Adds `other`'s counts into `self` (order-independent, so merging
    /// per-worker stats in index order is deterministic).
    pub fn merge(&mut self, other: &ConnectivityStats) {
        self.repairs += other.repairs;
        self.insertions += other.insertions;
        self.deletions += other.deletions;
        self.merges += other.merges;
        self.splits += other.splits;
        self.bfs_edge_visits += other.bfs_edge_visits;
        self.triangle_shortcuts += other.triangle_shortcuts;
        self.fallbacks += other.fallbacks;
    }

    /// The counts accumulated since `earlier` was captured (saturating,
    /// so a reset between snapshots yields zeros instead of wrapping).
    #[must_use]
    pub fn delta_since(&self, earlier: &ConnectivityStats) -> ConnectivityStats {
        ConnectivityStats {
            repairs: self.repairs.saturating_sub(earlier.repairs),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            deletions: self.deletions.saturating_sub(earlier.deletions),
            merges: self.merges.saturating_sub(earlier.merges),
            splits: self.splits.saturating_sub(earlier.splits),
            bfs_edge_visits: self.bfs_edge_visits.saturating_sub(earlier.bfs_edge_visits),
            triangle_shortcuts: self
                .triangle_shortcuts
                .saturating_sub(earlier.triangle_shortcuts),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
        }
    }

    /// Visits every counter as a `(name, value)` pair in a fixed,
    /// documented order (the telemetry emission order).
    pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
        f("repairs", self.repairs);
        f("insertions", self.insertions);
        f("deletions", self.deletions);
        f("merges", self.merges);
        f("splits", self.splits);
        f("bfs_edge_visits", self.bfs_edge_visits);
        f("triangle_shortcuts", self.triangle_shortcuts);
        f("fallbacks", self.fallbacks);
    }

    /// Splits the profile into its two repair stages — the phase
    /// taxonomy of `DynamicConnectivity::repair`. Every counter belongs
    /// statically to exactly one stage: insertions and the merges they
    /// cause happen in the insert sweep; deletions and everything they
    /// trigger (splits, search edge visits, triangle shortcuts, rescan
    /// fallbacks) in the delete sweep. `repairs` counts whole calls and
    /// belongs to neither stage (attribute it to the parent phase).
    #[must_use]
    pub fn stage_split(&self) -> (ConnectivityStats, ConnectivityStats) {
        let insert = ConnectivityStats {
            insertions: self.insertions,
            merges: self.merges,
            ..ConnectivityStats::default()
        };
        let delete = ConnectivityStats {
            deletions: self.deletions,
            splits: self.splits,
            bfs_edge_visits: self.bfs_edge_visits,
            triangle_shortcuts: self.triangle_shortcuts,
            fallbacks: self.fallbacks,
            ..ConnectivityStats::default()
        };
        (insert, delete)
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
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = TopologyStats::default();
    }

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
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = FaultStats::default();
    }

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
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = RetryStats::default();
    }

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
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.fault.reset();
        self.retry.reset();
    }

    /// Adds `other`'s counts into `self` (order-independent).
    pub fn merge(&mut self, other: &RobustnessStats) {
        self.fault.merge(&other.fault);
        self.retry.merge(&other.retry);
    }

    /// Whether anything at all was injected, caught, or retried (the
    /// runners' gate for printing a chaos report).
    pub fn is_zero(&self) -> bool {
        *self == RobustnessStats::default()
    }

    /// Whether the batch ran without incident: no faults injected or
    /// caught, no retries, no recovered or exhausted jobs. First
    /// attempts alone (`retry.attempts` equals the job count) are
    /// business as usual, so a fault-free run is uneventful even though
    /// it is not [`is_zero`](Self::is_zero).
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

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.topology.reset();
        self.connectivity.reset();
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
    /// the [`Recorder`](crate::Recorder) layer and telemetry JSON use.
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
    pub fn record_counters(&self, recorder: &mut dyn crate::Recorder) {
        self.for_each(|name, v| {
            if v != 0 {
                recorder.counter(name, v);
            }
        });
    }

    /// Like [`record_counters`](EngineStats::record_counters), but
    /// attributes connectivity work one level deeper: topology and
    /// `connectivity.repairs` counters emit at the recorder's current
    /// phase, while the per-stage connectivity
    /// counters (see [`ConnectivityStats::stage_split`]) emit under
    /// child phases `insert` / `delete`. Flat totals are identical to a
    /// single `record_counters` call — only the attribution differs.
    pub fn record_counters_staged(&self, recorder: &mut dyn crate::Recorder) {
        let parent = EngineStats::new(
            self.topology,
            ConnectivityStats {
                repairs: self.connectivity.repairs,
                ..ConnectivityStats::default()
            },
        );
        parent.record_counters(recorder);
        let (insert, delete) = self.connectivity.stage_split();
        if insert != ConnectivityStats::default() {
            let mut g = crate::recorder::phase(recorder, "insert");
            EngineStats::new(TopologyStats::default(), insert).record_counters(&mut g);
        }
        if delete != ConnectivityStats::default() {
            let mut g = crate::recorder::phase(recorder, "delete");
            EngineStats::new(TopologyStats::default(), delete).record_counters(&mut g);
        }
    }
}

/// Per-phase work buckets of `WmnTopology::apply_moves` — the batch
/// repair pipeline split along its three sections (plus the
/// `FullRebuild`-mode escape hatch). Buckets are always-on scratch
/// state like the flat counters they partition: each bucket is the
/// [`EngineStats`] delta accumulated while its section ran, so the four
/// buckets sum to exactly the engine work done inside batch repairs.
/// Work done outside `apply_moves` (single-router moves, `clone_from`
/// copies, full `reset_placement` rebuilds) lands in no bucket and is
/// the caller's to attribute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ApplyPhases {
    /// Per-router grid-local link recomputation and edge diffing.
    pub edge_repair: EngineStats,
    /// Incremental component repair (the connectivity engine's insert /
    /// delete sweeps, including any cost-cap rescan fallback).
    pub component_repair: EngineStats,
    /// Coverage maintenance: disk-cache refills and the per-disk delta
    /// vs. full-recompute coverage repair.
    pub coverage: EngineStats,
    /// Whole-topology rebuilds taken instead of the incremental pipeline
    /// (`FullRebuild` connectivity mode). Zero on the default pipeline.
    pub full_rebuild: EngineStats,
}

impl ApplyPhases {
    /// Resets every bucket to zero.
    pub fn reset(&mut self) {
        *self = ApplyPhases::default();
    }

    /// Adds `other`'s buckets into `self` (order-independent).
    pub fn merge(&mut self, other: &ApplyPhases) {
        self.edge_repair.merge(&other.edge_repair);
        self.component_repair.merge(&other.component_repair);
        self.coverage.merge(&other.coverage);
        self.full_rebuild.merge(&other.full_rebuild);
    }

    /// The buckets accumulated since `earlier` was captured (saturating).
    #[must_use]
    pub fn delta_since(&self, earlier: &ApplyPhases) -> ApplyPhases {
        ApplyPhases {
            edge_repair: self.edge_repair.delta_since(&earlier.edge_repair),
            component_repair: self.component_repair.delta_since(&earlier.component_repair),
            coverage: self.coverage.delta_since(&earlier.coverage),
            full_rebuild: self.full_rebuild.delta_since(&earlier.full_rebuild),
        }
    }

    /// The sum of all buckets: the engine work that happened *inside*
    /// batch repairs. Subtract from an overall [`EngineStats`] delta to
    /// get the unattributed residual.
    #[must_use]
    pub fn attributed(&self) -> EngineStats {
        let mut sum = self.edge_repair;
        sum.merge(&self.component_repair);
        sum.merge(&self.coverage);
        sum.merge(&self.full_rebuild);
        sum
    }

    /// Visits every bucket as a `(phase-name, bucket)` pair in pipeline
    /// order. Names are single phase segments (no dots).
    pub fn for_each_bucket(&self, mut f: impl FnMut(&'static str, &EngineStats)) {
        f("edge_repair", &self.edge_repair);
        f("component_repair", &self.component_repair);
        f("coverage", &self.coverage);
        f("full_rebuild", &self.full_rebuild);
    }

    /// Emits every non-zero bucket into `recorder`, each under a child
    /// phase named after its pipeline section; the `component_repair`
    /// bucket additionally splits its connectivity work into `insert` /
    /// `delete` stage phases. Flat counter totals equal one
    /// `attributed().record_counters(..)` call — only attribution
    /// differs.
    pub fn record_counters(&self, recorder: &mut dyn crate::Recorder) {
        self.for_each_bucket(|name, bucket| {
            if *bucket == EngineStats::default() {
                return;
            }
            let mut g = crate::recorder::phase(&mut *recorder, name);
            if name == "component_repair" {
                bucket.record_counters_staged(&mut g);
            } else {
                bucket.record_counters(&mut g);
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
        "merges" => "connectivity.merges",
        "splits" => "connectivity.splits",
        "bfs_edge_visits" => "connectivity.bfs_edge_visits",
        "triangle_shortcuts" => "connectivity.triangle_shortcuts",
        "fallbacks" => "connectivity.fallbacks",
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
    fn reset_zeroes_everything() {
        let mut s = sample_connectivity();
        s.reset();
        assert_eq!(s, ConnectivityStats::default());
        let mut t = TopologyStats {
            disk_cache_hits: 9,
            ..Default::default()
        };
        t.reset();
        assert_eq!(t, TopologyStats::default());
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = sample_connectivity();
        let b = sample_connectivity();
        a.merge(&b);
        assert_eq!(a.repairs, 10);
        assert_eq!(a.bfs_edge_visits, 80);
        assert_eq!(a.fallbacks, 0);
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
        // A reset between snapshots saturates to zero instead of wrapping.
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
        assert_eq!(names.len(), 12 + 8, "every field appears exactly once");
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
        assert!(r.is_zero());
        r.fault.injected_panics = 1;
        r.retry.attempts = 2;
        assert!(!r.is_zero());
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

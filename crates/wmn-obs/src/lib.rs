//! Observability substrate for the WMN engine.
//!
//! Wall-clock timings are ±30% noisy on shared 1-core hardware, so the
//! workspace's perf oracle is **deterministic work counters**: exact
//! counts of repairs, edge visits, grid queries, and cache hits that are
//! byte-stable across runs *and thread counts* for a fixed seed. This
//! crate provides the two layers that carry them:
//!
//! * [`stats`] — always-on engine counters: [`ConnectivityStats`] (the
//!   dynamic-connectivity repair engine), [`TopologyStats`] (the
//!   topology's coverage/edge/cache work), and the unifying
//!   [`EngineStats`] with deterministic merge/delta/flatten operations.
//!   These are plain `u64` increments on structs the hot paths already
//!   own — no indirection, no feature gates.
//! * [`recorder`] — the opt-in telemetry layer: a [`Recorder`] trait
//!   (monotonic counters, value histograms, span timers, phase scopes)
//!   with a no-op default ([`NoopRecorder`]) that callers thread through
//!   as `&mut dyn Recorder`. Instrumented code aggregates locally and
//!   emits once per run/phase, so the disabled path costs a handful of
//!   virtual calls per *run*, not per move. [`TelemetryRecorder`]
//!   collects into `BTreeMap`s and renders **deterministic JSON**
//!   (spans, which carry wall-clock nanoseconds, are rendered separately
//!   as JSONL and never mixed into the deterministic document).
//!
//! # The counter-weighted flamegraph
//!
//! Phase scopes ([`phase`], [`Recorder::phase_enter`]) turn the flat
//! counter namespace into a **counter-weighted flamegraph**: a counter
//! emitted while phases are open is *additionally* attributed to the
//! open phase path in a [`PhaseNode`] tree, without changing its flat
//! total. Where a wall-clock flamegraph answers "where did the time
//! go?" with noisy samples, the attribution tree answers "where did the
//! *work* go?" with exact, deterministic weights — so the answer is
//! byte-identical across runs and thread counts for a fixed seed, can be
//! committed as an artifact, and can gate CI. Emission sites telescope
//! deltas: an engine-work total that used to be emitted in one call is
//! emitted as per-phase slices that sum to the same flat counts (see
//! [`ApplyPhases`] and [`EngineStats::record_counters_staged`]), which
//! is what keeps committed counter baselines valid across
//! instrumentation changes. `wmn-report flame` renders the tree as a
//! text flamegraph with percentages.
//!
//! The crate is dependency-free and sits below `wmn-graph`, so every
//! layer of the engine can report through it.
//!
//! # Example
//!
//! ```
//! use wmn_obs::{Recorder, TelemetryRecorder};
//!
//! let mut rec = TelemetryRecorder::new();
//! rec.counter("engine.repairs", 3);
//! rec.counter("engine.repairs", 2);
//! rec.value("ga.diff_size", 7);
//! assert!(rec.render_json().contains("\"engine.repairs\":5"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod recorder;
pub mod stats;

pub use recorder::{
    phase, time_span, Histogram, NoopRecorder, PhaseGuard, PhaseNode, Recorder, SpanEntry,
    TelemetryRecorder,
};
pub use stats::{
    ApplyPhases, ConnectivityStats, EngineStats, FaultStats, RetryStats, RobustnessStats,
    TopologyStats,
};

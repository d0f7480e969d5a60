//! The opt-in telemetry layer: [`Recorder`], its no-op default, the
//! collecting [`TelemetryRecorder`], and scoped phase attribution.
//!
//! Instrumented code takes `&mut dyn Recorder` and follows two rules
//! that make the disabled path free and the enabled path deterministic:
//!
//! 1. **Aggregate locally, emit rarely.** Hot loops accumulate plain
//!    `u64` locals (or read the always-on [`EngineStats`] counters) and
//!    call the recorder once per run, phase, or generation — never per
//!    move. With a [`NoopRecorder`] the cost is a handful of virtual
//!    calls per run; nothing allocates.
//! 2. **Gate optional work on [`Recorder::enabled`].** Anything beyond a
//!    pre-aggregated emit (per-generation delta sweeps, span timing via
//!    `std::time::Instant`) runs only when the recorder asks for it.
//!
//! # Phases: a counter-weighted flamegraph of work
//!
//! Wall-clock flamegraphs are noise on shared 1-core hardware, so the
//! profiling primitive here is *counter attribution*: a scoped **phase
//! stack** ([`Recorder::phase_enter`] / [`Recorder::phase_exit`], or the
//! RAII [`phase`] guard). Counters emitted while phases are open are
//! recorded twice — once in the flat counter map (unchanged totals, so
//! committed counter baselines survive instrumentation), and once in an
//! **attribution tree** ([`PhaseNode`]) under the current phase path.
//! Because the weights are deterministic work counts, the resulting
//! flamegraph is byte-identical across runs and thread counts for a
//! fixed seed — `wmn-report flame` renders it with percentages. Phase
//! names are single path segments and must not contain `'.'`; the
//! dot-joined display form (`phase.ga.evaluate.apply_moves.<counter>`)
//! belongs to renderers, not to storage.
//!
//! Spans gain the same nesting: a span recorded under open phases
//! remembers its ancestor path, and [`render_spans_jsonl`] emits a
//! parented v2 stream (`path` / `parent` / `depth` / `index` fields)
//! sorted by `(path, index)` so span output of equal-thread-count runs
//! diffs cleanly. Span durations stay wall-clock and informational-only.
//!
//! [`TelemetryRecorder`] keeps counters, histograms and the attribution
//! tree in `BTreeMap`s, so iteration — and therefore any document written
//! from the accessors — is deterministic. Merging two recorders is
//! field-wise addition plus recursive attribution-tree merge plus span
//! concatenation; merging per-job recorders in job-index order (what
//! `wmn-runtime` does) yields equal counters, histograms and trees for
//! every thread count. Span entries carry wall-clock nanoseconds and are
//! the one nondeterministic stream: [`render_spans_jsonl`] renders them
//! on their own, and the deterministic document (`telemetry.json`,
//! written by `wmn-experiments`) leaves them out.
//!
//! [`EngineStats`]: crate::EngineStats
//! [`render_spans_jsonl`]: TelemetryRecorder::render_spans_jsonl

use std::collections::BTreeMap;

/// A sink for instrumentation events: monotonic counters, value
/// histograms, span timings, and phase scopes.
///
/// Implementations must be order-insensitive for counters and histogram
/// values (addition and min/max/sum/count are commutative), which is what
/// lets per-worker recorders merge deterministically.
pub trait Recorder {
    /// Whether this recorder wants events at all. Instrumented code uses
    /// this to skip work that exists only to feed the recorder (delta
    /// sweeps, clock reads); it must not change *what* the instrumented
    /// code computes.
    fn enabled(&self) -> bool;

    /// Adds `delta` to the monotonic counter `name`. While phases are
    /// open (see [`phase_enter`](Recorder::phase_enter)), collecting
    /// implementations additionally attribute the delta to the current
    /// phase path; the flat counter total is unaffected.
    fn counter(&mut self, name: &'static str, delta: u64);

    /// Records one observation of the value distribution `name`.
    fn value(&mut self, name: &'static str, value: u64);

    /// Records one completed span of `name` lasting `nanos` wall-clock
    /// nanoseconds, nested under the currently open phases. Spans are
    /// nondeterministic by nature and must never feed deterministic
    /// artifacts.
    fn span(&mut self, name: &'static str, nanos: u64);

    /// Opens a phase scope named `name` (a single path segment — must
    /// not contain `'.'`). Subsequent counters attribute under it until
    /// the matching [`phase_exit`](Recorder::phase_exit). Prefer the
    /// RAII [`phase`] guard, which balances the exit even on unwind.
    fn phase_enter(&mut self, _name: &'static str) {}

    /// Closes the innermost open phase scope. Calling with no phase open
    /// is a no-op (tolerated so unwind-driven guard drops can never
    /// fail), but balanced enter/exit is the contract.
    fn phase_exit(&mut self) {}
}

impl std::fmt::Debug for dyn Recorder + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn Recorder")
    }
}

/// The zero-cost default: drops every event, reports disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    fn value(&mut self, _name: &'static str, _value: u64) {}

    fn span(&mut self, _name: &'static str, _nanos: u64) {}
}

/// An RAII phase scope: created by [`phase`], closes its scope on drop —
/// including drops driven by panic unwinding, so a panicking job under a
/// retrying runtime can never leave a recorder's phase stack unbalanced.
///
/// The guard itself implements [`Recorder`] by delegation, so nested
/// phases and instrumented calls compose naturally:
///
/// ```
/// use wmn_obs::{phase, Recorder, TelemetryRecorder};
///
/// let mut rec = TelemetryRecorder::new();
/// {
///     let mut ga = phase(&mut rec, "ga");
///     let mut eval = phase(&mut ga, "evaluate");
///     eval.counter("topology.single_moves", 3);
/// }
/// let node = rec.attribution().get(&["ga", "evaluate"]).unwrap();
/// assert_eq!(node.counters["topology.single_moves"], 3);
/// ```
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    rec: &'a mut (dyn Recorder + 'a),
}

/// Opens the phase `name` on `recorder` and returns the guard that
/// closes it. `name` is one path segment and must not contain `'.'`.
pub fn phase<'a>(recorder: &'a mut (dyn Recorder + 'a), name: &'static str) -> PhaseGuard<'a> {
    recorder.phase_enter(name);
    PhaseGuard { rec: recorder }
}

impl Recorder for PhaseGuard<'_> {
    fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.rec.counter(name, delta);
    }

    fn value(&mut self, name: &'static str, value: u64) {
        self.rec.value(name, value);
    }

    fn span(&mut self, name: &'static str, nanos: u64) {
        self.rec.span(name, nanos);
    }

    fn phase_enter(&mut self, name: &'static str) {
        self.rec.phase_enter(name);
    }

    fn phase_exit(&mut self) {
        self.rec.phase_exit();
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.rec.phase_exit();
    }
}

/// Times `f` into `recorder` as a span named `name` — but only reads the
/// clock when the recorder is enabled, so the disabled path is exactly
/// one virtual call around `f`. The span nests under whatever phases are
/// open at the time of the call.
pub fn time_span<R>(recorder: &mut dyn Recorder, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !recorder.enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    recorder.span(name, nanos);
    out
}

/// Summary of one value distribution: count, sum, and range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn of(value: u64) -> Histogram {
        Histogram {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One node of the phase-attribution tree: the counters emitted directly
/// in this phase, and the child phases opened under it. Weights are
/// deterministic work counts, so the tree — and any flamegraph rendered
/// from it — is byte-stable across thread counts. The keys are owned, so
/// a tree read back from `telemetry.json` is the same type as the one a
/// recorder fills.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseNode {
    /// Counter deltas attributed directly to this phase (not including
    /// descendants), keyed by the flat counter name.
    pub counters: BTreeMap<String, u64>,
    /// Child phases, keyed by phase segment name.
    pub children: BTreeMap<String, PhaseNode>,
}

impl PhaseNode {
    /// The node's weight: its own counters plus every descendant's.
    pub fn total(&self) -> u64 {
        self.counters.values().sum::<u64>()
            + self.children.values().map(PhaseNode::total).sum::<u64>()
    }

    /// The descendant at `path` (`&[]` is the node itself).
    pub fn get(&self, path: &[&str]) -> Option<&PhaseNode> {
        match path.split_first() {
            None => Some(self),
            Some((seg, rest)) => self.children.get(*seg)?.get(rest),
        }
    }

    fn add(&mut self, path: &[&'static str], name: &'static str, delta: u64) {
        let mut node = self;
        for seg in path {
            node = node.children.entry((*seg).to_owned()).or_default();
        }
        *node.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    fn merge(&mut self, other: PhaseNode) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (seg, child) in other.children {
            self.children.entry(seg).or_default().merge(child);
        }
    }
}

/// One recorded span: a name, the phase path it was recorded under, and
/// its wall-clock duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    /// The span's name (may contain dots; only *phase* segments may not).
    pub name: &'static str,
    /// The phase segments open when the span was recorded (outermost
    /// first); empty for a top-level span.
    pub path: Vec<&'static str>,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u64,
}

impl SpanEntry {
    /// The dot-joined full path, ancestors then name.
    pub fn full_path(&self) -> String {
        if self.path.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.path.join("."), self.name)
        }
    }
}

/// A collecting [`Recorder`]: counters and histograms in deterministic
/// `BTreeMap`s, phase attribution in a [`PhaseNode`] tree, spans in
/// arrival order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryRecorder {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    attribution: PhaseNode,
    phase_stack: Vec<&'static str>,
    spans: Vec<SpanEntry>,
}

impl TelemetryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TelemetryRecorder::default()
    }

    /// The collected counters, keyed by name.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// The collected histograms, keyed by name.
    pub fn histograms(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.histograms
    }

    /// The phase-attribution tree (the root node is anonymous; top-level
    /// phases are its children).
    pub fn attribution(&self) -> &PhaseNode {
        &self.attribution
    }

    /// How many phases are currently open (0 when balanced at rest).
    pub fn phase_depth(&self) -> usize {
        self.phase_stack.len()
    }

    /// The collected spans, in arrival order.
    pub fn spans(&self) -> &[SpanEntry] {
        &self.spans
    }

    /// Folds `other` into `self`: counters add, histograms merge, the
    /// attribution trees merge recursively (commutative addition at
    /// every node), spans append. Merging per-job recorders in job-index
    /// order produces the same counters, histograms, and attribution as
    /// a serial run. Merge recorders *at rest* — `other`'s open phase
    /// stack (if any) is discarded, not adopted.
    pub fn merge(&mut self, other: TelemetryRecorder) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(&h),
                None => {
                    self.histograms.insert(name, h);
                }
            }
        }
        self.attribution.merge(other.attribution);
        self.spans.extend(other.spans);
    }

    /// Renders the spans as JSON Lines v2, one
    /// `{"span":name,"path":...,"parent":...,"depth":D,"index":I,"nanos":N}`
    /// object per line (empty string when no spans were recorded).
    /// `path` is the dot-joined phase path plus the span name, `parent`
    /// the path without the name, `depth` the number of enclosing
    /// phases, and `index` the 0-based arrival rank among same-path
    /// spans. Lines are sorted by `(path, index)`, so runs of equal
    /// structure diff cleanly regardless of completion order. Wall-clock
    /// durations are nondeterministic; keep this out of byte-compared
    /// artifacts.
    pub fn render_spans_jsonl(&self) -> String {
        let mut occurrence: BTreeMap<String, u64> = BTreeMap::new();
        let mut rows: Vec<(String, u64, &SpanEntry)> = self
            .spans
            .iter()
            .map(|s| {
                let full = s.full_path();
                let slot = occurrence.entry(full.clone()).or_insert(0);
                let index = *slot;
                *slot += 1;
                (full, index, s)
            })
            .collect();
        rows.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let mut out = String::new();
        for (full, index, s) in rows {
            out.push_str(&format!(
                "{{\"span\":\"{}\",\"path\":\"{}\",\"parent\":\"{}\",\"depth\":{},\"index\":{},\"nanos\":{}}}\n",
                s.name,
                full,
                s.path.join("."),
                s.path.len(),
                index,
                s.nanos
            ));
        }
        out
    }
}

impl Recorder for TelemetryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
        if !self.phase_stack.is_empty() {
            self.attribution.add(&self.phase_stack, name, delta);
        }
    }

    fn value(&mut self, name: &'static str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                self.histograms.insert(name, Histogram::of(value));
            }
        }
    }

    fn span(&mut self, name: &'static str, nanos: u64) {
        self.spans.push(SpanEntry {
            name,
            path: self.phase_stack.clone(),
            nanos,
        });
    }

    fn phase_enter(&mut self, name: &'static str) {
        debug_assert!(
            !name.contains('.'),
            "phase names are single path segments, got {name:?}"
        );
        self.phase_stack.push(name);
    }

    fn phase_exit(&mut self) {
        self.phase_stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let mut rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.counter("x", 1);
        rec.value("y", 2);
        rec.span("z", 3);
        rec.phase_enter("p");
        rec.phase_exit();
    }

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let mut rec = TelemetryRecorder::new();
        rec.counter("b", 2);
        rec.counter("a", 1);
        rec.counter("b", 3);
        // Any writer renders the counters in the map's (sorted) order.
        let counters: Vec<(&str, u64)> = rec.counters().iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(counters, [("a", 1), ("b", 5)]);
        assert!(rec.histograms().is_empty());
        assert_eq!(rec.attribution(), &PhaseNode::default());
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let mut rec = TelemetryRecorder::new();
        for v in [5, 1, 9] {
            rec.value("diff", v);
        }
        let h = rec.histograms()["diff"];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 15, 1, 9));
    }

    #[test]
    fn merge_order_does_not_change_rendering() {
        let mut a = TelemetryRecorder::new();
        a.counter("n", 1);
        a.value("v", 10);
        {
            let mut p = phase(&mut a, "work");
            p.counter("n", 4);
        }
        let mut b = TelemetryRecorder::new();
        b.counter("n", 2);
        b.counter("m", 7);
        b.value("v", 4);
        {
            let mut p = phase(&mut b, "work");
            p.counter("n", 5);
        }

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters()["n"], 12);
        assert_eq!(ab.attribution().get(&["work"]).unwrap().counters["n"], 9);
    }

    #[test]
    fn phases_attribute_without_disturbing_flat_totals() {
        let mut rec = TelemetryRecorder::new();
        rec.counter("engine.work", 1);
        {
            let mut outer = phase(&mut rec, "outer");
            outer.counter("engine.work", 2);
            {
                let mut inner = phase(&mut outer, "inner");
                inner.counter("engine.work", 4);
            }
            outer.counter("engine.other", 8);
        }
        assert_eq!(rec.counters()["engine.work"], 7, "flat total is the sum");
        assert_eq!(rec.phase_depth(), 0, "guards balanced the stack");
        let root = rec.attribution();
        assert!(root.counters.is_empty(), "unscoped counters stay flat-only");
        let outer = root.get(&["outer"]).unwrap();
        assert_eq!(outer.counters["engine.work"], 2);
        assert_eq!(outer.counters["engine.other"], 8);
        assert_eq!(
            root.get(&["outer", "inner"]).unwrap().counters["engine.work"],
            4
        );
        assert_eq!(outer.total(), 14);
        assert_eq!(root.children.keys().collect::<Vec<_>>(), ["outer"]);
        assert_eq!(outer.children.keys().collect::<Vec<_>>(), ["inner"]);
        let inner = &outer.children["inner"];
        assert_eq!(inner.counters.len(), 1);
        assert!(inner.children.is_empty());
    }

    #[test]
    fn unbalanced_phase_exit_is_a_tolerated_noop() {
        let mut rec = TelemetryRecorder::new();
        rec.phase_exit();
        rec.phase_exit();
        assert_eq!(rec.phase_depth(), 0);
        rec.phase_enter("p");
        rec.counter("c", 1);
        rec.phase_exit();
        rec.phase_exit();
        assert_eq!(rec.phase_depth(), 0);
        assert_eq!(rec.attribution().get(&["p"]).unwrap().counters["c"], 1);
    }

    #[test]
    fn phase_guard_balances_on_panic_unwind() {
        let mut rec = TelemetryRecorder::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = phase(&mut rec, "doomed");
            g.counter("before", 1);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(rec.phase_depth(), 0, "guard drop closed the phase");
        assert_eq!(
            rec.attribution().get(&["doomed"]).unwrap().counters["before"],
            1
        );
    }

    #[test]
    fn spans_render_separately_as_sorted_parented_jsonl() {
        let mut rec = TelemetryRecorder::new();
        rec.span("run", 1234);
        {
            let mut g = phase(&mut rec, "ga");
            g.span("reproduce", 9);
            g.span("reproduce", 11);
        }
        assert_eq!(
            rec.render_spans_jsonl(),
            concat!(
                "{\"span\":\"reproduce\",\"path\":\"ga.reproduce\",\"parent\":\"ga\",\"depth\":1,\"index\":0,\"nanos\":9}\n",
                "{\"span\":\"reproduce\",\"path\":\"ga.reproduce\",\"parent\":\"ga\",\"depth\":1,\"index\":1,\"nanos\":11}\n",
                "{\"span\":\"run\",\"path\":\"run\",\"parent\":\"\",\"depth\":0,\"index\":0,\"nanos\":1234}\n"
            )
        );
        assert_eq!(
            rec.attribution(),
            &PhaseNode::default(),
            "spans stay out of the deterministic tree"
        );
    }

    #[test]
    fn span_sort_is_by_path_then_arrival_index() {
        let mut rec = TelemetryRecorder::new();
        rec.span("b", 2);
        rec.span("a", 1);
        rec.span("b", 3);
        let rendered = rec.render_spans_jsonl();
        let lines: Vec<&str> = rendered.lines().map(|l| l.trim()).collect();
        assert!(lines[0].contains("\"span\":\"a\""));
        assert!(lines[1].contains("\"nanos\":2") && lines[1].contains("\"index\":0"));
        assert!(lines[2].contains("\"nanos\":3") && lines[2].contains("\"index\":1"));
    }

    #[test]
    fn time_span_skips_the_clock_when_disabled() {
        let mut noop = NoopRecorder;
        let out = time_span(&mut noop, "work", || 7);
        assert_eq!(out, 7);
        let mut rec = TelemetryRecorder::new();
        let out = time_span(&mut rec, "work", || 7);
        assert_eq!(out, 7);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].name, "work");
    }
}

//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer of the program (see `adapter`); the program itself carries no
//! instrumentation. Each span kind keeps its raw durations, so the report
//! can give totals and percentiles with their sample counts.

use std::time::Instant;

/// The layer boundaries the adapter times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Instance generation (`wmn-model`).
    Instance,
    /// Building the placements a cell starts from (`wmn-placement`'s ad
    /// hoc heuristics for GA cells, the shared random start for search).
    PlacementInit,
    /// Full topology builds (`wmn-graph`), including the GA's initial
    /// population evaluation.
    Build,
    /// Per-child topology state copy (`EvalWorkspace::adopt_topology`).
    Clone,
    /// Per-child incremental diff repair and scoring
    /// (`Evaluator::evaluate_moves_to_from`).
    Repair,
    /// Per-neighbor `MoveAction::apply` plus `UndoAction::undo`.
    Move,
    /// Per-neighbor `Evaluator::evaluate_topology`.
    Score,
    /// Per-neighbor `Movement::propose`.
    Propose,
    /// One neighborhood search phase.
    Phase,
    /// One GA generation's `GaEngine::reproduce`.
    Reproduce,
    /// One GA generation's child evaluation.
    Evaluate,
    /// One whole cell (one GA run or one search run).
    Cell,
    /// One step of a cell: its start (up to the first generation or
    /// phase), then each GA generation or search phase.
    Step,
}

impl Span {
    /// Every span kind, in declaration order.
    pub const ALL: [Span; 13] = [
        Span::Instance,
        Span::PlacementInit,
        Span::Build,
        Span::Clone,
        Span::Repair,
        Span::Move,
        Span::Score,
        Span::Propose,
        Span::Phase,
        Span::Reproduce,
        Span::Evaluate,
        Span::Cell,
        Span::Step,
    ];

    /// The span's name in the attribution table.
    pub fn name(self) -> &'static str {
        match self {
            Span::Instance => "model.instance",
            Span::PlacementInit => "placement.init",
            Span::Build => "graph.build",
            Span::Clone => "graph.clone",
            Span::Repair => "graph.repair",
            Span::Move => "graph.move",
            Span::Score => "metrics.score",
            Span::Propose => "search.propose",
            Span::Phase => "search.phase",
            Span::Reproduce => "ga.reproduce",
            Span::Evaluate => "ga.evaluate",
            Span::Cell => "cell",
            Span::Step => "figure.step",
        }
    }
}

const SPAN_KINDS: usize = Span::ALL.len();

/// Durations recorded per span kind, in nanoseconds.
#[derive(Debug, Default)]
pub struct Tracer {
    samples: [Vec<u64>; SPAN_KINDS],
}

impl Tracer {
    /// Runs `f` inside a span of kind `span`.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(span, start);
        out
    }

    /// Records a span of kind `span` that started at `start` and ends now.
    pub fn record(&mut self, span: Span, start: Instant) {
        self.add(span, elapsed_nanos(start));
    }

    /// Records a span of kind `span` lasting `nanos`.
    pub fn add(&mut self, span: Span, nanos: u64) {
        self.samples[span as usize].push(nanos);
    }

    /// The recorded durations of `span`, in recording order.
    pub fn samples(&self, span: Span) -> &[u64] {
        &self.samples[span as usize]
    }

    /// Total time in `span`, in seconds.
    pub fn total_s(&self, span: Span) -> f64 {
        self.samples(span).iter().sum::<u64>() as f64 * 1e-9
    }

    /// The `q`-quantile of `span`'s durations, in seconds (0 when the
    /// span never ran).
    pub fn quantile_s(&self, span: Span, q: f64) -> f64 {
        let mut sorted = self.samples(span).to_vec();
        sorted.sort_unstable();
        quantile(&sorted, q) * 1e-9
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_nanos(start: Instant) -> u64 {
    nanos_between(start, Instant::now())
}

/// Nanoseconds from `start` to `end`.
pub fn nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank `q`-quantile of ascending `sorted` values; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7], 0.01), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_accumulate_per_kind() {
        let mut t = Tracer::default();
        t.add(Span::Clone, 1_000);
        t.add(Span::Clone, 3_000);
        t.add(Span::Repair, 5_000);
        assert_eq!(t.samples(Span::Clone), &[1_000, 3_000]);
        assert!((t.total_s(Span::Clone) - 4e-6).abs() < 1e-15);
        assert!((t.quantile_s(Span::Repair, 0.5) - 5e-6).abs() < 1e-15);
        assert_eq!(t.total_s(Span::Move), 0.0);
    }
}

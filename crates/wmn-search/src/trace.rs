//! Per-phase search traces (the data behind Figure 4).
//!
//! The per-phase record embeds the engine-agnostic
//! [`ProgressPoint`] from
//! `wmn-metrics`, the same shape the GA's per-generation trace uses — so
//! figure writers and telemetry consume one type regardless of which
//! engine produced the run.

use serde::{Deserialize, Serialize};
use wmn_metrics::stats::{ProgressPoint, Trace};

/// What happened in one phase of neighborhood exploration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Solution quality after the phase (`step` is the 1-based phase
    /// number).
    pub progress: ProgressPoint,
    /// Whether the phase's best neighbor was accepted.
    pub accepted: bool,
}

impl PhaseRecord {
    /// Builds a record for one phase.
    pub fn new(
        phase: usize,
        fitness: f64,
        giant_size: usize,
        covered_clients: usize,
        accepted: bool,
    ) -> Self {
        PhaseRecord {
            progress: ProgressPoint::new(phase, fitness, giant_size, covered_clients),
            accepted,
        }
    }

    /// 1-based phase number.
    pub fn phase(&self) -> usize {
        self.progress.step
    }

    /// Giant component size of the *current* solution after the phase.
    pub fn giant_size(&self) -> usize {
        self.progress.giant_size
    }

    /// Covered clients of the current solution after the phase.
    pub fn covered_clients(&self) -> usize {
        self.progress.covered_clients
    }

    /// Scalar fitness of the current solution after the phase.
    pub fn fitness(&self) -> f64 {
        self.progress.fitness
    }
}

/// The full per-phase history of one search run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SearchTrace {
    phases: Vec<PhaseRecord>,
}

impl SearchTrace {
    /// An empty trace.
    pub fn new() -> Self {
        SearchTrace::default()
    }

    /// Appends a phase record.
    pub fn push(&mut self, record: PhaseRecord) {
        self.phases.push(record);
    }

    /// All phase records in order.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Number of recorded phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Returns `true` when no phases are recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Number of phases whose best neighbor was accepted.
    pub fn accepted_count(&self) -> usize {
        self.phases.iter().filter(|p| p.accepted).count()
    }

    /// Converts to a named `(phase, giant_size)` series — the y-axis of the
    /// paper's Figure 4.
    pub fn giant_series(&self, name: impl Into<String>) -> Trace {
        let mut t = Trace::new(name);
        for p in &self.phases {
            let (x, y) = p.progress.giant_xy();
            t.push(x, y);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(phase: usize, giant: usize, accepted: bool) -> PhaseRecord {
        PhaseRecord::new(phase, giant as f64 / 64.0, giant, giant * 2, accepted)
    }

    #[test]
    fn push_and_accessors() {
        let mut t = SearchTrace::new();
        assert!(t.is_empty());
        t.push(record(1, 5, true));
        t.push(record(2, 5, false));
        t.push(record(3, 9, true));
        assert_eq!(t.len(), 3);
        assert_eq!(t.accepted_count(), 2);
    }

    #[test]
    fn record_accessors_mirror_the_progress_point() {
        let r = record(4, 16, true);
        assert_eq!(r.phase(), 4);
        assert_eq!(r.giant_size(), 16);
        assert_eq!(r.covered_clients(), 32);
        assert_eq!(r.fitness(), 0.25);
        assert_eq!(r.progress.step, 4);
    }

    #[test]
    fn giant_series_mirrors_phases() {
        let mut t = SearchTrace::new();
        t.push(record(1, 3, true));
        t.push(record(2, 8, true));
        let s = t.giant_series("Swap");
        assert_eq!(s.name(), "Swap");
        assert_eq!(s.points(), &[(1.0, 3.0), (2.0, 8.0)]);
        assert_eq!(s.max_y(), Some(8.0));
    }
}

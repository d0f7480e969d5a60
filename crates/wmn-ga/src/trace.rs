//! Per-generation GA traces (the data behind Figures 1–3).
//!
//! The per-generation record embeds the engine-agnostic
//! [`ProgressPoint`] from
//! `wmn-metrics`, the same shape the neighborhood-search drivers' per-phase
//! trace uses — so figure writers and telemetry consume one type regardless
//! of which engine produced the run.

use serde::{Deserialize, Serialize};
use wmn_metrics::stats::{ProgressPoint, Trace};

/// Summary of one generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// Best solution quality in the population (`step` is the 0-based
    /// generation number; 0 = initial population).
    pub progress: ProgressPoint,
    /// Mean fitness over the population.
    pub mean_fitness: f64,
    /// Positional diversity of the population (see
    /// [`Population::positional_diversity`](crate::population::Population::positional_diversity)).
    pub diversity: f64,
}

impl GenerationRecord {
    /// Builds a record for one generation.
    pub fn new(
        generation: usize,
        best_fitness: f64,
        best_giant: usize,
        best_coverage: usize,
        mean_fitness: f64,
        diversity: f64,
    ) -> Self {
        GenerationRecord {
            progress: ProgressPoint::new(generation, best_fitness, best_giant, best_coverage),
            mean_fitness,
            diversity,
        }
    }

    /// 0-based generation number (0 = initial population).
    pub fn generation(&self) -> usize {
        self.progress.step
    }

    /// Best fitness in the population.
    pub fn best_fitness(&self) -> f64 {
        self.progress.fitness
    }

    /// Giant component size of the best individual.
    pub fn best_giant(&self) -> usize {
        self.progress.giant_size
    }

    /// Covered clients of the best individual.
    pub fn best_coverage(&self) -> usize {
        self.progress.covered_clients
    }
}

/// The full per-generation history of one GA run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GaTrace {
    records: Vec<GenerationRecord>,
}

impl GaTrace {
    /// An empty trace.
    pub fn new() -> Self {
        GaTrace::default()
    }

    /// Appends a generation record.
    pub fn push(&mut self, record: GenerationRecord) {
        self.records.push(record);
    }

    /// All records in generation order.
    pub fn records(&self) -> &[GenerationRecord] {
        &self.records
    }

    /// Number of recorded generations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no generations are recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `(generation, best giant size)` series — the y-axis of Figures 1–3.
    pub fn giant_series(&self, name: impl Into<String>) -> Trace {
        let mut t = Trace::new(name);
        for r in &self.records {
            let (x, y) = r.progress.giant_xy();
            t.push(x, y);
        }
        t
    }

    /// `(generation, best fitness)` series.
    pub fn fitness_series(&self, name: impl Into<String>) -> Trace {
        let mut t = Trace::new(name);
        for r in &self.records {
            let (x, y) = r.progress.fitness_xy();
            t.push(x, y);
        }
        t
    }

    /// `(generation, diversity)` series.
    pub fn diversity_series(&self, name: impl Into<String>) -> Trace {
        let mut t = Trace::new(name);
        for r in &self.records {
            t.push(r.generation() as f64, r.diversity);
        }
        t
    }

    /// The last record, if any.
    pub fn last(&self) -> Option<&GenerationRecord> {
        self.records.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(generation: usize, giant: usize) -> GenerationRecord {
        GenerationRecord::new(
            generation,
            giant as f64 / 64.0,
            giant,
            giant,
            giant as f64 / 128.0,
            1.0,
        )
    }

    #[test]
    fn series_extraction() {
        let mut t = GaTrace::new();
        t.push(record(0, 4));
        t.push(record(1, 9));
        assert_eq!(t.len(), 2);
        assert_eq!(t.giant_series("x").points(), &[(0.0, 4.0), (1.0, 9.0)]);
        assert_eq!(t.fitness_series("x").last_y(), Some(9.0 / 64.0));
        assert_eq!(t.diversity_series("x").last_y(), Some(1.0));
        assert_eq!(t.last().unwrap().generation(), 1);
    }

    #[test]
    fn record_accessors_mirror_the_progress_point() {
        let r = record(3, 12);
        assert_eq!(r.generation(), 3);
        assert_eq!(r.best_giant(), 12);
        assert_eq!(r.best_coverage(), 12);
        assert_eq!(r.best_fitness(), 12.0 / 64.0);
        assert_eq!(r.progress.step, 3);
    }

    #[test]
    fn empty_trace() {
        let t = GaTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.last(), None);
        assert!(t.giant_series("x").is_empty());
    }
}

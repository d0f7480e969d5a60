//! Streaming statistics and trace series for experiment reporting.
//!
//! Multi-trial experiments (tables) aggregate per-trial values with
//! [`RunningStats`] (Welford's algorithm); evolution experiments (figures)
//! record `(x, y)` series with [`Trace`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Numerically stable streaming mean/variance (Welford).
///
/// # Examples
///
/// ```
/// use wmn_metrics::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0 with fewer than two
    /// observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.sample_std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// One solver progress sample: the solution quality observed at a step of
/// an optimization run.
///
/// This is the shared per-phase record shape: the neighborhood search's
/// per-phase trace and the GA's per-generation trace both embed a
/// `ProgressPoint`, so figure writers and telemetry consume one type
/// regardless of which engine produced the run.
///
/// `step` is engine-defined — phases for the neighborhood search,
/// generations for the GA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgressPoint {
    /// Engine-defined step index (search phase or GA generation).
    pub step: usize,
    /// Best fitness observed at this step.
    pub fitness: f64,
    /// Giant component size of the best solution at this step.
    pub giant_size: usize,
    /// Covered client count of the best solution at this step.
    pub covered_clients: usize,
}

impl ProgressPoint {
    /// Builds a sample.
    pub fn new(step: usize, fitness: f64, giant_size: usize, covered_clients: usize) -> Self {
        ProgressPoint {
            step,
            fitness,
            giant_size,
            covered_clients,
        }
    }

    /// `(step, giant_size)` as a [`Trace`] point.
    pub fn giant_xy(&self) -> (f64, f64) {
        (self.step as f64, self.giant_size as f64)
    }

    /// `(step, fitness)` as a [`Trace`] point.
    pub fn fitness_xy(&self) -> (f64, f64) {
        (self.step as f64, self.fitness)
    }
}

/// A named `(x, y)` series, e.g. "giant component size vs generation".
///
/// # Examples
///
/// ```
/// use wmn_metrics::stats::Trace;
///
/// let mut t = Trace::new("hotspot");
/// t.push(0.0, 4.0);
/// t.push(5.0, 12.0);
/// assert_eq!(t.last_y(), Some(12.0));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Trace {
    /// An empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when no points are recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last y value, if any.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Maximum y value, if any.
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.max(y))))
    }

    /// Downsamples to every `step`-th point (always keeping the first and
    /// last), matching the paper figures' sampling of every ~5 generations.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn downsampled(&self, step: usize) -> Trace {
        assert!(step > 0, "step must be positive");
        let mut points: Vec<(f64, f64)> = self
            .points
            .iter()
            .enumerate()
            .filter(|(i, _)| i % step == 0)
            .map(|(_, &p)| p)
            .collect();
        if let Some(&last) = self.points.last() {
            if points.last() != Some(&last) {
                points.push(last);
            }
        }
        Trace {
            name: self.name.clone(),
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let s: RunningStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_value_stats() {
        let s: RunningStats = [7.0].into_iter().collect();
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.sample_std_dev(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: RunningStats = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut a: RunningStats = (0..37).map(|i| (i as f64).sin() * 10.0).collect();
        let b: RunningStats = (37..100).map(|i| (i as f64).sin() * 10.0).collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn trace_push_and_query() {
        let mut t = Trace::new("swap");
        for i in 0..10 {
            t.push(i as f64, (i * i) as f64);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.last_y(), Some(81.0));
        assert_eq!(t.max_y(), Some(81.0));
        assert_eq!(t.name(), "swap");
    }

    #[test]
    fn trace_downsampling_keeps_endpoints() {
        let mut t = Trace::new("x");
        for i in 0..100 {
            t.push(i as f64, i as f64);
        }
        let d = t.downsampled(7);
        assert_eq!(d.points().first(), Some(&(0.0, 0.0)));
        assert_eq!(d.points().last(), Some(&(99.0, 99.0)));
        assert!(d.len() < t.len());
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.last_y(), None);
        assert_eq!(t.max_y(), None);
        assert_eq!(t.downsampled(3).len(), 0);
    }

    #[test]
    fn progress_point_xy_projections() {
        let p = ProgressPoint::new(7, 0.75, 120, 980);
        assert_eq!(p.giant_xy(), (7.0, 120.0));
        assert_eq!(p.fitness_xy(), (7.0, 0.75));
    }

    #[test]
    fn display_stats() {
        let s: RunningStats = [1.0, 3.0].into_iter().collect();
        assert!(s.to_string().contains("n=2"));
    }
}

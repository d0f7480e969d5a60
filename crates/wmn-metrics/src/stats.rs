//! Progress samples and trace series for experiment reporting.
//!
//! Both search engines record one [`ProgressPoint`] per step, and the
//! evolution experiments (figures) plot `(x, y)` series with [`Trace`].

use serde::{Deserialize, Serialize};

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
}

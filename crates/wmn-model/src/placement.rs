//! Candidate solutions: router position vectors.
//!
//! A [`Placement`] assigns one [`Point`] to every router of an instance; it
//! is the decision variable of the optimization problem and the chromosome
//! of the GA. Placements are intentionally lightweight (a `Vec<Point>`
//! newtype) so search algorithms can clone and mutate them cheaply.

use crate::geometry::{Area, Point};
use crate::node::RouterId;
use crate::ModelError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Positions for all routers of an instance, indexed by [`RouterId`].
///
/// # Examples
///
/// ```
/// use wmn_model::geometry::{Area, Point};
/// use wmn_model::node::RouterId;
/// use wmn_model::placement::Placement;
///
/// let mut p = Placement::from_points(vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)]);
/// p[RouterId(1)] = Point::new(3.0, 3.0);
/// assert_eq!(p.len(), 2);
///
/// let area = Area::square(10.0)?;
/// p.validate(&area, 2)?;
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Placement {
    positions: Vec<Point>,
}

impl Placement {
    /// Creates an empty placement (no routers).
    pub fn new() -> Self {
        Placement {
            positions: Vec::new(),
        }
    }

    /// Creates a placement with capacity for `n` routers.
    pub fn with_capacity(n: usize) -> Self {
        Placement {
            positions: Vec::with_capacity(n),
        }
    }

    /// Wraps an existing position vector.
    pub fn from_points(positions: Vec<Point>) -> Self {
        Placement { positions }
    }

    /// Number of placed routers.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the placement holds no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Appends a position (used by builders and the ad hoc methods).
    pub fn push(&mut self, p: Point) {
        self.positions.push(p);
    }

    /// Position of router `id`, or `None` if out of range.
    pub fn get(&self, id: RouterId) -> Option<Point> {
        self.positions.get(id.index()).copied()
    }

    /// The positions as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Point] {
        &self.positions
    }

    /// Iterates over `(RouterId, Point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RouterId, Point)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, p)| (RouterId(i), *p))
    }

    /// Swaps the positions of two routers (the paper's swap movement applied
    /// to the position vector).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap(&mut self, a: RouterId, b: RouterId) {
        self.positions.swap(a.index(), b.index());
    }

    /// Validates that this placement fits an instance: correct length and
    /// all positions inside `area`.
    ///
    /// # Errors
    ///
    /// [`ModelError::PlacementLengthMismatch`] when the length differs from
    /// `expected_routers`; [`ModelError::PositionOutOfBounds`] for the first
    /// out-of-area or non-finite position.
    pub fn validate(&self, area: &Area, expected_routers: usize) -> Result<(), ModelError> {
        if self.positions.len() != expected_routers {
            return Err(ModelError::PlacementLengthMismatch {
                expected: expected_routers,
                actual: self.positions.len(),
            });
        }
        for (i, p) in self.positions.iter().enumerate() {
            if !p.is_finite() || !area.contains(*p) {
                return Err(ModelError::PositionOutOfBounds {
                    index: i,
                    x: p.x,
                    y: p.y,
                });
            }
        }
        Ok(())
    }
}

impl Index<RouterId> for Placement {
    type Output = Point;

    fn index(&self, id: RouterId) -> &Point {
        &self.positions[id.index()]
    }
}

impl IndexMut<RouterId> for Placement {
    fn index_mut(&mut self, id: RouterId) -> &mut Point {
        &mut self.positions[id.index()]
    }
}

impl FromIterator<Point> for Placement {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Placement {
            positions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Point> for Placement {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        self.positions.extend(iter);
    }
}

impl From<Vec<Point>> for Placement {
    fn from(positions: Vec<Point>) -> Self {
        Placement { positions }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "placement[{} routers]", self.positions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Placement {
        Placement::from_points(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 3.0),
            Point::new(5.0, 5.0),
        ])
    }

    #[test]
    fn len_and_get() {
        let p = sample();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.get(RouterId(1)), Some(Point::new(2.0, 3.0)));
        assert_eq!(p.get(RouterId(9)), None);
    }

    #[test]
    fn indexing_by_router_id() {
        let mut p = sample();
        assert_eq!(p[RouterId(0)], Point::new(1.0, 1.0));
        p[RouterId(0)] = Point::new(9.0, 9.0);
        assert_eq!(p[RouterId(0)], Point::new(9.0, 9.0));
    }

    #[test]
    fn swap_exchanges_positions() {
        let mut p = sample();
        p.swap(RouterId(0), RouterId(2));
        assert_eq!(p[RouterId(0)], Point::new(5.0, 5.0));
        assert_eq!(p[RouterId(2)], Point::new(1.0, 1.0));
    }

    #[test]
    fn validate_accepts_good_placement() {
        let area = Area::square(10.0).unwrap();
        assert!(sample().validate(&area, 3).is_ok());
    }

    #[test]
    fn validate_rejects_length_mismatch() {
        let area = Area::square(10.0).unwrap();
        let err = sample().validate(&area, 4).unwrap_err();
        assert_eq!(
            err,
            ModelError::PlacementLengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let area = Area::square(4.0).unwrap();
        let err = sample().validate(&area, 3).unwrap_err();
        match err {
            ModelError::PositionOutOfBounds { index, .. } => assert_eq!(index, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_nan() {
        let area = Area::square(10.0).unwrap();
        let p = Placement::from_points(vec![Point::new(f64::NAN, 1.0)]);
        assert!(p.validate(&area, 1).is_err());
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut p: Placement = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(p.len(), 3);
        p.extend([Point::new(9.0, 9.0)]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let p = sample();
        let ids: Vec<usize> = p.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn display_mentions_router_count() {
        assert!(sample().to_string().contains('3'));
    }
}

//! Planar geometry primitives for the deployment area.
//!
//! Everything in the placement problem lives in a two-dimensional continuous
//! deployment area of size `W × H` (the paper uses a `128 × 128` "grid
//! area"). This module provides the [`Point`], [`Rect`], and [`Area`]
//! primitives used throughout the workspace.
//!
//! Positions are continuous (`f64`); the paper's "grid" terminology refers to
//! the rectangular shape of the deployment region, not to integral
//! coordinates. Cell-based discretizations (density maps, spatial hashing)
//! live in `wmn-graph`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the deployment area.
///
/// # Examples
///
/// ```
/// use wmn_model::geometry::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance_squared(b), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate, in the same length unit as radio radii.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    #[inline]
    pub fn origin() -> Self {
        Point { x: 0.0, y: 0.0 }
    }

    /// Squared Euclidean distance to `other`: links and coverage compare
    /// it against a squared radius, so no square root is taken.
    #[inline]
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: returns `self + t * (other - self)`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside `[0, 1]`
    /// extrapolate.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Returns `true` if both coordinates are finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

/// An axis-aligned rectangle, closed on all sides.
///
/// Invariant: `min.x <= max.x && min.y <= max.y` (enforced by constructors).
///
/// # Examples
///
/// ```
/// use wmn_model::geometry::{Point, Rect};
///
/// let r = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
/// assert!(r.contains(Point::new(10.0, 5.0)));
/// assert_eq!(r.area(), 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalizing the corner
    /// order so the invariant holds regardless of argument order.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from its minimum corner and its dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative or NaN.
    pub fn from_origin_size(min: Point, width: f64, height: f64) -> Self {
        assert!(
            width >= 0.0 && height >= 0.0,
            "rectangle dimensions must be non-negative, got {width} x {height}"
        );
        Rect {
            min,
            max: Point::new(min.x + width, min.y + height),
        }
    }

    /// The minimum (bottom-left) corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// The maximum (top-right) corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Surface area (`width * height`).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric center of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` if the two rectangles overlap (closed-set semantics:
    /// touching edges count as an intersection).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Clamps a point into the rectangle (projects it onto the closest point
    /// of the closed region).
    #[inline]
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// The rectangular deployment area `W × H`, anchored at the origin.
///
/// An `Area` is the problem's "grid area": routers may be placed anywhere
/// inside it and clients are distributed over it. It is a thin, validated
/// wrapper over a [`Rect`] anchored at `(0, 0)`.
///
/// # Examples
///
/// ```
/// use wmn_model::geometry::{Area, Point};
///
/// let area = Area::new(128.0, 128.0)?;
/// assert!(area.contains(Point::new(64.0, 64.0)));
/// assert_eq!(area.center(), Point::new(64.0, 64.0));
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Area {
    width: f64,
    height: f64,
}

impl Area {
    /// Creates a deployment area of the given dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidArea`](crate::ModelError::InvalidArea)
    /// if either dimension is non-positive or non-finite.
    pub fn new(width: f64, height: f64) -> Result<Self, crate::ModelError> {
        if !(width.is_finite() && height.is_finite() && width > 0.0 && height > 0.0) {
            return Err(crate::ModelError::InvalidArea { width, height });
        }
        Ok(Area { width, height })
    }

    /// A square area of the given side, the shape used throughout the
    /// paper's evaluation (`128 × 128`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidArea`](crate::ModelError::InvalidArea)
    /// if `side` is non-positive or non-finite.
    pub fn square(side: f64) -> Result<Self, crate::ModelError> {
        Area::new(side, side)
    }

    /// Width (`W`).
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Height (`H`).
    #[inline]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Center point `(W/2, H/2)`.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(self.width / 2.0, self.height / 2.0)
    }

    /// The bounding rectangle `[(0,0) .. (W,H)]`.
    #[inline]
    pub fn bounds(&self) -> Rect {
        Rect::from_origin_size(Point::origin(), self.width, self.height)
    }

    /// Returns `true` if `p` lies inside the area (boundary included).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= 0.0 && p.x <= self.width && p.y >= 0.0 && p.y <= self.height
    }

    /// Clamps a point into the area.
    #[inline]
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance_squared(b), 25.0);
        assert_eq!(b.distance_squared(a), 25.0);
    }

    #[test]
    fn point_distance_to_self_is_zero() {
        let p = Point::new(-2.5, 7.0);
        assert_eq!(p.distance_squared(p), 0.0);
    }

    #[test]
    fn point_midpoint_and_lerp_agree() {
        let a = Point::new(2.0, 2.0);
        let b = Point::new(4.0, 8.0);
        assert_eq!(a.midpoint(b), a.lerp(b, 0.5));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn point_conversions_roundtrip() {
        let p = Point::new(1.5, -2.5);
        let t: (f64, f64) = p.into();
        assert_eq!(Point::from(t), p);
    }

    #[test]
    fn point_display_is_nonempty() {
        assert!(!format!("{}", Point::origin()).is_empty());
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(Point::new(5.0, 1.0), Point::new(1.0, 5.0));
        assert_eq!(r.min(), Point::new(1.0, 1.0));
        assert_eq!(r.max(), Point::new(5.0, 5.0));
    }

    #[test]
    fn rect_contains_boundary() {
        let r = Rect::from_origin_size(Point::origin(), 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.000001, 10.0)));
    }

    #[test]
    fn rect_intersection_touching_edges() {
        let a = Rect::from_origin_size(Point::origin(), 5.0, 5.0);
        let b = Rect::from_origin_size(Point::new(5.0, 0.0), 5.0, 5.0);
        assert!(a.intersects(&b), "touching rectangles intersect");
        assert!(b.intersects(&a));
    }

    #[test]
    fn rect_intersection_disjoint_is_none() {
        let a = Rect::from_origin_size(Point::origin(), 5.0, 5.0);
        let b = Rect::from_origin_size(Point::new(6.0, 6.0), 5.0, 5.0);
        assert!(!a.intersects(&b));
        assert!(!b.intersects(&a));
    }

    #[test]
    fn rect_clamp_point_projects() {
        let r = Rect::from_origin_size(Point::origin(), 10.0, 10.0);
        assert_eq!(r.clamp_point(Point::new(-1.0, 11.0)), Point::new(0.0, 10.0));
        assert_eq!(r.clamp_point(Point::new(5.0, 5.0)), Point::new(5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rect_from_origin_size_rejects_negative() {
        let _ = Rect::from_origin_size(Point::origin(), -1.0, 1.0);
    }

    #[test]
    fn area_validates_dimensions() {
        assert!(Area::new(128.0, 128.0).is_ok());
        assert!(Area::new(0.0, 10.0).is_err());
        assert!(Area::new(10.0, -3.0).is_err());
        assert!(Area::new(f64::NAN, 10.0).is_err());
        assert!(Area::new(f64::INFINITY, 10.0).is_err());
    }

    #[test]
    fn area_square_and_accessors() {
        let a = Area::square(128.0).unwrap();
        assert_eq!(a.width(), 128.0);
        assert_eq!(a.height(), 128.0);
        assert_eq!(a.center(), Point::new(64.0, 64.0));
    }

    #[test]
    fn area_contains_and_clamp() {
        let a = Area::square(10.0).unwrap();
        assert!(a.contains(Point::new(10.0, 0.0)));
        assert!(!a.contains(Point::new(10.1, 0.0)));
        assert_eq!(a.clamp_point(Point::new(20.0, -5.0)), Point::new(10.0, 0.0));
    }

    #[test]
    fn area_bounds_matches_dimensions() {
        let a = Area::new(30.0, 20.0).unwrap();
        let b = a.bounds();
        assert_eq!(b.width(), 30.0);
        assert_eq!(b.height(), 20.0);
        assert_eq!(b.min(), Point::origin());
    }
}

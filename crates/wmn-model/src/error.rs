//! Error types for the model crate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing model values.
///
/// All variants are self-describing through [`Display`](fmt::Display); the
/// type implements [`std::error::Error`] and is `Send + Sync + 'static` so it
/// composes with any error-handling stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A deployment area with non-positive or non-finite dimensions.
    InvalidArea {
        /// Offending width.
        width: f64,
        /// Offending height.
        height: f64,
    },
    /// A radio profile whose radii are not `0 < min <= max` and finite.
    InvalidRadio {
        /// Offending minimum radius.
        min_radius: f64,
        /// Offending maximum radius.
        max_radius: f64,
    },
    /// A distribution parameter out of its valid domain.
    InvalidDistribution {
        /// Name of the offending parameter (e.g. `"sigma"`).
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An instance specification that is structurally unusable
    /// (zero routers, zero clients, ...).
    InvalidSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// A placement whose length does not match the instance's router count.
    PlacementLengthMismatch {
        /// Number of routers in the instance.
        expected: usize,
        /// Number of positions supplied.
        actual: usize,
    },
    /// A placement position outside the deployment area.
    PositionOutOfBounds {
        /// Index of the offending router.
        index: usize,
        /// Offending x coordinate.
        x: f64,
        /// Offending y coordinate.
        y: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidArea { width, height } => {
                write!(f, "invalid deployment area {width} x {height}: dimensions must be positive and finite")
            }
            ModelError::InvalidRadio {
                min_radius,
                max_radius,
            } => write!(
                f,
                "invalid radio profile [{min_radius}, {max_radius}]: radii must satisfy 0 < min <= max and be finite"
            ),
            ModelError::InvalidDistribution { parameter, value } => {
                write!(f, "invalid distribution parameter {parameter} = {value}")
            }
            ModelError::InvalidSpec { reason } => write!(f, "invalid instance spec: {reason}"),
            ModelError::PlacementLengthMismatch { expected, actual } => write!(
                f,
                "placement has {actual} positions but the instance has {expected} routers"
            ),
            ModelError::PositionOutOfBounds { index, x, y } => write!(
                f,
                "router {index} placed at ({x}, {y}), outside the deployment area"
            ),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<ModelError>();
    }

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let samples = [
            ModelError::InvalidArea {
                width: -1.0,
                height: 2.0,
            },
            ModelError::InvalidRadio {
                min_radius: 5.0,
                max_radius: 1.0,
            },
            ModelError::InvalidDistribution {
                parameter: "sigma",
                value: -1.0,
            },
            ModelError::InvalidSpec {
                reason: "zero routers".to_owned(),
            },
            ModelError::PlacementLengthMismatch {
                expected: 4,
                actual: 2,
            },
            ModelError::PositionOutOfBounds {
                index: 0,
                x: -1.0,
                y: 0.0,
            },
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "error message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }
}

//! Radio coverage model.
//!
//! The paper assumes each mesh router has "its own coverage area, oscillating
//! between minimum and maximum values". We model that as a [`RadioProfile`]
//! interval `[min_radius, max_radius]`: a router's *current* radius is a
//! uniform draw from the profile, taken once, when the instance is
//! generated
//! ([`Router::with_sampled_radius`](crate::node::Router::with_sampled_radius)).
//!
//! Heterogeneous radii are load-bearing for the paper's algorithms: the swap
//! movement (paper Algorithm 3) exchanges the *weakest* router (smallest
//! current radius) of the densest zone with the *strongest* router of the
//! sparsest zone, and HotSpot assigns the most powerful routers to the
//! densest client zones.

use crate::ModelError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An oscillation interval `[min_radius, max_radius]` for a router's radio
/// coverage radius.
///
/// Invariant: `0 < min_radius <= max_radius`, both finite (enforced at
/// construction).
///
/// # Examples
///
/// ```
/// use wmn_model::radio::RadioProfile;
///
/// let profile = RadioProfile::new(2.0, 8.0)?;
/// assert_eq!(profile.nominal_radius(), 5.0);
/// assert!(profile.contains(3.5));
/// # Ok::<(), wmn_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioProfile {
    min_radius: f64,
    max_radius: f64,
}

impl RadioProfile {
    /// Creates a profile with the given oscillation bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRadio`] unless
    /// `0 < min_radius <= max_radius` and both are finite.
    pub fn new(min_radius: f64, max_radius: f64) -> Result<Self, ModelError> {
        if !(min_radius.is_finite()
            && max_radius.is_finite()
            && min_radius > 0.0
            && min_radius <= max_radius)
        {
            return Err(ModelError::InvalidRadio {
                min_radius,
                max_radius,
            });
        }
        Ok(RadioProfile {
            min_radius,
            max_radius,
        })
    }

    /// A degenerate profile with a fixed (non-oscillating) radius.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRadio`] if `radius` is not positive and
    /// finite.
    pub fn fixed(radius: f64) -> Result<Self, ModelError> {
        RadioProfile::new(radius, radius)
    }

    /// The profile used in the paper's evaluation: radii oscillating in
    /// `[2, 8]` length units on the `128 × 128` area.
    pub fn paper_default() -> Self {
        RadioProfile {
            min_radius: 2.0,
            max_radius: 8.0,
        }
    }

    /// Minimum oscillation radius.
    #[inline]
    pub fn min_radius(&self) -> f64 {
        self.min_radius
    }

    /// Maximum oscillation radius.
    #[inline]
    pub fn max_radius(&self) -> f64 {
        self.max_radius
    }

    /// Midpoint of the oscillation interval; a deterministic "typical"
    /// radius used where sampling is inappropriate.
    #[inline]
    pub fn nominal_radius(&self) -> f64 {
        (self.min_radius + self.max_radius) / 2.0
    }

    /// Oscillation span `max - min`.
    #[inline]
    pub fn span(&self) -> f64 {
        self.max_radius - self.min_radius
    }

    /// Returns `true` if `radius` lies within the oscillation interval.
    #[inline]
    pub fn contains(&self, radius: f64) -> bool {
        radius >= self.min_radius && radius <= self.max_radius
    }

    /// Draws a current radius uniformly from the oscillation interval.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.span() == 0.0 {
            self.min_radius
        } else {
            rng.gen_range(self.min_radius..=self.max_radius)
        }
    }

    /// Clamps an arbitrary radius into the oscillation interval.
    #[inline]
    pub fn clamp(&self, radius: f64) -> f64 {
        radius.clamp(self.min_radius, self.max_radius)
    }
}

impl Default for RadioProfile {
    /// The paper's evaluation profile, `[2, 8]`.
    fn default() -> Self {
        RadioProfile::paper_default()
    }
}

impl fmt::Display for RadioProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "radio[{}, {}]", self.min_radius, self.max_radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn new_validates_bounds() {
        assert!(RadioProfile::new(2.0, 8.0).is_ok());
        assert!(RadioProfile::new(8.0, 2.0).is_err());
        assert!(RadioProfile::new(0.0, 2.0).is_err());
        assert!(RadioProfile::new(-1.0, 2.0).is_err());
        assert!(RadioProfile::new(1.0, f64::NAN).is_err());
        assert!(RadioProfile::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn fixed_profile_has_zero_span() {
        let p = RadioProfile::fixed(5.0).unwrap();
        assert_eq!(p.span(), 0.0);
        assert_eq!(p.nominal_radius(), 5.0);
        let mut rng = rng_from_seed(0);
        assert_eq!(p.sample(&mut rng), 5.0);
    }

    #[test]
    fn paper_default_is_2_to_8() {
        let p = RadioProfile::paper_default();
        assert_eq!(p.min_radius(), 2.0);
        assert_eq!(p.max_radius(), 8.0);
        assert_eq!(p.nominal_radius(), 5.0);
        assert_eq!(RadioProfile::default(), p);
    }

    #[test]
    fn samples_stay_in_interval() {
        let p = RadioProfile::new(2.0, 8.0).unwrap();
        let mut rng = rng_from_seed(42);
        for _ in 0..1000 {
            let r = p.sample(&mut rng);
            assert!(p.contains(r), "sample {r} escaped [2, 8]");
        }
    }

    #[test]
    fn samples_cover_the_interval() {
        // With 1000 uniform draws from [2, 8], both the lower and upper third
        // must be hit (probability of failure is astronomically small).
        let p = RadioProfile::new(2.0, 8.0).unwrap();
        let mut rng = rng_from_seed(7);
        let samples: Vec<f64> = (0..1000).map(|_| p.sample(&mut rng)).collect();
        assert!(samples.iter().any(|&r| r < 4.0));
        assert!(samples.iter().any(|&r| r > 6.0));
    }

    #[test]
    fn sample_mean_approximates_nominal() {
        let p = RadioProfile::new(2.0, 8.0).unwrap();
        let mut rng = rng_from_seed(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - p.nominal_radius()).abs() < 0.1,
            "uniform sample mean {mean} should approach 5.0"
        );
    }

    #[test]
    fn clamp_projects_into_interval() {
        let p = RadioProfile::new(2.0, 8.0).unwrap();
        assert_eq!(p.clamp(1.0), 2.0);
        assert_eq!(p.clamp(9.0), 8.0);
        assert_eq!(p.clamp(5.0), 5.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!RadioProfile::default().to_string().is_empty());
    }
}

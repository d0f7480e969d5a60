//! Spatial distributions for mesh client positions.
//!
//! The paper evaluates every placement method against clients drawn from
//! **Uniform**, **Normal**, **Exponential** and **Weibull** distributions
//! (§2, §5.1); the Normal evaluation instance is `N(μ = 64, σ = 128/10)` on
//! a `128 × 128` area. Coordinates are drawn **independently per axis** and
//! transformed to points in the deployment area.
//!
//! All samplers are implemented from scratch on top of the raw uniform
//! generator (Box–Muller for the Normal, inverse-CDF for Exponential and
//! Weibull) so the only external dependency is `rand`'s PRNG.
//!
//! Out-of-area draws are handled by **rejection with a clamp fallback**:
//! a sample is retried up to [`MAX_REJECTION_ATTEMPTS`] times and clamped
//! into the area if rejection keeps failing, so sampling always terminates.
//!
//! # Examples
//!
//! ```
//! use wmn_model::distribution::ClientDistribution;
//! use wmn_model::geometry::Area;
//! use wmn_model::rng::rng_from_seed;
//!
//! let area = Area::square(128.0)?;
//! let dist = ClientDistribution::paper_normal(&area)?; // N(64, 12.8) per axis
//! let mut rng = rng_from_seed(1);
//! let p = dist.sample_point(&area, &mut rng);
//! assert!(area.contains(p));
//! # Ok::<(), wmn_model::ModelError>(())
//! ```

use crate::geometry::{Area, Point};
use crate::ModelError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;
use std::fmt;

/// Maximum number of rejection-sampling retries before clamping a draw into
/// the deployment area.
pub const MAX_REJECTION_ATTEMPTS: u32 = 64;

/// Draws one standard-normal variate via the Box–Muller transform.
///
/// Returns a single `N(0, 1)` sample. (The transform produces a pair; we
/// deliberately discard the second member to keep the sampler stateless —
/// client generation is not a throughput bottleneck.)
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1]: guard against ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Draws an exponential variate with the given `rate` (λ) via inverse CDF.
///
/// # Panics
///
/// Debug-asserts that `rate > 0`; callers validate at construction.
pub fn exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = 1.0 - rng.gen::<f64>(); // u in (0, 1]
    -u.ln() / rate
}

/// Draws a Weibull variate with the given `shape` (k) and `scale` (λ) via
/// inverse CDF: `λ * (-ln(1 - U))^(1/k)`.
///
/// # Panics
///
/// Debug-asserts that `shape > 0` and `scale > 0`; callers validate at
/// construction.
pub fn weibull<R: Rng + ?Sized>(shape: f64, scale: f64, rng: &mut R) -> f64 {
    debug_assert!(shape > 0.0 && scale > 0.0);
    let u: f64 = 1.0 - rng.gen::<f64>(); // u in (0, 1]
    scale * (-u.ln()).powf(1.0 / shape)
}

/// A spatial distribution for client positions over a deployment area.
///
/// The four paper distributions. Construct validated instances through the
/// `try_*` constructors or the `paper_*` presets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ClientDistribution {
    /// Uniform over the whole area.
    Uniform,
    /// Independent per-axis Normal; the paper's `N(μ, σ)`.
    Normal {
        /// Mean of the x coordinate.
        mu_x: f64,
        /// Mean of the y coordinate.
        mu_y: f64,
        /// Standard deviation (shared by both axes, per the paper).
        sigma: f64,
    },
    /// Independent per-axis Exponential with rate λ; clients mass toward
    /// the `(0, 0)` corner.
    Exponential {
        /// Rate λ (> 0) shared by both axes.
        rate: f64,
    },
    /// Independent per-axis Weibull; `shape < 1` is corner-heavy,
    /// `shape ≈ 1.5..3` produces a soft cluster displaced from the corner.
    Weibull {
        /// Shape k (> 0).
        shape: f64,
        /// Scale λ (> 0), in length units.
        scale: f64,
    },
}

impl ClientDistribution {
    /// A validated Normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] if `sigma` is not
    /// positive and finite, or a mean is non-finite.
    pub fn try_normal(mu_x: f64, mu_y: f64, sigma: f64) -> Result<Self, ModelError> {
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(ModelError::InvalidDistribution {
                parameter: "sigma",
                value: sigma,
            });
        }
        if !mu_x.is_finite() {
            return Err(ModelError::InvalidDistribution {
                parameter: "mu_x",
                value: mu_x,
            });
        }
        if !mu_y.is_finite() {
            return Err(ModelError::InvalidDistribution {
                parameter: "mu_y",
                value: mu_y,
            });
        }
        Ok(ClientDistribution::Normal { mu_x, mu_y, sigma })
    }

    /// A validated Exponential distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] if `rate` is not positive
    /// and finite.
    pub fn try_exponential(rate: f64) -> Result<Self, ModelError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(ModelError::InvalidDistribution {
                parameter: "rate",
                value: rate,
            });
        }
        Ok(ClientDistribution::Exponential { rate })
    }

    /// A validated Weibull distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDistribution`] if `shape` or `scale` is
    /// not positive and finite.
    pub fn try_weibull(shape: f64, scale: f64) -> Result<Self, ModelError> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(ModelError::InvalidDistribution {
                parameter: "shape",
                value: shape,
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(ModelError::InvalidDistribution {
                parameter: "scale",
                value: scale,
            });
        }
        Ok(ClientDistribution::Weibull { shape, scale })
    }

    /// The paper's Table 1 / Figure 1 distribution on the given area:
    /// per-axis `N(μ = W/2, σ = W/10)` — `N(64, 12.8)` for `128 × 128`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::InvalidDistribution`] (unreachable for a
    /// valid [`Area`]).
    pub fn paper_normal(area: &Area) -> Result<Self, ModelError> {
        ClientDistribution::try_normal(area.width() / 2.0, area.height() / 2.0, area.width() / 10.0)
    }

    /// The Table 2 / Figure 2 Exponential preset: rate `λ = 8/W`
    /// (mean `W/8` per axis — mass near the `(0, 0)` corner).
    ///
    /// The paper leaves the rate unstated; this choice gives visibly
    /// corner-clustered clients on `128 × 128` (mean coordinate 16).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::InvalidDistribution`] (unreachable for a
    /// valid [`Area`]).
    pub fn paper_exponential(area: &Area) -> Result<Self, ModelError> {
        ClientDistribution::try_exponential(8.0 / area.width())
    }

    /// The Table 3 / Figure 3 Weibull preset: `shape k = 1.5`,
    /// `scale λ = W/3` — a soft cluster displaced from the corner.
    ///
    /// The paper leaves the parameters unstated; this choice reproduces the
    /// "clients cluster to hotspots" shape it motivates Weibull with.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::InvalidDistribution`] (unreachable for a
    /// valid [`Area`]).
    pub fn paper_weibull(area: &Area) -> Result<Self, ModelError> {
        ClientDistribution::try_weibull(1.5, area.width() / 3.0)
    }

    /// Short lowercase name used by experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            ClientDistribution::Uniform => "uniform",
            ClientDistribution::Normal { .. } => "normal",
            ClientDistribution::Exponential { .. } => "exponential",
            ClientDistribution::Weibull { .. } => "weibull",
        }
    }

    /// Draws one raw (unclamped, possibly out-of-area) point.
    fn sample_raw<R: Rng + ?Sized>(&self, area: &Area, rng: &mut R) -> Point {
        match self {
            ClientDistribution::Uniform => Point::new(
                rng.gen_range(0.0..=area.width()),
                rng.gen_range(0.0..=area.height()),
            ),
            ClientDistribution::Normal { mu_x, mu_y, sigma } => Point::new(
                mu_x + sigma * standard_normal(rng),
                mu_y + sigma * standard_normal(rng),
            ),
            ClientDistribution::Exponential { rate } => {
                Point::new(exponential(*rate, rng), exponential(*rate, rng))
            }
            ClientDistribution::Weibull { shape, scale } => {
                Point::new(weibull(*shape, *scale, rng), weibull(*shape, *scale, rng))
            }
        }
    }

    /// Draws one point inside `area` (rejection sampling with a clamp
    /// fallback after [`MAX_REJECTION_ATTEMPTS`] retries).
    pub fn sample_point<R: Rng + ?Sized>(&self, area: &Area, rng: &mut R) -> Point {
        for _ in 0..MAX_REJECTION_ATTEMPTS {
            let p = self.sample_raw(area, rng);
            if area.contains(p) {
                return p;
            }
        }
        area.clamp_point(self.sample_raw(area, rng))
    }

    /// Draws `n` points inside `area`.
    pub fn sample_points<R: Rng + ?Sized>(&self, area: &Area, n: usize, rng: &mut R) -> Vec<Point> {
        (0..n).map(|_| self.sample_point(area, rng)).collect()
    }
}

impl Default for ClientDistribution {
    /// Uniform over the area.
    fn default() -> Self {
        ClientDistribution::Uniform
    }
}

impl fmt::Display for ClientDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientDistribution::Uniform => write!(f, "uniform"),
            ClientDistribution::Normal { mu_x, mu_y, sigma } => {
                write!(f, "normal(mu=({mu_x}, {mu_y}), sigma={sigma})")
            }
            ClientDistribution::Exponential { rate } => write!(f, "exponential(rate={rate})"),
            ClientDistribution::Weibull { shape, scale } => {
                write!(f, "weibull(shape={shape}, scale={scale})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn area128() -> Area {
        Area::square(128.0).unwrap()
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    fn variance(xs: &[f64]) -> f64 {
        let m = mean(xs);
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng_from_seed(10);
        let xs: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(mean(&xs).abs() < 0.02, "mean {} too far from 0", mean(&xs));
        assert!(
            (variance(&xs) - 1.0).abs() < 0.05,
            "variance {} too far from 1",
            variance(&xs)
        );
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = rng_from_seed(11);
        let rate = 0.0625; // mean 16
        let xs: Vec<f64> = (0..50_000).map(|_| exponential(rate, &mut rng)).collect();
        assert!(
            (mean(&xs) - 16.0).abs() < 0.5,
            "exponential mean {} should approach 16",
            mean(&xs)
        );
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn weibull_mean_matches_closed_form() {
        // Mean = scale * Gamma(1 + 1/shape). For shape=1.5, scale=42.6667:
        // Gamma(5/3) ≈ 0.902745, mean ≈ 38.52.
        let mut rng = rng_from_seed(12);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| weibull(1.5, 128.0 / 3.0, &mut rng))
            .collect();
        assert!(
            (mean(&xs) - 38.52).abs() < 1.0,
            "weibull mean {} should approach 38.52",
            mean(&xs)
        );
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        // Weibull(k=1, λ) == Exponential(rate = 1/λ); compare means.
        let mut rng = rng_from_seed(13);
        let xs: Vec<f64> = (0..50_000).map(|_| weibull(1.0, 20.0, &mut rng)).collect();
        assert!((mean(&xs) - 20.0).abs() < 0.6);
    }

    #[test]
    fn uniform_fills_the_area() {
        let area = area128();
        let mut rng = rng_from_seed(1);
        let pts = ClientDistribution::Uniform.sample_points(&area, 2000, &mut rng);
        assert!(pts.iter().all(|p| area.contains(*p)));
        // All four quadrants hit.
        let c = area.center();
        assert!(pts.iter().any(|p| p.x < c.x && p.y < c.y));
        assert!(pts.iter().any(|p| p.x > c.x && p.y < c.y));
        assert!(pts.iter().any(|p| p.x < c.x && p.y > c.y));
        assert!(pts.iter().any(|p| p.x > c.x && p.y > c.y));
    }

    #[test]
    fn paper_normal_clusters_at_center() {
        let area = area128();
        let dist = ClientDistribution::paper_normal(&area).unwrap();
        let mut rng = rng_from_seed(2);
        let pts = dist.sample_points(&area, 5000, &mut rng);
        assert!(pts.iter().all(|p| area.contains(*p)));
        let mx = mean(&pts.iter().map(|p| p.x).collect::<Vec<_>>());
        let my = mean(&pts.iter().map(|p| p.y).collect::<Vec<_>>());
        assert!((mx - 64.0).abs() < 1.0, "x mean {mx} should be near 64");
        assert!((my - 64.0).abs() < 1.0, "y mean {my} should be near 64");
        // ~99.99% of N(64, 12.8) mass is inside [64 - 4σ, 64 + 4σ] ⊂ area.
        let far = pts
            .iter()
            .filter(|p| p.distance_squared(area.center()) > (6.0 * 12.8) * (6.0 * 12.8))
            .count();
        assert_eq!(far, 0, "normal cluster should not reach the far boundary");
    }

    #[test]
    fn paper_exponential_clusters_at_corner() {
        let area = area128();
        let dist = ClientDistribution::paper_exponential(&area).unwrap();
        let mut rng = rng_from_seed(3);
        let pts = dist.sample_points(&area, 5000, &mut rng);
        assert!(pts.iter().all(|p| area.contains(*p)));
        let near_corner = pts.iter().filter(|p| p.x < 32.0 && p.y < 32.0).count();
        assert!(
            near_corner > 5000 / 2,
            "exponential should mass near (0,0): {near_corner}/5000 in the corner quarter"
        );
    }

    #[test]
    fn paper_weibull_clusters_low_but_spread() {
        let area = area128();
        let dist = ClientDistribution::paper_weibull(&area).unwrap();
        let mut rng = rng_from_seed(4);
        let pts = dist.sample_points(&area, 5000, &mut rng);
        assert!(pts.iter().all(|p| area.contains(*p)));
        let mx = mean(&pts.iter().map(|p| p.x).collect::<Vec<_>>());
        assert!(
            (20.0..60.0).contains(&mx),
            "weibull x mean {mx} should sit between corner and center"
        );
    }

    #[test]
    fn constructor_validation() {
        assert!(ClientDistribution::try_normal(0.0, 0.0, 0.0).is_err());
        assert!(ClientDistribution::try_normal(f64::NAN, 0.0, 1.0).is_err());
        assert!(ClientDistribution::try_normal(0.0, f64::NAN, 1.0).is_err());
        assert!(ClientDistribution::try_exponential(0.0).is_err());
        assert!(ClientDistribution::try_exponential(-1.0).is_err());
        assert!(ClientDistribution::try_weibull(0.0, 1.0).is_err());
        assert!(ClientDistribution::try_weibull(1.0, 0.0).is_err());
    }

    #[test]
    fn names_are_stable() {
        let area = area128();
        assert_eq!(ClientDistribution::Uniform.name(), "uniform");
        assert_eq!(
            ClientDistribution::paper_normal(&area).unwrap().name(),
            "normal"
        );
        assert_eq!(
            ClientDistribution::paper_exponential(&area).unwrap().name(),
            "exponential"
        );
        assert_eq!(
            ClientDistribution::paper_weibull(&area).unwrap().name(),
            "weibull"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let area = area128();
        let dist = ClientDistribution::paper_normal(&area).unwrap();
        let a = dist.sample_points(&area, 32, &mut rng_from_seed(9));
        let b = dist.sample_points(&area, 32, &mut rng_from_seed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_informative() {
        let area = area128();
        let d = ClientDistribution::paper_normal(&area).unwrap();
        let s = d.to_string();
        assert!(s.contains("normal") && s.contains("sigma"));
    }
}

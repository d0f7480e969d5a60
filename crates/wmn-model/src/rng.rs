//! Deterministic seed plumbing.
//!
//! Every stochastic component in the workspace (instance generation, ad hoc
//! methods, neighborhood search, GA) takes an explicit RNG so that whole
//! experiments are reproducible from a single master seed. This module
//! re-exports the concrete RNG type used throughout, and derives the seed
//! of each experiment-grid cell from a root seed ([`stream_seed`]) with
//! the SplitMix64 step ([`splitmix64`]).
//!
//! # Examples
//!
//! ```
//! use rand::Rng as _;
//! use wmn_model::rng::{rng_from_seed, stream_seed};
//!
//! // One stream per cell, reproducible from the root seed alone.
//! let mut cell = rng_from_seed(stream_seed(42, &[0, 3]));
//! let mut again = rng_from_seed(stream_seed(42, &[0, 3]));
//! assert_eq!(cell.gen::<u64>(), again.gen::<u64>());
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The concrete RNG used across the workspace.
///
/// `StdRng` is seedable and deterministic for a fixed `rand` major version,
/// which is what experiment reproducibility requires.
pub type Rng = StdRng;

/// Creates the workspace RNG from a `u64` seed.
///
/// # Examples
///
/// ```
/// use rand::Rng as _;
/// let mut a = wmn_model::rng::rng_from_seed(7);
/// let mut b = wmn_model::rng::rng_from_seed(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn rng_from_seed(seed: u64) -> Rng {
    StdRng::seed_from_u64(seed)
}

/// One step of the SplitMix64 generator.
///
/// SplitMix64 is the standard tool for expanding one 64-bit seed into many:
/// it is an equidistributed bijection with excellent avalanche behaviour
/// (Steele, Lea & Flood, OOPSLA 2014).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of one experiment-grid cell from a root seed and
/// the cell's integer coordinates.
///
/// Each coordinate is absorbed into a SplitMix64 walk, so the derived seed
/// depends on **every** coordinate and on their **order**: `[1, 2]` and
/// `[2, 1]` name different streams, as do `[1]` and `[1, 0]` (the
/// coordinate count is absorbed first to separate prefixes). The same
/// `(root, coords)` pair always yields the same seed, no matter which
/// thread computes it or in which order cells are executed — this is what
/// makes parallel experiment execution bit-identical to serial execution.
///
/// # Examples
///
/// ```
/// use wmn_model::rng::stream_seed;
///
/// // Stable across calls…
/// assert_eq!(stream_seed(42, &[1, 2, 3]), stream_seed(42, &[1, 2, 3]));
/// // …and distinct per cell.
/// assert_ne!(stream_seed(42, &[1, 2, 3]), stream_seed(42, &[1, 2, 4]));
/// assert_ne!(stream_seed(42, &[1, 2]), stream_seed(42, &[2, 1]));
/// ```
pub fn stream_seed(root: u64, coords: &[u64]) -> u64 {
    // Sponge-style absorption: XOR in the SplitMix64 hash of each word,
    // then run a full SplitMix64 round on the state. The inter-word round
    // makes absorption order-dependent; hashing each word first gives
    // avalanche even for small consecutive coordinates.
    let mut state = root;
    for word in std::iter::once(coords.len() as u64).chain(coords.iter().copied()) {
        let mut w = word ^ 0xA076_1D64_78BD_642F;
        state ^= splitmix64(&mut w);
        state = splitmix64(&mut state);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 123u64;
        let mut b = 123u64;
        for _ in 0..10 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
    }

    #[test]
    fn splitmix_produces_distinct_outputs() {
        let mut state = 0u64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(splitmix64(&mut state)));
        }
    }

    #[test]
    fn stream_seed_golden_values() {
        // Pinned outputs: any change here silently breaks bit-for-bit
        // reproducibility of archived experiment results.
        assert_eq!(stream_seed(0, &[]), 0xb1a6_d212_199b_7394);
        assert_eq!(stream_seed(42, &[0]), 0x57b4_3f7f_1297_144d);
        assert_eq!(stream_seed(42, &[1]), 0x184a_9bb7_e7cc_a0f6);
        assert_eq!(stream_seed(42, &[1, 2, 3]), 0xc12f_ab18_e02b_879c);
        assert_eq!(stream_seed(2009, &[0, 6, 1]), 0x2ddf_857e_a288_748b);
    }

    #[test]
    fn stream_seed_distinct_streams() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..8u64 {
            for b in 0..8u64 {
                for c in 0..8u64 {
                    assert!(seen.insert(stream_seed(7, &[a, b, c])), "[{a},{b},{c}]");
                }
            }
        }
    }

    #[test]
    fn stream_seed_is_order_and_length_sensitive() {
        assert_ne!(stream_seed(42, &[1, 2]), stream_seed(42, &[2, 1]));
        assert_ne!(stream_seed(42, &[1]), stream_seed(42, &[1, 0]));
        assert_ne!(stream_seed(42, &[]), stream_seed(42, &[0]));
        assert_ne!(stream_seed(1, &[5, 5]), stream_seed(2, &[5, 5]));
    }

    #[test]
    fn rng_from_seed_deterministic() {
        let mut a = rng_from_seed(5);
        let mut b = rng_from_seed(5);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }
}

//! Experiment-grid cells and deterministic per-cell seeding.
//!
//! An experiment is a grid: scenarios × methods × optimizers × replica
//! seeds. A [`Cell`] names one point of that grid by its integer
//! coordinates and derives the cell's RNG seed from those coordinates alone
//! (via [`wmn_model::rng::stream_seed`]), so a cell's random stream is a
//! pure function of *where it is in the grid* — never of which thread runs
//! it, or of how many cells ran before it.
//!
//! The coordinate convention used by `wmn-experiments` is
//! `[domain, scenario, method, replica]` with the domain codes in
//! [`domain`]; other grids are free to pick their own shape — only
//! consistency matters.

use std::fmt;
use wmn_model::rng::{rng_from_seed, stream_seed, Rng};

/// Domain codes for the first coordinate of `wmn-experiments` cells.
///
/// Separating domains keeps e.g. the standalone evaluation of `(normal,
/// HotSpot)` on a different stream than the GA run of the same pair.
pub mod domain {
    /// Standalone ad hoc placement (paper scenario 1).
    pub const STANDALONE: u64 = 0;
    /// GA initialized from an ad hoc method (paper scenario 2).
    pub const GA: u64 = 1;
    /// Neighborhood search (Figure 4).
    pub const NEIGHBORHOOD: u64 = 2;
    /// Initial placements shared by several runs.
    pub const INITIAL: u64 = 3;
}

/// One labeled cell of an experiment grid.
///
/// # Examples
///
/// ```
/// use wmn_runtime::grid::{domain, Cell};
///
/// let cell = Cell::new("ga-normal-HotSpot", &[domain::GA, 0, 6]);
/// // The seed depends only on (root, coords) — reproducible forever.
/// assert_eq!(cell.seed(42), Cell::new("renamed", &[domain::GA, 0, 6]).seed(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    label: String,
    coords: Vec<u64>,
}

impl Cell {
    /// A cell at `coords` with a human-readable `label` (used by error and
    /// progress reporting; the label does **not** influence the seed).
    pub fn new(label: impl Into<String>, coords: &[u64]) -> Self {
        Cell {
            label: label.into(),
            coords: coords.to_vec(),
        }
    }

    /// The human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The grid coordinates.
    pub fn coords(&self) -> &[u64] {
        &self.coords
    }

    /// The cell's RNG seed under `root`: `stream_seed(root, coords)`.
    pub fn seed(&self, root: u64) -> u64 {
        stream_seed(root, &self.coords)
    }

    /// The cell's RNG under `root` (convenience for
    /// `rng_from_seed(self.seed(root))`).
    pub fn rng(&self, root: u64) -> Rng {
        rng_from_seed(self.seed(root))
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.label, self.coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn seed_ignores_label() {
        let a = Cell::new("a", &[1, 2, 3]);
        let b = Cell::new("b", &[1, 2, 3]);
        assert_eq!(a.seed(9), b.seed(9));
        assert_ne!(a, b);
    }

    #[test]
    fn seed_depends_on_every_coordinate_and_root() {
        let base = Cell::new("x", &[domain::GA, 1, 4]);
        assert_ne!(base.seed(1), base.seed(2));
        assert_ne!(
            base.seed(1),
            Cell::new("x", &[domain::STANDALONE, 1, 4]).seed(1)
        );
        assert_ne!(base.seed(1), Cell::new("x", &[domain::GA, 2, 4]).seed(1));
        assert_ne!(base.seed(1), Cell::new("x", &[domain::GA, 1, 5]).seed(1));
    }

    #[test]
    fn rng_matches_seed() {
        let cell = Cell::new("c", &[2, 7]);
        let mut from_cell = cell.rng(5);
        let mut from_seed = rng_from_seed(cell.seed(5));
        assert_eq!(from_cell.gen::<u64>(), from_seed.gen::<u64>());
    }

    #[test]
    fn domains_are_distinct() {
        let codes = [
            domain::STANDALONE,
            domain::GA,
            domain::NEIGHBORHOOD,
            domain::INITIAL,
        ];
        let unique: std::collections::HashSet<u64> = codes.into_iter().collect();
        assert_eq!(unique.len(), codes.len());
    }

    #[test]
    fn display_includes_label_and_coords() {
        let cell = Cell::new("ga-normal", &[1, 0]);
        let s = cell.to_string();
        assert!(s.contains("ga-normal") && s.contains('1') && s.contains('0'));
    }
}

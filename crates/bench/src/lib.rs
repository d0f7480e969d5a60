//! The benchmark crate's library target: empty, because the benches under
//! `benches/` are self-contained.

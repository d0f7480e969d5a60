//! Argument vectors for the command-line fuzz tests.

/// Values at the edges of every value type the parsers read: zero,
/// negatives, one past `u32::MAX` and `u64::MAX`, infinities, NaN,
/// negative zero, the empty string, control characters, and the accepted
/// words next to refused ones.
pub const VALUES: &[&str] = &[
    "0",
    "-1",
    "1",
    "3",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "inf",
    "-inf",
    "nan",
    "-0.0",
    "0.5",
    "1e999",
    "",
    " ",
    "\u{1}",
    "\n",
    "\u{7f}",
    "dynamic",
    "full",
    "bogus",
    "seed=7;panic@start:p=0.5",
    "panic@nowhere:p=1",
    "wmn-fuzz-out",
];

/// An argument vector: `picks` index into `pieces` followed by
/// [`VALUES`], and each `Some` random string is spliced in before the
/// pick at its position.
pub fn argv(pieces: &[&str], picks: Vec<usize>, random: Vec<Option<Vec<u8>>>) -> Vec<String> {
    let mut args = Vec::new();
    for (i, pick) in picks.into_iter().enumerate() {
        if let Some(Some(bytes)) = random.get(i) {
            args.push(String::from_utf8_lossy(bytes).into_owned());
        }
        let piece = match pieces.get(pick) {
            Some(piece) => piece,
            None => VALUES[(pick - pieces.len()) % VALUES.len()],
        };
        args.push(piece.to_owned());
    }
    args
}

#!/usr/bin/env bash
# Non-test Rust line count, the size measure ROADMAP.md and CHANGES.md cite.
#
# Counts every line of every `.rs` file under crates/*/src,
# crates/bench/benches, src and examples, up to the file's first
# `#[cfg(test)]` (unit-test modules sit at the end of their file), and
# prints the count per crate, then the total. Blank and comment lines
# count. Integration tests (`tests/` directories) and `vendor/` are not
# counted.
#
# Usage: scripts/count_lines.sh   (from anywhere inside the repository)
set -euo pipefail

cd "$(dirname "$0")/.."

find crates/*/src crates/bench/benches src examples -name '*.rs' | LC_ALL=C sort |
    xargs awk '
        FNR == 1 {
            counting = 1
            n = split(FILENAME, part, "/")
            if (part[1] == "crates") group = part[2]
            else if (part[1] == "src") group = "wmn (src)"
            else group = part[1]
        }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines[group]++; total++ }
        END {
            for (g in lines) printf "%-16s %6d\n", g, lines[g] | "LC_ALL=C sort"
            close("LC_ALL=C sort")
            printf "%-16s %6d\n", "total", total
        }
    '

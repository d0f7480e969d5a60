#!/usr/bin/env bash
# Deterministic perf-regression gate over the engine's work counters.
#
# Runs the fixed-seed fig3 --quick workload (seeds 2009/42, one runner
# thread, one GA thread) with --telemetry, and compares the resulting
# counter profile against the committed COUNTERS_baseline.json with
# `wmn-report diff`. Because every counter is a deterministic work
# count — moves applied, coverage repairs by strategy, disk-cache hits,
# connectivity BFS edge visits — the snapshot is byte-stable across
# machines and thread counts, so any drift is a real change in how much
# work the engine does, not timing noise. A pessimized build (e.g.
# WMN_CHECK_CONNECTIVITY=full, which forces the full-rebuild oracle)
# fails the gate; CI relies on that as the negative test.
#
# Usage: scripts/check_counters.sh [--refresh]
#   --refresh   rewrite COUNTERS_baseline.json from the current build
#               (do this when a PR intentionally changes the work profile,
#               and say why in the PR)
#
# Environment:
#   WMN_CHECK_CONNECTIVITY   connectivity mode for the run: "dynamic"
#                            (default) or "full" (the full-rebuild oracle
#                            pipeline — useful as a should-fail probe)
#
# The comparison and the baseline rewrite both go through the wmn-report
# binary (crates/wmn-experiments/src/analyze.rs), so this script needs
# nothing beyond cargo.

set -euo pipefail
cd "$(dirname "$0")/.."

baseline=COUNTERS_baseline.json
mode="${WMN_CHECK_CONNECTIVITY:-dynamic}"
refresh=0
for arg in "$@"; do
  case "$arg" in
    --refresh) refresh=1 ;;
    *)
      echo "usage: scripts/check_counters.sh [--refresh]" >&2
      exit 2
      ;;
  esac
done

tmp="$PWD/target/check-counters"
rm -rf "$tmp"
cargo run --release -p wmn-experiments --bin fig3 -- \
  --quick --threads 1 --ga-threads 1 --connectivity "$mode" \
  --telemetry "$tmp/telemetry" --out "$tmp/results" >/dev/null

telemetry="$tmp/telemetry/telemetry.json"
report() {
  cargo run --release -q -p wmn-experiments --bin wmn-report -- "$@"
}

if [ "$refresh" -eq 1 ]; then
  report baseline "$telemetry" --out "$baseline"
  echo "refreshed $baseline (connectivity=$mode)"
  exit 0
fi

status=0
report diff "$baseline" "$telemetry" >"$tmp/diff.txt" || status=$?
case "$status" in
  0) echo "counter profile matches $baseline" ;;
  1)
    echo "counter profile drifted from $baseline:" >&2
    cat "$tmp/diff.txt" >&2
    echo "if the new work profile is intentional: scripts/check_counters.sh --refresh" >&2
    exit 1
    ;;
  *) exit "$status" ;;
esac

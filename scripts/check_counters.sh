#!/usr/bin/env bash
# Deterministic perf-regression gate over the engine's work counters.
#
# Runs two fixed-seed workloads with --telemetry and compares each run's
# counter profile (the flat totals and the phase-attribution tree, so a
# counter that moves to another phase scope drifts too) against its
# committed baseline with `wmn-report diff`. A baseline is a byte copy of
# its workload's telemetry.json (schema wmn-telemetry/v2):
#
#   fig3 --quick --threads 1 --ga-threads 1       COUNTERS_baseline.json
#     (seeds 2009/42: the GA, one batch repair per child)
#   fig4 --scale 64 --scale-area 2 --threads 1    COUNTERS_baseline_fig4.json
#     (seeds 2009/42: neighborhood search on a percolated mesh, one move
#     or swap repair per proposal)
#
# Because every counter is a deterministic work count — moves applied,
# coverage repairs by strategy, disk-cache hits, connectivity BFS edge
# visits — the snapshots are byte-stable across machines and thread
# counts, so any drift is a real change in how much work the engine does,
# not timing noise. A pessimized build (e.g. WMN_CHECK_CONNECTIVITY=full,
# which forces the full-rebuild oracle) fails the gate on both workloads;
# CI relies on that as the negative test.
#
# Usage: scripts/check_counters.sh [--refresh]
#   --refresh   copy each run's telemetry.json over its baseline (do this
#               when a change intentionally alters the work profile, and
#               say why)
#
# Environment:
#   WMN_CHECK_CONNECTIVITY   connectivity mode for the runs: "dynamic"
#                            (default) or "full" (the full-rebuild oracle
#                            pipeline — useful as a should-fail probe)
#
# The comparison goes through the wmn-report binary
# (crates/wmn-experiments/src/analyze.rs), so this script needs nothing
# beyond cargo.

set -euo pipefail
cd "$(dirname "$0")/.."

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
report() {
  cargo run --release -q -p wmn-experiments --bin wmn-report -- "$@"
}

# check <baseline> <bin> <args...>: runs the workload and compares (or,
# with --refresh, replaces) its baseline.
failed=0
check() {
  local baseline="$1" bin="$2"
  shift 2
  local dir="$tmp/${baseline%.json}"
  cargo run --release -q -p wmn-experiments --bin "$bin" -- "$@" \
    --connectivity "$mode" --telemetry "$dir/telemetry" --out "$dir/results" >/dev/null
  local telemetry="$dir/telemetry/telemetry.json"

  if [ "$refresh" -eq 1 ]; then
    cp "$telemetry" "$baseline"
    echo "refreshed $baseline (connectivity=$mode)"
    return
  fi

  local status=0
  report diff "$baseline" "$telemetry" >"$dir/diff.txt" || status=$?
  case "$status" in
    0) echo "counter profile matches $baseline" ;;
    1)
      echo "counter profile drifted from $baseline:" >&2
      cat "$dir/diff.txt" >&2
      failed=1
      ;;
    *) exit "$status" ;;
  esac
}

check COUNTERS_baseline.json fig3 --quick --threads 1 --ga-threads 1
check COUNTERS_baseline_fig4.json fig4 --scale 64 --scale-area 2 --threads 1

if [ "$failed" -eq 1 ]; then
  echo "if the new work profile is intentional: scripts/check_counters.sh --refresh" >&2
  exit 1
fi

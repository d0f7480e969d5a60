# Shared helpers for the bench-artifact scripts (bench_move_eval.sh,
# bench_ga_eval.sh): one place for the raw-JSONL
# collection plumbing, the jq median helper, and the schema-assert /
# summary-print steps every artifact shares.
#
# Source from a script living in scripts/:
#   source "$(dirname "$0")/bench_lib.sh"
#
# Requires jq. The vendored criterion shim (vendor/criterion) appends one
# JSON line per benchmark ({"id", "samples", "mean_ns", "median_ns",
# "best_ns"}) to $WMN_BENCH_JSON; these helpers aggregate those lines.

set -euo pipefail
cd "$(dirname "$0")/.."

# jq prelude shared by every artifact's aggregation program.
BENCH_JQ_PRELUDE='def median_of(name): (map(select(.id == name)) | first).median_ns;'

# run_bench_jsonl <raw-file-basename> [bench args...]
# Runs `cargo bench --bench ablations` with the JSONL sink pointed at
# target/<basename> (the bench binary's working directory is the package
# dir, so the sink path must be absolute) and sets $raw to the file.
run_bench_jsonl() {
  raw="$PWD/target/$1"
  shift
  rm -f "$raw"
  WMN_BENCH_JSON="$raw" cargo bench --bench ablations -- "$@"
}

# write_artifact <out-file> <jq-program>
# Aggregates $raw into <out-file> with the given jq program (the shared
# prelude is prepended, so `median_of` is available).
write_artifact() {
  local out="$1" program="$2"
  jq -s "$BENCH_JQ_PRELUDE $program" "$raw" >"$out"
}

# assert_artifact_schema <out-file> <jq-boolean-expression>
# Fails the script when the artifact does not satisfy the expression.
assert_artifact_schema() {
  local out="$1" expression="$2"
  jq -e "$expression" "$out" >/dev/null || {
    echo "$out failed schema check" >&2
    exit 1
  }
}

# print_artifact_summary <out-file> <jq-path>
print_artifact_summary() {
  local out="$1" path="$2"
  echo "wrote $out:"
  jq "$path" "$out"
}

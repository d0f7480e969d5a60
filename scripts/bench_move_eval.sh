#!/usr/bin/env bash
# Records the incremental-vs-rebuild move-evaluation criterion medians into
# BENCH_move_eval.json, the repo's perf-trajectory artifact for the
# neighborhood-search hot loop.
#
# Usage: scripts/bench_move_eval.sh [--quick]
#   --quick   one sample per benchmark (CI smoke; medians are then noisy)
#
# Requires jq; shared plumbing lives in scripts/bench_lib.sh.
source "$(dirname "$0")/bench_lib.sh"

out=BENCH_move_eval.json
run_bench_jsonl bench-move-eval.jsonl "$@" move_eval

write_artifact "$out" '
  {
    schema: "wmn-bench-move-eval/v1",
    description: "1000 random relocations, each applied, evaluated and undone by moving the router back (drawn inline; no Movement is called): incremental delta-evaluation engine vs full-rebuild reference, per scale",
    bench: "cargo bench --bench ablations -- move_eval",
    benches: .,
    speedup_median: {
      paper: (median_of("ablation_move_eval/rebuild/paper")
              / median_of("ablation_move_eval/incremental/paper")),
      scale4: (median_of("ablation_move_eval/rebuild/scale4")
               / median_of("ablation_move_eval/incremental/scale4"))
    }
  }
'

assert_artifact_schema "$out" '
  .schema == "wmn-bench-move-eval/v1"
  and (.benches | length) == 4
  and ([.speedup_median.paper, .speedup_median.scale4][]
       | (type == "number" and . > 0))
'

print_artifact_summary "$out" .speedup_median

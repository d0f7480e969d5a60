#!/usr/bin/env bash
# Records the GA child-evaluation criterion medians into BENCH_ga_eval.json,
# the perf-trajectory artifact for the topology-backed GA's population-eval
# hot loop (the companion of scripts/bench_move_eval.sh for the
# neighborhood-search loop).
#
# Three pipelines per (mix, scale) cell — see ablation_ga_eval in
# crates/bench/benches/ablations.rs:
#   incremental  parent-topology state copy + batch diff repair (default:
#                dynamic connectivity + donor-grafted disk caches)
#   rebuild      per-child in-place full rebuild
#   scratch      per-child fresh topology build (the pre-workspace pipeline)
# and two child mixes: `generation` (paper operator mix, crossover 0.8) and
# `mutation` (mutation-only children — the steady-state regime where every
# child is a parent plus a few move deltas).
#
# Usage: scripts/bench_ga_eval.sh [--quick]
#   --quick   one sample per benchmark (CI smoke; medians are then noisy)
#
# Requires jq; shared plumbing lives in scripts/bench_lib.sh.
source "$(dirname "$0")/bench_lib.sh"

out=BENCH_ga_eval.json
run_bench_jsonl bench-ga-eval.jsonl "$@" ga_eval

write_artifact "$out" '
  def cell(scale): {
    generation_vs_rebuild:
      (median_of("ablation_ga_eval/rebuild_generation/" + scale)
       / median_of("ablation_ga_eval/incremental_generation/" + scale)),
    generation_vs_scratch:
      (median_of("ablation_ga_eval/scratch_generation/" + scale)
       / median_of("ablation_ga_eval/incremental_generation/" + scale)),
    mutation_vs_rebuild:
      (median_of("ablation_ga_eval/rebuild_mutation/" + scale)
       / median_of("ablation_ga_eval/incremental_mutation/" + scale)),
    mutation_vs_scratch:
      (median_of("ablation_ga_eval/scratch_mutation/" + scale)
       / median_of("ablation_ga_eval/incremental_mutation/" + scale))
  };
  {
    schema: "wmn-bench-ga-eval/v1",
    description: "One GA generation of child evaluation (64 children, 40-generation-evolved HotSpot population): topology-backed incremental delta path (dynamic connectivity + donor disk caches) vs per-child in-place full rebuild vs per-child fresh-topology scratch build, for the paper operator mix (generation) and a mutation-only mix (mutation), per scale",
    bench: "cargo bench --bench ablations -- ga_eval",
    benches: .,
    speedup_median: { paper: cell("paper"), scale4: cell("scale4") }
  }
'

# Schema assertion: required keys present, every speedup a positive number,
# and one benchmark line per (pipeline, mix, scale) cell.
assert_artifact_schema "$out" '
  .schema == "wmn-bench-ga-eval/v1"
  and (.benches | length) == 12
  and ([.speedup_median.paper, .speedup_median.scale4][]
       | [.generation_vs_rebuild, .generation_vs_scratch,
          .mutation_vs_rebuild, .mutation_vs_scratch][]
       | (type == "number" and . > 0))
'

print_artifact_summary "$out" .speedup_median

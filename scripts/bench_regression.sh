#!/usr/bin/env bash
# bench_regression.sh — run the key microbenchmarks and gate on regressions.
#
#   bench_regression.sh run <out.txt>             run the benchmark suite
#   bench_regression.sh compare <base.txt> <head.txt>
#                                                 benchstat the two runs and
#                                                 fail on a statistically
#                                                 significant >15% slowdown
#                                                 or allocs/op increase
#
# The suite covers the layers the execution engine optimizes: the vec
# kernels (single row, one four-row pass, leaf-sized blocks, the multi-query
# tile and the per-query path beside it, the build's farthest-row pass over a
# node's block, the point-level ball cut on a 64-point leaf), the linear scan
# (one query over n=10k; the benchmark fixture's 256-query ground truth over
# n=50k as one batch and split over GOMAXPROCS), the two tree builds and the sharded one (n=10k, 4
# shards; allocs/op gates the builder's scratch: a build allocates per tree,
# not per node, and B/op that it makes one matrix, not two), the tree searches
# (per-query and batched), the serving path, the container codec (save and open of the
# n=50k BC-Tree) and the dynamic index (recovery and one compaction of
# dyn-rw's 20k-point index under a 5 % delta). -count=6 gives benchstat enough
# samples for a significance test; -benchmem records allocs/op so the
# zero-allocation steady state is gated alongside time, and B/op for the build,
# codec and dynamic benchmarks, where it is what the operation costs in heap: about
# one container's worth to open an index (27.0 MB for the 26.87 MB P2HBC008
# container of the n=50k BC-Tree, which keeps half its nodes' centres and no
# point radii; 70 KB to save it), about one copy of the live data — the
# gathered rows, which the new tree is built inside — to compact one.
set -euo pipefail

COUNT="${BENCH_COUNT:-6}"
BENCHTIME="${BENCH_TIME:-0.3s}"
MAX_REGRESSION_PCT="${MAX_REGRESSION_PCT:-15}"
MAX_ALLOC_REGRESSION_PCT="${MAX_ALLOC_REGRESSION_PCT:-10}"

run() {
  local out="$1"
  : > "$out"
  go test -run '^$' -bench 'BenchmarkDot|BenchmarkDotBlock4x128|BenchmarkSqDistBlock|BenchmarkMaxDistFrom|BenchmarkBallCutoff|BenchmarkConeSelect|BenchmarkCodeDot|BenchmarkCodeSelect' \
    -benchmem -benchtime="$BENCHTIME" -count="$COUNT" ./internal/vec | tee -a "$out"
  go test -run '^$' -bench 'BenchmarkLinearScan' \
    -benchmem -benchtime="$BENCHTIME" -count="$COUNT" ./internal/linearscan | tee -a "$out"
  go test -run '^$' -bench 'BenchmarkBuildBCTree|BenchmarkBuildBallTree|BenchmarkBuildSharded|BenchmarkQueryExactBallTree|BenchmarkQueryExactBCTree|BenchmarkQueryBudgetBCTree$|BenchmarkSearchBatchExact|BenchmarkServer|BenchmarkSaveBCTree|BenchmarkOpenBCTree|BenchmarkOpenDynamic|BenchmarkDynamicCompact' \
    -benchmem -benchtime="$BENCHTIME" -count="$COUNT" . | tee -a "$out"
}

compare() {
  local base="$1" head="$2"

  # Zero-alloc gate, straight from the raw outputs (benchstat's rendering
  # of a zero-to-nonzero delta is not parseable reliably): any benchmark
  # whose best base run allocated nothing must still allocate nothing at
  # head. Benchmarks new at head have no base line and are skipped.
  local leaks
  leaks=$(awk '
    FNR == 1 { file++ }
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 3; i < NF; i++) if ($(i + 1) == "allocs/op") {
        if (file == 1) { if (!(name in base) || $i + 0 < base[name]) base[name] = $i + 0 }
        else           { if (!(name in head) || $i + 0 < head[name]) head[name] = $i + 0 }
      }
    }
    END { for (n in head) if (n in base && base[n] == 0 && head[n] > 0)
            printf "%s: 0 allocs/op at base, %d at head\n", n, head[n] }
  ' "$base" "$head") || true
  if [ -n "$leaks" ]; then
    echo "FAIL: zero-allocation benchmark(s) now allocate:"
    echo "$leaks"
    exit 1
  fi

  local report
  report=$(benchstat "$base" "$head")
  echo "$report"
  # benchstat marks a significant delta as "+NN.NN% (p=0.0xx n=6)" and an
  # insignificant one as "~". Three metric sections are regression signals:
  # sec/op (a positive delta is a slowdown), allocs/op (a positive delta
  # means the zero-allocation steady state is eroding) and, for the build,
  # codec and dynamic benchmarks only, B/op (elsewhere it follows pool and cache state). In
  # the B/s table a positive delta is an improvement, so the scan tracks
  # which metric section it is inside.
  local bad
  bad=$(echo "$report" | awk -v maxsec="$MAX_REGRESSION_PCT" -v maxalloc="$MAX_ALLOC_REGRESSION_PCT" '
    /sec\/op/  { sect = "sec";   next }
    /allocs\/op/ { sect = "alloc"; next }
    /B\/op/ { sect = "bytes"; next }
    /B\/s/  { sect = "";      next }
    sect == "bytes" && $1 !~ /^((Save|Open)BCTree|OpenDynamic|DynamicCompact|Build(BCTree|BallTree|Sharded))/ { next }
    sect != "" {
      for (i = 1; i < NF; i++) {
        if ($i ~ /^\+[0-9]+(\.[0-9]+)?%$/ && $(i + 1) ~ /^\(p=[0-9.]+$/) {
          pct = substr($i, 2, length($i) - 2) + 0
          p = substr($(i + 1), 4) + 0
          max = (sect == "sec") ? maxsec : maxalloc
          if (pct > max && p <= 0.05) print sect ": " $0
        }
      }
    }') || true
  if [ -n "$bad" ]; then
    echo ""
    echo "FAIL: statistically significant regression(s) above the gates" \
         "(sec/op > ${MAX_REGRESSION_PCT}%, allocs/op and codec B/op > ${MAX_ALLOC_REGRESSION_PCT}%):"
    echo "$bad"
    exit 1
  fi
  echo "OK: no significant slowdown above ${MAX_REGRESSION_PCT}% and no allocs/op regression above ${MAX_ALLOC_REGRESSION_PCT}%."
}

case "${1:-}" in
  run)     run "${2:?usage: bench_regression.sh run <out.txt>}" ;;
  compare) compare "${2:?base file}" "${3:?head file}" ;;
  *) echo "usage: $0 run <out.txt> | compare <base.txt> <head.txt>" >&2; exit 2 ;;
esac

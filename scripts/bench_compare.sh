#!/usr/bin/env bash
# bench_compare.sh — the repository's benchmark, base against head.
#
#   scripts/bench_compare.sh <base-ref> <pairs>
#
# Checks <base-ref> out into a git worktree, and for each pair 1..<pairs> and
# each workload of BENCHMARK.json makes one untraced `go run ./benchmark` per
# side at BENCHMARK.json's run_seconds, seed = the pair's number, the side that
# goes first alternating from pair to pair (alternation is what cancels the
# host's slow phases; benchmark/README.md). Each side runs its own benchmark/
# from its own tree. Then `go run ./benchmark compare base head` prints the
# workload x metric table. Exits non-zero if any run does (a wrong answer, a
# failed operation) or if compare does (a bounded end-to-end metric REGRESSED).
# CI passes 3 pairs; a claimed gain takes 10.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 <base-ref> <pairs>" >&2; exit 2; }
base_ref="$1"
pairs="$2"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "$0: <pairs> must be a positive integer, got '$pairs'" >&2; exit 2; }

# Like bench_regression.sh this works on the checkout it is called from, not
# the one it is stored in, so CI can run a pinned copy of it.
head_dir="$(git rev-parse --show-toplevel)"
cd "$head_dir"
base_sha="$(git rev-parse --verify --quiet "$base_ref^{commit}")" \
  || { echo "$0: '$base_ref' names no commit" >&2; exit 2; }
git cat-file -e "$base_sha:benchmark/main.go" 2>/dev/null \
  || { echo "$0: base $base_ref ($base_sha) has no benchmark/ directory: nothing to compare against" >&2; exit 2; }

seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)"
workloads="$(sed -n 's/^ *{"name": *"\([a-z-]*\)", *"why".*/\1/p' BENCHMARK.json)"
[ -n "$seconds" ] && [ -n "$workloads" ] \
  || { echo "$0: could not read run_seconds and the workloads from BENCHMARK.json" >&2; exit 1; }

out="$head_dir/.p2hbench-out"
base_dir="$out/base"
cleanup() {
  git worktree remove --force "$base_dir" 2>/dev/null || true
  rm -rf "$out"
  git worktree prune
}
trap cleanup EXIT
rm -rf "$out"
mkdir -p "$out"
git worktree add --quiet --detach "$base_dir" "$base_sha"

failed=0
run_side() { # side dir workload seed
  local rc=0
  (cd "$2" && go run ./benchmark --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
    -out "$out/$1.jsonl" 2>"$out/run.err" >"$out/run.json") || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "pair $4 $1 $3: $(cat "$out/run.json")"
  else
    echo "pair $4 $1 $3: FAILED (exit $rc)"
    cat "$out/run.err"
    failed=1
  fi
}

for pair in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if [ $((pair % 2)) -eq 1 ]; then
      run_side base "$base_dir" "$w" "$pair"
      run_side head "$head_dir" "$w" "$pair"
    else
      run_side head "$head_dir" "$w" "$pair"
      run_side base "$base_dir" "$w" "$pair"
    fi
  done
done

echo "== compare: A = base $base_ref ($base_sha), B = head, $pairs pair(s) x $seconds s"
rc=0
go run ./benchmark compare "$out/base.jsonl" "$out/head.jsonl" || rc=$?
[ "$failed" -eq 0 ] || { echo "$0: at least one run failed" >&2; exit 1; }
exit "$rc"

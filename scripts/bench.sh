#!/usr/bin/env bash
# bench.sh — run the mining hot-path benchmarks and record the numbers in
# BENCH_mining.json at the repo root, the serving read-path benchmarks into
# BENCH_serving.json, and the per-publish stages (drift diff, rule index
# build) into BENCH_publish.json.
#
# Usage:
#   scripts/bench.sh                          # refresh every "current" section
#   scripts/bench.sh --set-baseline           # also copy them into "baseline"
#   scripts/bench.sh [--set-baseline] publish # only the named files:
#                                             # mining, serving, publish
#
# The baseline section is meant to be captured once on the commit you are
# comparing against (e.g. before a performance change) and left alone
# afterwards: a plain run preserves whatever baseline the file already
# holds, so the JSON always shows before/after side by side.
#
# BENCH_serving.json needs no cross-commit baseline: the pre-index linear
# read path is kept in-tree as the equivalence oracle, so every run
# measures before (Linear) and after (Indexed) on the same snapshot and
# reports the speedup directly.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-1s}
SET_BASELINE=0
[ "${1:-}" = "--set-baseline" ] && SET_BASELINE=1 && shift
SECTIONS=${*:-mining serving publish}
want() { [[ " $SECTIONS " == *" $1 "* ]]; }

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

run() { # run <pkg> <bench regexp>
    echo ">> go test -run=NONE -bench '$2' -benchtime=$BENCHTIME -benchmem $1" >&2
    go test -run=NONE -bench "$2" -benchtime="$BENCHTIME" -benchmem "$1" |
        awk -v pkg="$1" '/^Benchmark/ && /ns\/op/ {
            name=$1; sub(/-[0-9]+$/, "", name)
            ns=""; bytes=""; allocs=""
            # Benchmarks may report custom metrics (e.g. jobs/op), so find
            # each unit by name instead of assuming fixed columns.
            for (i = 3; i <= NF; i++) {
                if ($i == "ns/op") ns = $(i-1)
                else if ($i == "B/op") bytes = $(i-1)
                else if ($i == "allocs/op") allocs = $(i-1)
            }
            printf "%s\t%s\t%s\t%s\t%s\t%s\n", pkg, name, $2, ns, bytes, allocs
        }' >>"$raw"
}

# write_baselined <out> <note>: the captured benchmarks as "current", with
# "baseline" carried over from <out> (or replaced, under --set-baseline).
write_baselined() {
    local current baseline=null
    current=$(jq -Rn '
      [inputs | split("\t") |
       {package: .[0], name: .[1], iterations: (.[2] | tonumber),
        ns_per_op: (.[3] | tonumber), bytes_per_op: (.[4] | tonumber),
        allocs_per_op: (.[5] | tonumber)}]' <"$raw")
    if [ "$SET_BASELINE" = 1 ]; then
        baseline=$current
    elif [ -f "$1" ]; then
        baseline=$(jq '.baseline' "$1")
    fi
    jq -n --argjson current "$current" --argjson baseline "$baseline" \
        --arg go "$(go version | awk '{print $3}')" \
        --arg benchtime "$BENCHTIME" --arg note "$2" '
      {generated_by: "scripts/bench.sh", go: $go, benchtime: $benchtime,
       note: $note, baseline: $baseline, current: $current}' >"$1"
    echo "wrote $1" >&2
}

if want mining; then
# FP-Growth engine: initial tree construction and mining across densities,
# thresholds and worker counts (20k-transaction class databases).
run ./internal/fpgrowth 'BenchmarkBuildInitial|BenchmarkMineByDensity|BenchmarkMineByThreshold|BenchmarkMineParallelism'
# Windowed-delta serving pattern: 20k window advancing 200 txns per tick,
# full tree rebuild per mine vs the maintained incremental tree.
run ./internal/fpgrowth 'BenchmarkIncrementalMine'
# Rule generation over the mined lattice.
run ./internal/rules 'BenchmarkGenerate'
# End-to-end: 20k-job PAI trace through the miner, and the HTTP server
# ingest+mine loop.
run . 'BenchmarkMinerFPGrowth$|BenchmarkMinerFPGrowthSequential$|BenchmarkServerIngestMine$'

write_baselined BENCH_mining.json \
    "ns/B/allocs are per op; baseline is the pre-optimization capture, current the latest run"
fi

if want serving; then
# Serving read path: repeated /v1/rules queries against one 20k-job
# snapshot, the indexed handlers against the in-tree linear oracle.
SERVING_OUT=BENCH_serving.json
: >"$raw"
run ./internal/server 'BenchmarkServing'

jq -Rn --arg go "$(go version | awk '{print $3}')" --arg benchtime "$BENCHTIME" '
  [inputs | split("\t") |
   {name: .[1], iterations: (.[2] | tonumber),
    ns_per_op: (.[3] | tonumber), bytes_per_op: (.[4] | tonumber),
    allocs_per_op: (.[5] | tonumber)}]
  | map({key: .name, value: .}) | from_entries as $b
  | {generated_by: "scripts/bench.sh", go: $go, benchtime: $benchtime,
     note: "before is the pre-index linear scan (kept as the equivalence oracle), after the indexed read path, on the same 20k-job snapshot",
     results: [
       {query: "repeated ?keyword= analysis",
        before: $b.BenchmarkServingKeywordLinear,
        after: $b.BenchmarkServingKeywordIndexed},
       {query: "?sort=support&min_lift= page",
        before: $b.BenchmarkServingSortLinear,
        after: $b.BenchmarkServingSortIndexed}
     ] | map(. + {speedup: ((.before.ns_per_op / .after.ns_per_op) * 10 | round / 10)})}
  ' <"$raw" >"$SERVING_OUT"
echo "wrote $SERVING_OUT" >&2
fi

if want publish; then
# Publish path: the drift diff and the rule index build a serving loop runs
# ahead of every snapshot, over two consecutive window-5000 PAI views 1000
# jobs apart (~150k rules each).
: >"$raw"
run ./internal/stream 'BenchmarkDiff$'
run ./internal/server 'BenchmarkNewRuleIndex$'
write_baselined BENCH_publish.json \
    "ns/B/allocs are per publish over ~150k-rule views; baseline is the string-keyed Diff and sort.SliceStable/append-grown index, current the hash-join Diff and radix-sorted, slab-carved index"
fi

#!/usr/bin/env bash
# Build and run the repository benchmark (benchmark/README.md).
#
# One workload, one run (the form BENCHMARK.json's command takes):
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Every workload, N sets of R runs (seeds S..S+R-1), records under
# build-bench/results/<rev>-<time>/set-K/, a new directory per invocation:
#   bash benchmark/run.sh [--sets=N] [--runs=R] [--seed=S] [--seconds=T]
#                         [--traced]
#
# Builds into build-bench/ (Release) first; build output goes to stderr so
# the last stdout line of a single run stays its JSON result.  Exits
# nonzero when the build fails or any run fails an output check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f src/CMakeLists.txt ]]; then
  echo "run.sh: no simulator sources at $root/src; run from a full checkout" >&2
  exit 2
fi

build=build-bench
jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4
{
  if [[ ! -f $build/CMakeCache.txt ]]; then
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target mapg_bench -j "$jobs"
} >&2
bench="$build/mapg_bench"

if [[ " $* " == *" --workload"* ]]; then
  exec "$bench" run --work-dir="$build/work" "$@"
fi

sets=1 runs=1 seed=42 seconds=15 traced=0
for arg in "$@"; do
  case $arg in
    --sets=*) sets=${arg#*=} ;;
    --runs=*) runs=${arg#*=} ;;
    --seed=*) seed=${arg#*=} ;;
    --seconds=*) seconds=${arg#*=} ;;
    --traced) traced=1 ;;
    *) echo "run.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

workloads=(direct-mem direct-compute direct-writeq sweep-tab1 sample-trace
           serve-mixed)
# Earlier invocations' records are never overwritten: each gets its own
# directory, named after the commit (when there is one) and the start time.
rev=$(git rev-parse --short HEAD 2>/dev/null || echo nogit)
results="$build/results/$rev-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$build/results"
mkdir "$results"
status=0
start=$(date +%s)
for ((k = 1; k <= sets; k++)); do
  out="$results/set-$k"
  mkdir "$out"
  modes=(0)
  (( traced )) && modes=(0 1)
  for w in "${workloads[@]}"; do
    for ((s = seed; s < seed + runs; s++)); do
      for t in "${modes[@]}"; do
        suffix=""
        (( t )) && suffix="-traced"
        if ! "$bench" run --workload="$w" --seed="$s" --seconds="$seconds" \
            --trace="$t" --work-dir="$build/work" \
            --out="$out/$w-$s$suffix.json"; then
          status=1
        fi
      done
    done
  done
done
echo "all sets: $(( $(date +%s) - start )) s; records under $results/"
exit $status

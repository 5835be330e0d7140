#!/usr/bin/env bash
# Reproduce every experiment in EXPERIMENTS.md from a clean tree.
#
#   scripts/reproduce.sh [results_dir]
#
# Builds, runs the test suite, then regenerates every table/figure twice:
# once as the human-readable bench_output.txt and once as per-experiment CSV
# files under results/ for plotting.  Both passes share one temporary result
# cache, so the CSV pass reads every engine cell the text pass simulated.
set -euo pipefail
cd "$(dirname "$0")/.."

RESULTS="${1:-results}"

cmake -B build -G Ninja
cmake --build build

echo "=== tests ==="
ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt | tail -3

CACHE="$(mktemp -d)"
trap 'rm -rf "$CACHE"' EXIT

echo "=== benches (text) ==="
: > bench_output.txt
for b in build/bench/*; do
  name="$(basename "$b")"
  echo "######## ${name}" | tee -a bench_output.txt
  case "$name" in
    tab*|fig*)
      "$b" --cache-dir="$CACHE" >> bench_output.txt 2>&1 ;;
    *)
      "$b" >> bench_output.txt 2>&1 ;;
  esac
done

echo "=== benches (csv -> ${RESULTS}/) ==="
mkdir -p "${RESULTS}"
for b in build/bench/*; do
  name="$(basename "$b")"
  case "$name" in
    micro_*)
      "$b" --benchmark_format=csv > "${RESULTS}/${name}.csv" 2>/dev/null ;;
    tab*|fig*)
      "$b" --csv=1 --cache-dir="$CACHE" > "${RESULTS}/${name}.csv" ;;
    *)
      "$b" --csv=1 > "${RESULTS}/${name}.csv" ;;
  esac
done

echo "done: test_output.txt, bench_output.txt, ${RESULTS}/*.csv"

#!/usr/bin/env bash
# Machine-readable perf trajectory: run a trajectory bench and emit its
# BENCH_*.json at the repo root (the committed copies are the trajectory
# record EXPERIMENTS.md §"Perf trajectory" quotes).
#
#   scripts/bench_report.sh [build_dir] [replay|serve|sampling|all] [extra bench args...]
#
# BENCH_replay.json carries the resume-aware census: replayed /
# prefix_resumes / full_fallbacks cell counts, windows_saved, and the
# checkpoint_stride in effect (docs/MODEL.md §4b-4c).
#
# BENCH_sampling.json carries the sampled-simulation record: speedup over
# full simulation, per-metric projection error, and 95% CI coverage on a
# 50M-instruction MAPGTRC2 trace (docs/TRACE.md §6).
#
# e.g.  scripts/bench_report.sh                      # build/, replay, tab1 axis
#       scripts/bench_report.sh build serve          # serving QPS -> BENCH_serve.json
#       scripts/bench_report.sh build sampling       # projection error record
#       scripts/bench_report.sh build all            # every record
#       scripts/bench_report.sh build replay --axis=ablation --json=BENCH_ablation.json
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
[ "$#" -gt 0 ] && shift
MODE="${1:-replay}"
case "$MODE" in
  replay|serve|sampling|all) [ "$#" -gt 0 ] && shift ;;
  *) MODE=replay ;;  # unrecognized first arg: treat it as a bench arg
esac

run_bench() {  # run_bench <target> <default_json> [args...]
  local target="$1" default_json="$2"
  shift 2
  local bin="$BUILD/bench/$target"
  if [ ! -x "$bin" ]; then
    cmake -B "$BUILD" -S .
    cmake --build "$BUILD" --target "$target" -j
  fi
  local args=("$@")
  case " ${args[*]-} " in
    *" --json="*) ;;
    *) args+=("--json=$default_json") ;;
  esac
  "$bin" "${args[@]}"
}

case "$MODE" in
  replay)   run_bench micro_replay_speedup BENCH_replay.json "$@" ;;
  serve)    run_bench load_serve BENCH_serve.json "$@" ;;
  sampling) run_bench micro_sampling BENCH_sampling.json "$@" ;;
  all)
    run_bench micro_replay_speedup BENCH_replay.json
    run_bench load_serve BENCH_serve.json
    run_bench micro_sampling BENCH_sampling.json
    ;;
esac

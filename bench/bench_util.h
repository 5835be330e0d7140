// Shared scaffolding for the table/figure reproduction binaries.
//
// Every bench accepts optional "--key=value" overrides:
//   --instructions=N   measured instructions per run (default per-bench)
//   --warmup=N         warmup instructions
//   --seed=N           trace seed
//   --fast-forward=0   tick stall windows cycle-by-cycle instead of the
//                      closed-form fast path (bit-identical, much slower;
//                      see bench/micro_ff_speedup.cpp)
//   --dram-power=MODE  DRAM low-power states (docs/MEMORY_POWER.md):
//                      off (default), timeout (idle channels park on a
//                      per-channel timer), coordinated (the PG controller
//                      parks idle channels during gated stalls; pair with
//                      a "<policy>-dram" spec)
//   --dram-standard=S  named DRAM timing + energy preset (docs/DRAM.md):
//                      ddr3-1600 (the default timing set), ddr4-2400,
//                      lpddr4-3200; individual dram.t_* keys still override
//   --page-policy=P    DRAM page-management policy: open (default),
//                      closed (auto-precharge), hybrid (HAPPY-style,
//                      keyed by row-address bits; docs/DRAM.md §4)
//   --csv=1            emit CSV instead of the aligned text table
// Execution-engine flags (see docs/EXEC.md):
//   --jobs=N           simulation worker threads (default: all hardware
//                      threads; results are bit-identical for any N)
//   --cache-dir=DIR    persistent result cache (default: $MAPG_CACHE_DIR
//                      when set, else disabled)
//   --no-cache         ignore the disk cache for this run
//   --progress=1       live jobs/sec meter on stderr
//   --runlog=FILE      append per-job JSONL telemetry to FILE
//   --replay=0         disable single-pass policy-sweep replay (src/replay);
//                      every cell then simulates directly.  Results are
//                      bit-identical either way (bench/micro_replay_speedup
//                      verifies, tests/test_replay.cpp proves)
//   --checkpoint-stride=N
//                      instructions between architectural checkpoints
//                      captured while recording a reference timeline
//                      (replay/checkpoint.h); penalized cells resume from
//                      the latest eligible checkpoint instead of cycle 0.
//                      0 disables capture; results are bit-identical for
//                      any stride (tests/test_checkpoint.cpp proves)
// Observability flags (see docs/OBSERVABILITY.md):
//   --metrics-out=FILE write the end-of-run metrics snapshot as JSON
//   --trace-out=FILE   record a Chrome trace (open in Perfetto or
//                      chrome://tracing); per-job spans + counter tracks
//   --trace-buf=N      trace ring capacity in events (default 262144;
//                      overflow drops oldest and counts trace.dropped)
#pragma once

#include <memory>
#include <string>

#include "common/config.h"
#include "common/table.h"
#include "core/sim.h"
#include "exec/engine.h"
#include "exec/runner.h"

namespace mapg::bench {

struct BenchEnv {
  SimConfig sim;
  bool csv = false;
  ExecOptions exec;
  /// Engine built from `exec`; shared so every runner in the binary pools
  /// threads and memoized results.
  std::shared_ptr<ExperimentEngine> engine;
  /// Observability sinks; empty = off.  Written by report_engine().
  std::string metrics_out;
  std::string trace_out;
};

/// Parse argv into a SimConfig starting from the repository defaults.
BenchEnv parse_env(int argc, char** argv, std::uint64_t default_instructions,
                   std::uint64_t default_warmup = 250'000);

/// Print the standard experiment banner (id, what it reproduces).
void banner(const std::string& experiment_id, const std::string& title,
            const BenchEnv& env);

/// Emit a finished table in the requested format.
void emit(const Table& table, const BenchEnv& env);

/// One-line engine telemetry (sims run / cached / wall time) on stderr —
/// kept off stdout so table output stays byte-identical across --jobs=N.
/// Also flushes the observability sinks: --metrics-out JSON and the
/// --trace-out Chrome trace, when configured.
void report_engine(const BenchEnv& env);

}  // namespace mapg::bench

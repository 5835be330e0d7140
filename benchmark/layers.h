// Outside-in per-layer decomposition of simulation cells (the traced run).
//
// Per-call timers around TraceSource::next or MemoryHierarchy::load would
// cost more than the calls they time, so a layer's host time is measured as
// a whole isolation pass instead:
//
//   1. sim    — Simulator::run, untraced: the composed time to explain.
//   2. trace  — drain a fresh copy of the cell's trace source.
//   3. traced — the same run recomposed here from Core, MemoryHierarchy and
//               PgController (the sequence Simulator::run_impl uses), with a
//               TraceSource tap that logs every load/store and its issue
//               cycle, and a RecordingStallHandler that logs every stall
//               window.  Its result must equal step 1 byte for byte.
//   4. mem    — replay the logged access stream into a fresh
//               MemoryHierarchy; its statistics must equal step 2's.
//   5. pg     — replay the logged stall windows into a fresh PgController;
//               its statistics must equal step 2's.
//   6. power  — compute_energy + compute_dram_energy_breakdown on the result.
//
// cpu self time is the residual sim - (trace + mem + pg): the core's issue
// loop plus everything the isolation passes do not cover.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sim.h"

namespace mapg::bench {

/// One simulation cell: the platform, a factory for a fresh copy of its
/// instruction stream, and the policy.  `make_source` returning nullptr
/// means "the profile's TraceGenerator", so Simulator::run(profile, spec)
/// is the reference.
struct Cell {
  SimConfig config;
  WorkloadProfile profile;
  std::string label;  ///< workload name in the result
  std::string policy;
  std::function<std::unique_ptr<TraceSource>()> make_source;
};

/// Host seconds per layer pass and the work each pass did, for one cell.
struct LayerSample {
  double sim_s = 0;
  double traced_s = 0;
  double trace_s = 0;
  double mem_s = 0;
  double pg_s = 0;
  double power_s = 0;  ///< per result
  std::uint64_t instrs = 0;    ///< trace instructions consumed (warmup too)
  std::uint64_t accesses = 0;  ///< loads + stores sent to the hierarchy
  std::uint64_t windows = 0;   ///< stall windows resolved (warmup too)
  SimResult result;            ///< the untraced run's result
  /// Exactness failures; empty when every pass reproduced the composed run.
  std::vector<std::string> mismatches;
};

/// Run every pass above on `cell`.  Each pass is recorded as one span on
/// the obs::EventTracer when it is enabled.
LayerSample decompose(const Cell& cell);

}  // namespace mapg::bench

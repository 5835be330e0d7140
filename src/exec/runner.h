// Baseline-relative scoring over engine results.
//
// Every grid runs as an ExperimentEngine sweep (exec/engine.h) with the
// "none" policy on its policy axis; this layer turns a cell and its
// same-variant, same-workload, same-seed baseline into the paper's
// metrics, and aggregates one multi-seed column into mean / stdev / min /
// max per metric.
#pragma once

#include <cstddef>
#include <string>

#include "common/stats.h"
#include "core/sim.h"
#include "exec/engine.h"

namespace mapg {

/// A SimResult scored against the same-workload no-gating baseline.
struct Comparison {
  SimResult result;

  /// 1 - E_total(policy) / E_total(baseline).
  double total_energy_savings = 0;
  /// 1 - E_core_domain(policy) / E_core_domain(baseline) — the paper-style
  /// headline metric (always-on cache leakage excluded from both sides).
  double core_energy_savings = 0;
  /// Net gated-region leakage reduction: (leak saved - PG overhead) over the
  /// baseline gated-region leakage.
  double net_leakage_savings = 0;
  /// cycles(policy) / cycles(baseline) - 1.
  double runtime_overhead = 0;
};

/// Baseline-relative metrics aggregated over independent trace seeds:
/// mean / stdev / min / max per metric.  Replication quantifies how much of
/// any observed difference is workload-draw noise.
struct ReplicatedComparison {
  std::string workload;
  std::string policy;
  RunningStat core_energy_savings;
  RunningStat total_energy_savings;
  RunningStat net_leakage_savings;
  RunningStat runtime_overhead;
  RunningStat mpki;
  RunningStat ipc;

  std::uint64_t replicates() const { return core_energy_savings.count(); }
};

/// Score `result` against `base` (exposed for tests and custom harnesses).
Comparison score_against(const SimResult& base, SimResult result);

/// Aggregate the seed axis of cell (vi, wi, pi), each seed scored against
/// its own same-seed baseline.  Aggregation runs in seed order, so the
/// result does not depend on scheduling.  Throws std::runtime_error (via
/// SweepResult::result) if a cell of the column or its baseline failed.
ReplicatedComparison replicate(const SweepResult& sweep, std::size_t vi,
                               std::size_t wi, std::size_t pi);

}  // namespace mapg

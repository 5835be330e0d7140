// SampledRunner: simulate representatives, project whole-trace results.
//
// The dynamic half of sampled simulation (the static half is planner.h).
// For every cluster representative the runner records one reference
// timeline over the representative's trace window — warmup clamped to the
// prefix available before the region — and then serves each requested
// policy through the SAME tier ladder the experiment engine and the server
// use (resolve_on_timeline: reference -> exact replay), falling back to
// direct simulation over the materialized window.  Recordings and cells
// run on up to --jobs workers through exec's claim loop (for_each_claimed,
// exec/thread_pool.h); each worker reads through its own digest-checking
// reader, and the projection sums per-cluster results in cluster order
// after the join, so a result never depends on the worker count.  Where
// --jobs leaves threads over, a recording's window is read and
// digest-checked ahead of its core by a helper (trace/staged_source.h).
// Per-representative results are therefore bit-identical to directly
// simulating that window; approximation enters ONLY in the projection
// step, where extensive metrics are scaled by cluster weights and summed:
//
//   m_hat = sum_k w_k * m_k,   w_k = (sum_{r in k} len_r) / len_{rep_k}
//
// The confidence interval is model-based (one representative per cluster
// leaves no within-cluster samples to take a classical variance from): each
// member region contributes a deviation term proportional to its predicted
// share times how far it sits from its representative in signature space
// and auxiliary work intensity.  Zero dispersion (every member identical to
// its representative — in particular the degenerate plan) yields a
// zero-width interval; the bracket's empirical coverage is pinned by
// tests/test_sampling.cpp and its honesty limits are spelled out in
// docs/TRACE.md.
//
// Exhaustive plans short-circuit: one continuous full-trace run (warmup 0,
// all instructions measured), reported verbatim with exact == true —
// sampling must never cost accuracy when it saves no work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "replay/replay.h"
#include "sample/planner.h"

namespace mapg {

struct MetricEstimate {
  std::string name;
  double value = 0;
  double stderr_ = 0;  ///< model-based standard error (0 => exact)
  double ci_lo = 0;    ///< value -/+ 1.96 * stderr_
  double ci_hi = 0;
};

struct SampledResult {
  std::string workload;
  std::string policy;
  /// true: `full` holds a whole-trace SimResult bit-identical to direct
  /// simulation (exhaustive plan); the metric list is derived from it with
  /// zero-width intervals.
  bool exact = false;
  std::optional<SimResult> full;
  std::vector<SimResult> representative_results;  ///< per cluster, in order
  std::vector<MetricEstimate> metrics;

  std::uint64_t regions = 0;             ///< plan regions
  std::uint64_t clusters = 0;            ///< representatives simulated
  std::uint64_t instructions_simulated = 0;  ///< measured instrs actually run
  std::uint64_t instructions_projected = 0;  ///< whole-trace instrs claimed

  const MetricEstimate* find(const std::string& name) const;
};

class SampledRunner {
 public:
  /// `base` supplies the platform (core/mem/tech/pg); its instruction and
  /// warmup counts are overridden per window.  `trace` must outlive the
  /// runner and is repositioned freely.  `jobs` bounds the threads that
  /// record representatives, read their windows and resolve cells, with
  /// the --jobs meaning of build_sample_plan: 0 = every hardware thread,
  /// 1 = one after another on the calling thread.  Results are identical
  /// for every `jobs`.
  SampledRunner(const SimConfig& base, FileTraceSource& trace,
                SamplePlan plan, std::string workload_name,
                unsigned jobs = 0);

  /// Project the whole trace under one policy.  The first call records
  /// every representative's timeline, and later calls share them, so
  /// sweeping P policies costs one recording + P replays per
  /// representative.  Every cluster is attempted; if any fails (a damaged
  /// trace window, an unknown policy spec), the lowest failing cluster's
  /// error is thrown, and a later call retries the clusters still missing
  /// a timeline rather than projecting from a partial set.
  SampledResult run(const std::string& policy_spec);

  const SamplePlan& plan() const { return plan_; }

 private:
  /// A representative's trace window: where it starts and the config
  /// (warmup + measured counts) it is recorded under.
  struct Window {
    std::uint64_t start = 0;
    SimConfig config;
  };
  Window window_for(std::size_t cluster) const;
  void record_timelines();
  std::vector<SimResult> simulate_cells(const std::string& policy_spec);
  /// for_each_claimed over `items`, each item one task of budget_
  /// (exec/thread_pool.h).
  void for_each_task(
      std::size_t items,
      const std::function<void(std::size_t item, unsigned worker)>& body);

  SimConfig base_;
  FileTraceSource& trace_;
  SamplePlan plan_;
  std::string workload_;
  unsigned jobs_;
  ThreadBudget budget_;  ///< jobs_ threads: recordings plus their helpers
  std::vector<std::optional<StallTimeline>> timelines_;  ///< per cluster
};

}  // namespace mapg

// SamplePlanner: slice a trace into regions, cluster by signature, pick
// representatives.
//
// The plan is the static half of sampled simulation (the dynamic half is
// runner.h): a deterministic function of (trace content, SampleConfig) that
// decides WHICH instruction windows get simulated and how much whole-trace
// weight each one carries.  docs/TRACE.md §Sampling derives the math;
// MODEL.md §4c states what the result does and does not claim.
//
// Degenerate guard: when the requested cluster count reaches the region
// count there is nothing to save, and approximating would only cost
// accuracy — the plan is flagged `exhaustive` and the runner simulates the
// whole trace in one continuous run (bit-identical to full simulation,
// pinned by tests/test_sampling.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sample/kmeans.h"
#include "sample/signature.h"
#include "trace/trace_file.h"

namespace mapg {

struct SampleConfig {
  /// Region granularity in instructions.
  std::uint64_t region_instructions = 1'000'000;
  /// Target number of clusters (capped at the region count).
  std::uint64_t clusters = 8;
  /// Warmup instructions simulated before each representative region
  /// (clamped to the trace prefix actually available before the region).
  std::uint64_t warmup_instructions = 200'000;
  /// Seed for k-means++ (part of the plan identity).
  std::uint64_t seed = 42;
  /// Optional signature-cache file (signature.h, MAPGSIG1).  Empty: always
  /// scan.  Non-empty (file-trace overload only): load when the header
  /// matches the trace digest + slicing exactly, else scan and refresh.
  /// The plan is byte-for-byte independent of whether the cache hit.
  std::string signature_cache;
};

struct SampleCluster {
  std::size_t representative = 0;  ///< region index
  /// Whole-trace instructions this cluster accounts for, divided by the
  /// representative's length: the factor that scales the representative's
  /// extensive metrics up to the cluster's share of the full run.
  double weight = 0;
  std::vector<std::size_t> members;  ///< region indices, ascending
};

struct SamplePlan {
  SampleConfig config;
  std::uint64_t total_instructions = 0;
  std::vector<RegionSignature> regions;
  std::vector<std::size_t> assignment;  ///< region -> cluster
  std::vector<SampleCluster> clusters;
  /// true when clusters >= regions: the runner must run the whole trace in
  /// one continuous pass instead of projecting.
  bool exhaustive = false;

  /// Instructions the runner will actually simulate (sum of representative
  /// lengths; the whole trace when exhaustive).  Warmup excluded.
  std::uint64_t sampled_instructions() const;
};

/// Build a plan from the trace's current position to its end.  Consumes the
/// trace once (signature pass); callers seek/reset before simulating.
/// `config.signature_cache` is ignored on this overload (no content digest
/// is available to key it).
SamplePlan build_sample_plan(TraceSource& trace, const SampleConfig& config);

/// File-trace overload: plans the WHOLE trace (seeks to 0 first) and honours
/// `config.signature_cache` — signatures depend only on trace content and
/// slicing, so a matching cache skips the full-trace scan entirely, which is
/// where steady-state sampled runs get their speedup (bench/micro_sampling).
/// On a cache miss the scan runs on up to `jobs` threads, with the --jobs
/// meaning (0 = every hardware thread, 1 = serial on the calling thread);
/// the plan and the cache bytes are identical for every `jobs`.
SamplePlan build_sample_plan(FileTraceSource& trace,
                             const SampleConfig& config, unsigned jobs = 0);

}  // namespace mapg

// Tiered cell resolution for the resident server (docs/SERVE.md).
//
// Every request cell funnels through one path:
//
//   hot LRU  ->  engine ResultCache (memory, then disk)  ->  replay from a
//   cached reference timeline  ->  compute (ExperimentEngine)
//
// with request coalescing wrapped around everything below the hot tier, so
// N concurrent identical keys cost one computation, and a timeline cache
// that persists ACROSS requests: a sweep records one `none` reference per
// (config, workload, seed) group (exactly like ExperimentEngine::run_sweep
// does within a batch), keeps it in a small LRU (the hot tier's LruCache),
// and any later request whose cell belongs to the same group — tomorrow's
// query for a new policy on a known platform — climbs the shared tier
// ladder (resolve_on_timeline, replay/replay.h) instead of simulating:
// replay, else the engine's compute path, which regenerates the cell's
// stream.  Each cell probes the engine cache once: a cell that missed it
// is not probed again on its way to compute, and a sweep's planning looks
// without counting.  Every tier preserves the bit-identity contract:
// it returns the same bytes a batch ExperimentEngine run would
// (tests/test_serve.cpp, CI serve smoke).
//
// Thread-safe; shared by all server connections.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "replay/replay.h"
#include "serve/coalescer.h"
#include "serve/hot_cache.h"

namespace mapg::serve {

enum class Tier : std::uint8_t {
  kHot,        ///< serve-layer LRU hit
  kCache,      ///< engine ResultCache hit (memory or disk)
  kReplay,     ///< reconstituted from a cached reference timeline
  kCompute,    ///< simulated (includes replay fallbacks)
  kCoalesced,  ///< shared another caller's in-flight computation
  kError,      ///< job failed; outcome.error says why
};

/// Wire name ("hot", "cache", "replay", "compute", "coalesced", "error").
const char* tier_name(Tier tier);

struct ServeOutcome {
  JobOutcome job;
  Tier tier = Tier::kError;
};

struct ServeStats {
  std::uint64_t cells = 0;
  std::uint64_t hot_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t replayed = 0;
  std::uint64_t computed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t errors = 0;
  std::uint64_t timelines_recorded = 0;
  std::uint64_t timelines_reused = 0;
  /// Replays abandoned on a penalized window that fell back to a direct
  /// simulation from cycle 0.
  std::uint64_t replay_fallbacks = 0;
};

struct TieredOptions {
  /// Hot-tier entries (results, a few KB each); 0 disables the tier.
  std::size_t hot_entries = 4096;
  /// Reference timelines kept across requests.  Timelines are the
  /// expensive tier to hold (each owns its stall series, 33 bytes per
  /// full-core stall: several MB per million instructions on a
  /// memory-bound workload), so the default is small.
  std::size_t timeline_entries = 8;
};

class TieredExecutor {
 public:
  TieredExecutor(ExperimentEngine& engine, TieredOptions options = {});

  /// Resolve one cell through the full tier path.
  ServeOutcome run_cell(const ExperimentJob& job);

  /// Resolve a sweep expansion (workload-outer / policy-mid / seed-inner
  /// over one base config, ExperimentEngine::expand order).  Groups cells
  /// by (workload, seed); any group about to compute >= 2 cells records
  /// its reference timeline first so the policy axis replays — the serve
  /// counterpart of ExperimentEngine::run_sweep's record-once path.
  std::vector<ServeOutcome> run_cells(const std::vector<ExperimentJob>& jobs,
                                      std::size_t n_workloads,
                                      std::size_t n_policies,
                                      std::size_t n_seeds);

  ServeStats stats() const;
  ExperimentEngine& engine() { return engine_; }
  const HotCache& hot_cache() const { return hot_; }
  std::size_t timelines_cached() const { return timelines_.size(); }

 private:
  using TimelinePtr = std::shared_ptr<const StallTimeline>;

  /// Record (or fetch) the reference timeline for a group; nullptr when
  /// recording fails or replay is disabled.  Also publishes the reference
  /// result under `ref_key` so the group's `none` cell is a cache hit.
  TimelinePtr ensure_timeline(const ExperimentJob& group_job,
                              const std::string& ref_key);

  /// The below-hot-tier path run by the coalescing leader.
  ServeOutcome resolve(const ExperimentJob& job, const std::string& key);

  ExperimentEngine& engine_;
  HotCache hot_;
  /// Reference timelines by their group's reference key
  /// (cache_key(config, profile, "none")).
  LruCache<StallTimeline> timelines_;
  RequestCoalescer coalescer_;

  mutable std::mutex mu_;  ///< guards stats_
  ServeStats stats_;
};

}  // namespace mapg::serve

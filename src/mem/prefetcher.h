// L2 stream prefetcher (substrate extension).
//
// MAPG's opportunity is defined by DRAM-blocked stalls, so its interaction
// with latency-hiding techniques matters: a prefetcher that converts demand
// misses into hits (or shortens them via in-flight merges) removes exactly
// the stalls MAPG gates.  R-Tab.5 quantifies the interaction.
//
// Design: a small table of unit-stride streams.  A demand L2 miss that
// extends a tracked stream trains it; confirmed streams keep an issue
// window `degree` lines ahead of the most recent demand.  The prefetcher is
// re-triggered both by demand misses AND by the first demand touch of a
// prefetched line (the per-line prefetch bit in Cache), so an established
// stream keeps running ahead even when it eliminates all misses.
// Prefetches fill the L2 via Cache::fill (no demand-stats distortion) and
// register in the MSHR merge table, so demand accesses to in-flight
// prefetched lines wait only for the remaining latency — timeliness is
// modeled, not assumed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace mapg {

struct PrefetcherConfig {
  bool enable = false;
  std::uint32_t degree = 2;        ///< issue-window depth, in lines
  std::uint32_t table_entries = 16;
  std::uint32_t confirm_after = 1; ///< stream extensions before issuing
};

struct PrefetcherStats {
  std::uint64_t trained = 0;   ///< events that extended a tracked stream
  std::uint64_t issued = 0;    ///< prefetch requests emitted
  std::uint64_t streams = 0;   ///< new streams allocated
};

class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(PrefetcherConfig config);

  /// Observe a demand event (L2 miss or first touch of a prefetched line)
  /// for `line_addr` (line-aligned); append the prefetch candidates
  /// (line-aligned) to `out`.
  void observe(Addr line_addr, std::uint64_t line_bytes,
               std::vector<Addr>& out);

  const PrefetcherConfig& config() const { return config_; }
  const PrefetcherStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PrefetcherStats{}; }

 private:
  /// One tracked stream.
  struct Stream {
    Addr next_demand = kNoAddr;  ///< expected next demand line
    Addr next_issue = kNoAddr;   ///< next line the window will fetch
    std::int8_t dir = 1;         ///< +1 ascending, -1 descending
    std::uint32_t hits = 0;      ///< consecutive confirmations
    std::uint64_t lru = 0;
  };

  /// Emit window lines from s.next_issue up to `degree` lines beyond
  /// `demand_line`, advancing s.next_issue.
  void emit_window(Stream& s, Addr demand_line, std::uint64_t line_bytes,
                   std::vector<Addr>& out);

  PrefetcherConfig config_;
  std::vector<Stream> table_;
  std::uint64_t tick_ = 0;
  PrefetcherStats stats_;
};

}  // namespace mapg

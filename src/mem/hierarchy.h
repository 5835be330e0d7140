// Two-level cache hierarchy + DRAM, composed for a single in-order core.
//
// Responsibilities: latency composition (L1 -> L2 -> memory controller ->
// DRAM -> fill return), write-back routing of dirty victims, and MSHR-style
// merging of accesses to lines whose fill is still in flight.  The hierarchy
// is also where MAPG's information boundary is enforced: the result exposes
// `estimate` / `commit` / `complete` exactly as a real memory controller
// could (see dram.h).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/prefetcher.h"

namespace mapg {

struct HierarchyConfig {
  CacheConfig l1d{.name = "L1D",
                  .size_bytes = 32 * 1024,
                  .assoc = 8,
                  .line_bytes = 64,
                  .hit_latency = 3};
  CacheConfig l2{.name = "L2",
                 .size_bytes = 1024 * 1024,
                 .assoc = 16,
                 .line_bytes = 64,
                 .hit_latency = 12};
  DramConfig dram{};
  /// L2-miss to memory-controller-enqueue latency (on-chip interconnect).
  Cycle mc_request_latency = 10;
  /// Last DRAM data beat to data-usable-by-core latency (fill return path).
  Cycle fill_return_latency = 15;
  /// Optional L2 stream prefetcher (off by default; R-Tab.5).
  PrefetcherConfig prefetch{};
};

enum class ServedBy : std::uint8_t { kL1 = 0, kL2 = 1, kDram = 2 };

struct MemAccessResult {
  Cycle complete = 0;  ///< data usable by the core
  Cycle commit = 0;    ///< when `complete` became exactly known at the MC
  Cycle estimate = 0;  ///< MC estimate of `complete` at issue time
  ServedBy served_by = ServedBy::kL1;
  bool merged = false;      ///< satisfied by an already-in-flight fill
  bool prefetched = false;  ///< that fill was a prefetch
};

struct HierarchyStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t served_l1 = 0;
  std::uint64_t served_l2 = 0;
  std::uint64_t served_dram = 0;  ///< loads whose data came from DRAM
  std::uint64_t merged = 0;       ///< accesses satisfied by in-flight fills
  /// Demand fill reads actually issued to DRAM (loads + write-allocate
  /// stores, merged accesses excluded).  Together with prefetch_issued this
  /// equals the DRAM controller's read count contributed by this hierarchy.
  std::uint64_t dram_fills = 0;
  std::uint64_t prefetch_issued = 0;  ///< prefetch reads sent to DRAM
  std::uint64_t prefetch_merges = 0;  ///< demand accesses riding a prefetch
};

class MemoryHierarchy {
 public:
  /// Single-core form: owns the L1, L2, and DRAM.
  explicit MemoryHierarchy(HierarchyConfig config);

  /// Multi-core form: owns a private L1; L2 and DRAM are shared structures
  /// owned by the caller (see src/multicore).  All cores' accesses must be
  /// presented in globally non-decreasing time order.
  MemoryHierarchy(HierarchyConfig config, Cache& shared_l2,
                  Dram& shared_dram);

  /// Demand load; `now` must be non-decreasing across all calls.
  MemAccessResult load(Addr addr, Cycle now);

  /// Store; the core retires it through a write buffer and never blocks on
  /// the returned completion — it is reported for energy/occupancy stats.
  MemAccessResult store(Addr addr, Cycle now);

  /// True if a fill for this address's line is (or was recently) in flight.
  /// Used by the core's MLP-credit check: an access that will merge into an
  /// existing MSHR entry must not be charged a new miss credit.  May return
  /// true for a just-completed fill, which is safe — that access hits.
  bool line_in_flight(Addr addr) const {
    return find_inflight(l1_.line_addr(addr)) != nullptr;
  }

  const HierarchyConfig& config() const { return config_; }
  const HierarchyStats& stats() const { return stats_; }
  const CacheStats& l1_stats() const { return l1_.stats(); }
  const CacheStats& l2_stats() const { return l2_->stats(); }
  const DramStats& dram_stats() const { return dram_->stats(); }
  const PrefetcherStats& prefetcher_stats() const {
    return prefetcher_.stats();
  }

  Cache& l1() { return l1_; }
  Cache& l2() { return *l2_; }
  Dram& dram() { return *dram_; }
  bool owns_l2_and_dram() const { return owned_l2_ != nullptr; }

  /// Zero this hierarchy's statistics (own counters + private L1) without
  /// touching tag/bank state; also resets the L2/DRAM stats when owned.
  /// With shared L2/DRAM, the owner resets those once for all cores.
  void reset_stats() {
    stats_ = HierarchyStats{};
    l1_.reset_stats();
    prefetcher_.reset_stats();
    if (owned_l2_) {
      l2_->reset_stats();
      dram_->reset_stats();
    }
  }

 private:
  MemAccessResult access(Addr addr, bool is_write, Cycle now);
  /// Route a dirty L1 victim into L2 (and, transitively, to DRAM).
  void handle_l1_writeback(Addr line_addr, Cycle now);
  /// Train the prefetcher on a demand L2 miss and launch its requests.
  void run_prefetcher(Addr miss_line, Cycle t_req);
  void prune_inflight(Cycle now);
  /// The in-flight fill for `line`, or null.
  const MemAccessResult* find_inflight(Addr line) const {
    for (const auto& [a, r] : inflight_)
      if (a == line) return &r;
    return nullptr;
  }

  HierarchyConfig config_;
  Cache l1_;
  std::unique_ptr<Cache> owned_l2_;  ///< null when L2/DRAM are shared
  std::unique_ptr<Dram> owned_dram_;
  Cache* l2_;
  Dram* dram_;
  StreamPrefetcher prefetcher_;
  std::vector<Addr> prefetch_scratch_;
  HierarchyStats stats_;
  /// (line address, in-flight fill result) pairs, one per line: the MSHR
  /// merge table.  It holds at most a few MLP windows' worth of fills, so a
  /// flat vector with linear search beats a hash table here.
  std::vector<std::pair<Addr, MemAccessResult>> inflight_;
};

}  // namespace mapg

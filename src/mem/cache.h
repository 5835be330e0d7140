// Set-associative cache model (timestamp-driven, immediate-state-update).
//
// The simulator is trace-driven: an access updates tag state at the moment it
// is processed and the resulting latency is composed by MemoryHierarchy.
// This "resource reservation" style is the standard trade-off for
// single-core trace simulation — hit/miss streams are exact for the in-order
// access sequence, while fill timing is approximated as immediate (the MSHR
// table in MemoryHierarchy prevents double-counting of in-flight lines).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/prng.h"
#include "common/types.h"

namespace mapg {

enum class ReplPolicy : std::uint8_t { kLru, kTreePlru, kRandom };

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t assoc = 8;
  std::uint32_t line_bytes = 64;
  Cycle hit_latency = 3;  ///< cycles from access to data for a hit
  ReplPolicy repl = ReplPolicy::kLru;
  bool write_back = true;  ///< write-back + write-allocate (vs write-through)

  std::uint64_t num_sets() const {
    const std::uint64_t lines = size_bytes / line_bytes;
    return lines / assoc;
  }
  bool valid() const;
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t evictions = 0;
  std::uint64_t prefetch_fills = 0;  ///< lines allocated via fill()

  std::uint64_t accesses() const {
    return read_hits + read_misses + write_hits + write_misses;
  }
  std::uint64_t misses() const { return read_misses + write_misses; }
  double miss_rate() const {
    const auto a = accesses();
    return a ? static_cast<double>(misses()) / static_cast<double>(a) : 0.0;
  }
};

class Cache {
 public:
  /// One cache line's tag state.  Public because it is part of Cache::State.
  struct Line {
    Addr tag = kNoAddr;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;  ///< filled by fill(), not yet demand-touched
    std::uint64_t lru_stamp = 0;  ///< larger = more recently used
  };

  /// Complete mutable state: every line (tags, dirty/prefetch bits, LRU
  /// stamps), the tree-PLRU bits, the global stamp counter, the random-
  /// victim PRNG stream, and the statistics.  import_state() requires a
  /// Cache constructed with the same CacheConfig; round-trips bit-exactly
  /// (src/replay/checkpoint.h).
  struct State {
    std::vector<Line> lines;
    std::vector<std::uint8_t> plru_bits;
    std::uint64_t stamp = 0;
    Prng::State victim_prng{};
    CacheStats stats;
  };

  struct AccessResult {
    bool hit = false;
    bool writeback = false;   ///< a dirty victim must be written downstream
    Addr writeback_addr = kNoAddr;  ///< line address of the dirty victim
    /// First demand touch of a line brought in by fill(): the prefetch-bit
    /// was set and has now been consumed (prefetcher re-trigger signal).
    bool hit_on_prefetched = false;
  };

  explicit Cache(CacheConfig config);

  /// Access one address; on a miss the line is allocated (write-allocate).
  AccessResult access(Addr addr, bool is_write);

  /// Allocate a line WITHOUT demand-access accounting (prefetch fill):
  /// no hit/miss counters change, but evictions/writebacks are recorded and
  /// returned as usual.  A line already present is left untouched.
  AccessResult fill(Addr addr);

  /// Probe without modifying replacement or allocating.  For tests/debug.
  bool contains(Addr addr) const;

  /// Drop every line (used between experiment repetitions).
  void flush();

  State export_state() const;
  void import_state(const State& s);

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  Addr line_addr(Addr addr) const { return addr & ~line_mask_; }

 private:
  std::uint64_t set_index(Addr addr) const;
  Addr tag_of(Addr addr) const;
  std::uint32_t choose_victim(std::uint64_t set);
  void touch(std::uint64_t set, std::uint32_t way);

  CacheConfig config_;
  std::uint64_t line_mask_;
  std::uint64_t set_mask_;
  std::uint32_t line_shift_;
  std::vector<Line> lines_;                 ///< sets * assoc, set-major
  std::vector<std::uint8_t> plru_bits_;     ///< assoc-1 tree bits per set
  std::uint64_t stamp_ = 0;
  Prng victim_prng_{0xC0FFEEULL};
  CacheStats stats_;
};

}  // namespace mapg

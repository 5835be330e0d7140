// Content-addressed result cache: memory tier + optional disk tier.
//
// Keys are cache_key() hashes of the full experiment identity (config +
// profile + policy spec + seed, see serialize.h).  The memory tier holds
// shared_ptr<const SimResult> so concurrent readers and long-lived
// references (a sweep's baseline column) stay valid with no copying; the
// disk tier stores one pretty-small JSON file per cell under
// `<dir>/<key>.json`, written atomically (tmp file + rename) so a killed
// run never leaves a torn entry behind.
//
// All methods are thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/sim.h"

namespace mapg {

struct CacheStatsSnapshot {
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;       ///< results inserted this process
  std::uint64_t disk_errors = 0;  ///< unreadable/corrupt entries skipped
};

class ResultCache {
 public:
  /// `dir` empty => memory-only.  The directory is created on first store.
  explicit ResultCache(std::string dir = {});

  /// Look `key` up: memory first, then disk (a disk hit is promoted into
  /// memory).  Returns nullptr on miss.  Corrupt disk entries count as
  /// misses and are left for the subsequent store() to overwrite.
  std::shared_ptr<const SimResult> get(const std::string& key);

  /// Whether get(key) would find an entry (a disk entry need only exist),
  /// without counting a hit or a miss.
  bool contains(const std::string& key) const;

  /// Insert (memory always, disk when persistent).  Returns the shared
  /// entry — callers should keep that pointer rather than their own copy.
  std::shared_ptr<const SimResult> store(const std::string& key,
                                         SimResult result);

  bool persistent() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  CacheStatsSnapshot stats() const;

  /// Drop the memory tier (tests; disk entries survive).
  void clear_memory();

 private:
  std::string path_for(const std::string& key) const;

  const std::string dir_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const SimResult>> memory_;
  CacheStatsSnapshot stats_;
  bool dir_ready_ = false;
};

}  // namespace mapg

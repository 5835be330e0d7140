// In-memory hot tier: LRU-bounded shared_ptr entries.
//
// The engine's ResultCache memory tier is unbounded by design — a batch
// sweep touches each key once and exits.  A resident server does neither:
// it lives for days and its working set follows request traffic, so the
// hot tier must be bounded (LRU) and sit IN FRONT of the engine cache.  A
// hot hit costs one mutex + map lookup and never touches the engine, the
// disk, or the coalescer; an eviction costs nothing but the map entry,
// because results are shared_ptr — in-flight responses keep theirs alive,
// and a re-miss falls through to the engine's memory/disk tiers.
//
// Generic over the cached type: the server keeps results in one instance
// (HotCache) and its reference timelines in another (serve/tiered.h).
// Thread-safe; sized in entries (a SimResult is a few KB, so the default
// 4096 entries ~ tens of MB).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/sim.h"

namespace mapg::serve {

struct HotCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

template <typename T>
class LruCache {
 public:
  using Ptr = std::shared_ptr<const T>;

  /// `capacity` == 0 disables the tier (every get misses, puts are dropped).
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up and touch (move to most-recent); nullptr on miss.
  Ptr get(const std::string& key) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->second;
  }

  /// Stats-neutral, recency-neutral lookup (group planning probes).
  Ptr peek(const std::string& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : it->second->second;
  }

  /// Insert or refresh; evicts the least-recently-used entry past capacity.
  void put(const std::string& key, Ptr value) {
    if (capacity_ == 0 || value == nullptr) return;
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    ++stats_.insertions;
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return lru_.size();
  }
  std::size_t capacity() const { return capacity_; }
  HotCacheStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  using LruList = std::list<std::pair<std::string, Ptr>>;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recent
  std::map<std::string, typename LruList::iterator> index_;
  HotCacheStats stats_;
};

/// The server's result tier.
using HotCache = LruCache<SimResult>;

}  // namespace mapg::serve

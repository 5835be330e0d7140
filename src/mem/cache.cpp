#include "mem/cache.h"

#include <bit>

namespace mapg {

bool CacheConfig::valid() const {
  if (line_bytes == 0 || !std::has_single_bit(line_bytes)) return false;
  if (assoc == 0) return false;
  if (size_bytes == 0 || size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                                       assoc) != 0)
    return false;
  const std::uint64_t sets = num_sets();
  return sets > 0 && std::has_single_bit(sets);
}

Cache::Cache(CacheConfig config) : config_(config) {
  line_mask_ = config_.line_bytes - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(config_.line_bytes)));
  set_mask_ = config_.num_sets() - 1;
  const std::uint64_t lines = config_.num_sets() * config_.assoc;
  tags_.assign(lines, kNoAddr);
  flags_.assign(lines, 0);
  stamps_.assign(lines, 0);
  plru_bits_.assign(lines, 0);
}

std::uint64_t Cache::set_index(Addr addr) const {
  return (addr >> line_shift_) & set_mask_;
}

Addr Cache::tag_of(Addr addr) const {
  return addr >> line_shift_;  // full line number as tag; simple and exact
}

void Cache::touch(std::uint64_t set, std::uint32_t way) {
  stamps_[set * config_.assoc + way] = ++stamp_;
  if (config_.repl == ReplPolicy::kTreePlru) {
    // Walk from the root, flipping each internal node away from this way.
    std::uint8_t* bits = &plru_bits_[set * config_.assoc];
    std::uint32_t node = 0;
    std::uint32_t lo = 0, hi = config_.assoc;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (way < mid) {
        bits[node] = 1;  // next victim search goes right
        node = 2 * node + 1;
        hi = mid;
      } else {
        bits[node] = 0;  // next victim search goes left
        node = 2 * node + 2;
        lo = mid;
      }
    }
  }
}

std::uint32_t Cache::choose_victim(std::uint64_t set) {
  const std::uint32_t assoc = config_.assoc;
  const std::uint8_t* flags = &flags_[set * assoc];
  const std::uint64_t* stamps = &stamps_[set * assoc];

  // Invalid ways first, for every policy.  The same pass finds the least
  // recently used way (the first one on a tie).
  std::uint32_t lru = 0;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < assoc; ++w) {
    if (!(flags[w] & kValid)) return w;
    if (stamps[w] < oldest) {
      oldest = stamps[w];
      lru = w;
    }
  }

  switch (config_.repl) {
    case ReplPolicy::kLru:
      return lru;
    case ReplPolicy::kTreePlru: {
      const std::uint8_t* bits = &plru_bits_[set * assoc];
      std::uint32_t node = 0;
      std::uint32_t lo = 0, hi = assoc;
      while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (bits[node]) {  // bit set = go right
          node = 2 * node + 2;
          lo = mid;
        } else {
          node = 2 * node + 1;
          hi = mid;
        }
      }
      return lo;
    }
    case ReplPolicy::kRandom:
      return static_cast<std::uint32_t>(victim_prng_.below(assoc));
  }
  return 0;
}

std::uint32_t Cache::find_way(std::uint64_t set, Addr tag) const {
  const std::uint32_t assoc = config_.assoc;
  const Addr* tags = &tags_[set * assoc];
  const std::uint8_t* flags = &flags_[set * assoc];
  for (std::uint32_t w = 0; w < assoc; ++w)
    if (tags[w] == tag && (flags[w] & kValid)) return w;
  return assoc;
}

void Cache::install(std::uint64_t set, std::uint32_t victim, Addr tag,
                    std::uint8_t flags, AccessResult& result) {
  const std::uint64_t i = set * config_.assoc + victim;
  if (flags_[i] & kValid) {
    ++stats_.evictions;
    if (flags_[i] & kDirty) {
      ++stats_.writebacks;
      result.writeback = true;
      result.writeback_addr = tags_[i] << line_shift_;
    }
  }
  tags_[i] = tag;
  flags_[i] = flags;
  touch(set, victim);
}

Cache::AccessResult Cache::access(Addr addr, bool is_write) {
  const std::uint64_t set = set_index(addr);
  const Addr tag = tag_of(addr);

  if (const std::uint32_t w = find_way(set, tag); w < config_.assoc) {
    std::uint8_t& flags = flags_[set * config_.assoc + w];
    touch(set, w);
    if (is_write) {
      ++stats_.write_hits;
      if (config_.write_back) flags |= kDirty;
    } else {
      ++stats_.read_hits;
    }
    AccessResult result{.hit = true};
    if (flags & kPrefetched) {
      flags &= static_cast<std::uint8_t>(~kPrefetched);  // consume re-trigger
      result.hit_on_prefetched = true;
    }
    return result;
  }

  // Miss: allocate (write-allocate for both reads and writes).
  if (is_write)
    ++stats_.write_misses;
  else
    ++stats_.read_misses;

  AccessResult result;
  install(set, choose_victim(set), tag,
          is_write && config_.write_back ? kValid | kDirty : kValid, result);
  return result;
}

Cache::AccessResult Cache::fill(Addr addr) {
  const std::uint64_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  if (find_way(set, tag) < config_.assoc)
    return AccessResult{.hit = true};  // already resident: nothing to do

  ++stats_.prefetch_fills;
  AccessResult result;
  install(set, choose_victim(set), tag, kValid | kPrefetched, result);
  return result;
}

bool Cache::contains(Addr addr) const {
  return find_way(set_index(addr), tag_of(addr)) < config_.assoc;
}

void Cache::flush() {
  tags_.assign(tags_.size(), kNoAddr);
  flags_.assign(flags_.size(), 0);
  stamps_.assign(stamps_.size(), 0);
  plru_bits_.assign(plru_bits_.size(), 0);
  stamp_ = 0;
}

}  // namespace mapg

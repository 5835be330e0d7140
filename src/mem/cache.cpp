#include "mem/cache.h"

#include <bit>
#include <cassert>

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
  assert(config_.valid() && "invalid cache geometry");
  line_mask_ = config_.line_bytes - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(config_.line_bytes)));
  set_mask_ = config_.num_sets() - 1;
  lines_.resize(config_.num_sets() * config_.assoc);
  plru_bits_.assign(config_.num_sets() * config_.assoc, 0);
}

std::uint64_t Cache::set_index(Addr addr) const {
  return (addr >> line_shift_) & set_mask_;
}

Addr Cache::tag_of(Addr addr) const {
  return addr >> line_shift_;  // full line number as tag; simple and exact
}

void Cache::touch(std::uint64_t set, std::uint32_t way) {
  Line& line = lines_[set * config_.assoc + way];
  line.lru_stamp = ++stamp_;
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
  Line* set_lines = &lines_[set * assoc];

  // Invalid ways first, for every policy.
  for (std::uint32_t w = 0; w < assoc; ++w)
    if (!set_lines[w].valid) return w;

  switch (config_.repl) {
    case ReplPolicy::kLru: {
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < assoc; ++w)
        if (set_lines[w].lru_stamp < set_lines[victim].lru_stamp) victim = w;
      return victim;
    }
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

Cache::AccessResult Cache::access(Addr addr, bool is_write) {
  const std::uint64_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  Line* set_lines = &lines_[set * config_.assoc];

  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Line& line = set_lines[w];
    if (line.valid && line.tag == tag) {
      touch(set, w);
      if (is_write) {
        ++stats_.write_hits;
        if (config_.write_back) line.dirty = true;
      } else {
        ++stats_.read_hits;
      }
      AccessResult result{.hit = true};
      if (line.prefetched) {
        line.prefetched = false;  // consume the re-trigger signal
        result.hit_on_prefetched = true;
      }
      return result;
    }
  }

  // Miss: allocate (write-allocate for both reads and writes).
  if (is_write)
    ++stats_.write_misses;
  else
    ++stats_.read_misses;

  const std::uint32_t victim = choose_victim(set);
  Line& line = set_lines[victim];
  AccessResult result;
  if (line.valid) {
    ++stats_.evictions;
    if (line.dirty) {
      ++stats_.writebacks;
      result.writeback = true;
      result.writeback_addr = line.tag << line_shift_;
    }
  }
  line.valid = true;
  line.tag = tag;
  line.dirty = is_write && config_.write_back;
  line.prefetched = false;
  touch(set, victim);
  return result;
}

Cache::AccessResult Cache::fill(Addr addr) {
  const std::uint64_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  Line* set_lines = &lines_[set * config_.assoc];

  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    if (set_lines[w].valid && set_lines[w].tag == tag)
      return AccessResult{.hit = true};  // already resident: nothing to do
  }

  ++stats_.prefetch_fills;
  const std::uint32_t victim = choose_victim(set);
  Line& line = set_lines[victim];
  AccessResult result;
  if (line.valid) {
    ++stats_.evictions;
    if (line.dirty) {
      ++stats_.writebacks;
      result.writeback = true;
      result.writeback_addr = line.tag << line_shift_;
    }
  }
  line.valid = true;
  line.tag = tag;
  line.dirty = false;
  line.prefetched = true;
  touch(set, victim);
  return result;
}

bool Cache::contains(Addr addr) const {
  const std::uint64_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  const Line* set_lines = &lines_[set * config_.assoc];
  for (std::uint32_t w = 0; w < config_.assoc; ++w)
    if (set_lines[w].valid && set_lines[w].tag == tag) return true;
  return false;
}

void Cache::flush() {
  for (auto& line : lines_) line = Line{};
  plru_bits_.assign(plru_bits_.size(), 0);
  stamp_ = 0;
}

Cache::State Cache::export_state() const {
  State s;
  s.lines = lines_;
  s.plru_bits = plru_bits_;
  s.stamp = stamp_;
  s.victim_prng = victim_prng_.state();
  s.stats = stats_;
  return s;
}

void Cache::import_state(const State& s) {
  assert(s.lines.size() == lines_.size() &&
         s.plru_bits.size() == plru_bits_.size() &&
         "checkpoint was captured under a different CacheConfig");
  lines_ = s.lines;
  plru_bits_ = s.plru_bits;
  stamp_ = s.stamp;
  victim_prng_.set_state(s.victim_prng);
  stats_ = s.stats;
}

}  // namespace mapg

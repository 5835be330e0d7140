#include "mem/hierarchy.h"

#include <cassert>

namespace mapg {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config)
    : config_(config),
      l1_(config.l1d),
      owned_l2_(std::make_unique<Cache>(config.l2)),
      owned_dram_(std::make_unique<Dram>(config.dram)),
      l2_(owned_l2_.get()),
      dram_(owned_dram_.get()),
      prefetcher_(config.prefetch) {
  assert(config_.valid() && "invalid hierarchy configuration");
}

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config, Cache& shared_l2,
                                 Dram& shared_dram)
    : config_(config),
      l1_(config.l1d),
      l2_(&shared_l2),
      dram_(&shared_dram),
      prefetcher_(config.prefetch) {
  assert(config_.valid() && "invalid hierarchy configuration");
  assert(shared_l2.config().line_bytes == config.l1d.line_bytes &&
         "shared L2 line size must match the private L1");
}

void MemoryHierarchy::prune_inflight(Cycle now) {
  // Erase fills whose data has already returned.
  std::erase_if(inflight_,
                [now](const auto& e) { return e.second.complete <= now; });
}

void MemoryHierarchy::handle_l1_writeback(Addr line_addr, Cycle now) {
  // Inclusive-style assumption: the victim usually hits in L2.  If it does
  // not (it was evicted from L2 first), the write allocates in L2 and any
  // dirty L2 victim streams to DRAM as a fire-and-forget write.
  const Cache::AccessResult l2_res = l2_->access(line_addr, /*is_write=*/true);
  if (l2_res.writeback) {
    const Cycle t_req = now + config_.l1d.hit_latency + config_.l2.hit_latency +
                        config_.mc_request_latency;
    dram_->access(l2_res.writeback_addr, /*is_write=*/true, t_req);
  }
}

void MemoryHierarchy::run_prefetcher(Addr miss_line, Cycle t_req) {
  prefetch_scratch_.clear();
  prefetcher_.observe(miss_line, config_.l2.line_bytes,
                      prefetch_scratch_);
  for (Addr target : prefetch_scratch_) {
    if (l2_->contains(target) || find_inflight(target) != nullptr) continue;
    const DramResult dres = dram_->access(target, /*is_write=*/false, t_req);
    const Cache::AccessResult fill_res = l2_->fill(target);
    if (fill_res.writeback)
      dram_->access(fill_res.writeback_addr, /*is_write=*/true, t_req);
    ++stats_.prefetch_issued;

    MemAccessResult entry;
    entry.complete = dres.completion + config_.fill_return_latency;
    entry.commit = dres.commit;
    entry.estimate = dres.estimate + config_.fill_return_latency;
    entry.served_by = ServedBy::kDram;
    entry.prefetched = true;
    inflight_.emplace_back(target, entry);
  }
}

MemAccessResult MemoryHierarchy::access(Addr addr, bool is_write, Cycle now) {
  const Addr line = l1_.line_addr(addr);
  prune_inflight(now);

  // MSHR merge: a second access to a line whose fill is outstanding waits on
  // the same fill instead of re-missing (the line was already allocated).
  if (const MemAccessResult* fill = find_inflight(line)) {
    MemAccessResult merged = *fill;
    merged.merged = true;
    ++stats_.merged;
    if (merged.prefetched) ++stats_.prefetch_merges;
    return merged;
  }

  const Cache::AccessResult l1_res = l1_.access(line, is_write);
  if (l1_res.writeback) handle_l1_writeback(l1_res.writeback_addr, now);
  if (l1_res.hit) {
    MemAccessResult res;
    res.complete = now + config_.l1d.hit_latency;
    res.commit = now;
    res.estimate = res.complete;
    res.served_by = ServedBy::kL1;
    return res;
  }

  const Cycle l2_probe = now + config_.l1d.hit_latency;
  const Cache::AccessResult l2_res = l2_->access(line, /*is_write=*/false);
  if (l2_res.hit) {
    // First demand touch of a prefetched line keeps the stream running
    // ahead even when prefetching has eliminated the misses entirely.
    if (l2_res.hit_on_prefetched) {
      run_prefetcher(line, l2_probe + config_.l2.hit_latency +
                               config_.mc_request_latency);
    }
    MemAccessResult res;
    res.complete = l2_probe + config_.l2.hit_latency;
    res.commit = now;
    res.estimate = res.complete;
    res.served_by = ServedBy::kL2;
    return res;
  }

  // L2 miss: demand fill from DRAM, then retire the L2 victim writeback
  // (demand reads are prioritized over victim writes, as in a real MC).
  const Cycle t_req = l2_probe + config_.l2.hit_latency +
                      config_.mc_request_latency;
  const DramResult dres = dram_->access(line, /*is_write=*/false, t_req);
  if (l2_res.writeback)
    dram_->access(l2_res.writeback_addr, /*is_write=*/true, t_req);

  MemAccessResult res;
  res.complete = dres.completion + config_.fill_return_latency;
  res.commit = dres.commit;
  res.estimate = dres.estimate + config_.fill_return_latency;
  res.served_by = ServedBy::kDram;
  ++stats_.dram_fills;
  inflight_.emplace_back(line, res);
  run_prefetcher(line, t_req);
  return res;
}

MemAccessResult MemoryHierarchy::load(Addr addr, Cycle now) {
  ++stats_.loads;
  MemAccessResult res = access(addr, /*is_write=*/false, now);
  switch (res.served_by) {
    case ServedBy::kL1:
      ++stats_.served_l1;
      break;
    case ServedBy::kL2:
      ++stats_.served_l2;
      break;
    case ServedBy::kDram:
      ++stats_.served_dram;
      break;
  }
  return res;
}

MemAccessResult MemoryHierarchy::store(Addr addr, Cycle now) {
  ++stats_.stores;
  return access(addr, /*is_write=*/true, now);
}

}  // namespace mapg

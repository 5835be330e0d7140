// Unit tests for the set-associative cache model: geometry checks, hit/miss
// behaviour, replacement policies, write-back semantics, and statistics.
#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.h"

namespace mapg {
namespace {

CacheConfig small_cache(ReplPolicy repl = ReplPolicy::kLru) {
  // 4 sets x 2 ways x 64B = 512B: tiny enough to force evictions easily.
  return CacheConfig{.name = "test",
                     .size_bytes = 512,
                     .assoc = 2,
                     .line_bytes = 64,
                     .hit_latency = 3,
                     .repl = repl};
}

/// Address that maps to `set` with a distinguishing `tag`.
Addr make_addr(std::uint64_t set, std::uint64_t tag, std::uint64_t sets = 4,
               std::uint64_t line = 64) {
  return (tag * sets + set) * line;
}

TEST(CacheConfig, ValidityChecks) {
  EXPECT_TRUE(small_cache().valid());
  CacheConfig c = small_cache();
  c.line_bytes = 48;  // not a power of two
  EXPECT_FALSE(c.valid());
  c = small_cache();
  c.assoc = 0;
  EXPECT_FALSE(c.valid());
  c = small_cache();
  c.size_bytes = 500;  // not divisible
  EXPECT_FALSE(c.valid());
  c = small_cache();
  c.assoc = 3;
  c.size_bytes = 576;  // 3 sets: not a power of two
  EXPECT_FALSE(c.valid());
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0, false).hit);
  EXPECT_TRUE(c.access(0, false).hit);
  EXPECT_TRUE(c.access(63, false).hit);   // same line
  EXPECT_FALSE(c.access(64, false).hit);  // next line
  EXPECT_EQ(c.stats().read_hits, 2u);
  EXPECT_EQ(c.stats().read_misses, 2u);
}

TEST(Cache, LineAddrMasksOffset) {
  Cache c(small_cache());
  EXPECT_EQ(c.line_addr(0), 0u);
  EXPECT_EQ(c.line_addr(63), 0u);
  EXPECT_EQ(c.line_addr(64), 64u);
  EXPECT_EQ(c.line_addr(130), 128u);
}

TEST(Cache, SetConflictEvictsLru) {
  Cache c(small_cache());
  const Addr a = make_addr(1, 0), b = make_addr(1, 1), d = make_addr(1, 2);
  c.access(a, false);
  c.access(b, false);
  c.access(a, false);          // a is now MRU
  c.access(d, false);          // evicts b (LRU)
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, OtherSetsUnaffectedByEviction) {
  Cache c(small_cache());
  const Addr other = make_addr(2, 0);
  c.access(other, false);
  for (std::uint64_t t = 0; t < 8; ++t) c.access(make_addr(1, t), false);
  EXPECT_TRUE(c.contains(other));
}

TEST(Cache, WritebackOnlyForDirtyVictims) {
  Cache c(small_cache());
  const Addr a = make_addr(0, 0), b = make_addr(0, 1), d = make_addr(0, 2),
             e = make_addr(0, 3);
  c.access(a, true);   // dirty
  c.access(b, false);  // clean
  auto r1 = c.access(d, false);  // evicts a (dirty)
  EXPECT_TRUE(r1.writeback);
  EXPECT_EQ(r1.writeback_addr, a);
  auto r2 = c.access(e, false);  // evicts b (clean)
  EXPECT_FALSE(r2.writeback);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(small_cache());
  const Addr a = make_addr(0, 0);
  c.access(a, false);  // clean fill
  c.access(a, true);   // write hit -> dirty
  c.access(make_addr(0, 1), false);
  auto r = c.access(make_addr(0, 2), false);  // evicts a
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.writeback_addr, a);
}

TEST(Cache, WriteThroughNeverDirty) {
  CacheConfig cfg = small_cache();
  cfg.write_back = false;
  Cache c(cfg);
  const Addr a = make_addr(0, 0);
  c.access(a, true);
  c.access(make_addr(0, 1), true);
  auto r = c.access(make_addr(0, 2), true);
  EXPECT_FALSE(r.writeback);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, ContainsDoesNotPerturbLru) {
  Cache c(small_cache());
  const Addr a = make_addr(1, 0), b = make_addr(1, 1);
  c.access(a, false);
  c.access(b, false);  // LRU order: a then b
  (void)c.contains(a);  // must NOT refresh a
  c.access(make_addr(1, 2), false);  // evicts a
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
}

TEST(Cache, FlushEmptiesEverything) {
  Cache c(small_cache());
  for (std::uint64_t t = 0; t < 4; ++t) c.access(make_addr(0, t), true);
  c.flush();
  for (std::uint64_t t = 0; t < 4; ++t) EXPECT_FALSE(c.contains(make_addr(0, t)));
  // Re-filling after flush must not produce writebacks from stale lines.
  auto r = c.access(make_addr(0, 9), false);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, TreePlruVictimIsNotMru) {
  CacheConfig cfg = small_cache(ReplPolicy::kTreePlru);
  cfg.size_bytes = 2048;  // 4 sets x 8 ways
  cfg.assoc = 8;
  Cache c(cfg);
  // Fill set 0 with 8 tags, touching each once.
  for (std::uint64_t t = 0; t < 8; ++t) c.access(make_addr(0, t), false);
  // Touch tag 3 (MRU), then force one eviction.
  c.access(make_addr(0, 3), false);
  c.access(make_addr(0, 99), false);
  EXPECT_TRUE(c.contains(make_addr(0, 3)));  // MRU must survive
}

TEST(Cache, TreePlruHitRateComparableToLruOnLoopingPattern) {
  CacheConfig lru_cfg = small_cache(ReplPolicy::kLru);
  CacheConfig plru_cfg = small_cache(ReplPolicy::kTreePlru);
  lru_cfg.size_bytes = plru_cfg.size_bytes = 4096;  // 8 sets x 8 ways
  lru_cfg.assoc = plru_cfg.assoc = 8;
  Cache lru(lru_cfg), plru(plru_cfg);
  // Working set that fits: both should converge to ~100% hits.
  std::vector<Addr> lines;
  for (std::uint64_t i = 0; i < 48; ++i) lines.push_back(i * 64);
  for (int rep = 0; rep < 50; ++rep)
    for (Addr a : lines) {
      lru.access(a, false);
      plru.access(a, false);
    }
  EXPECT_GT(lru.stats().read_hits, 2200u);
  EXPECT_GT(plru.stats().read_hits, 2200u);
}

TEST(Cache, RandomPolicyStaysWithinSet) {
  Cache c(small_cache(ReplPolicy::kRandom));
  const Addr resident = make_addr(3, 0);
  c.access(resident, false);
  // Hammer a different set; the resident line in set 3 must never be chosen.
  for (std::uint64_t t = 0; t < 64; ++t) c.access(make_addr(2, t), false);
  EXPECT_TRUE(c.contains(resident));
}

TEST(Cache, StatsMissRate) {
  Cache c(small_cache());
  c.access(0, false);   // miss
  c.access(0, false);   // hit
  c.access(0, true);    // write hit
  c.access(4096, true); // write miss
  const CacheStats& s = c.stats();
  EXPECT_EQ(s.accesses(), 4u);
  EXPECT_EQ(s.misses(), 2u);
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.5);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses(), 0u);
}

TEST(Cache, LargeRealisticGeometry) {
  // The default L2: 1 MiB, 16-way — sanity-check geometry math.
  CacheConfig cfg{.name = "L2",
                  .size_bytes = 1024 * 1024,
                  .assoc = 16,
                  .line_bytes = 64,
                  .hit_latency = 12};
  ASSERT_TRUE(cfg.valid());
  EXPECT_EQ(cfg.num_sets(), 1024u);
  Cache c(cfg);
  // A strided sweep twice the cache size must thrash; the second pass over
  // the first half can't hit (LRU with a cyclic pattern evicts just-needed).
  const std::uint64_t lines = 2 * 1024 * 1024 / 64;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  for (std::uint64_t i = 0; i < lines / 2; ++i) c.access(i * 64, false);
  EXPECT_EQ(c.stats().read_hits, 0u);
}

}  // namespace
}  // namespace mapg

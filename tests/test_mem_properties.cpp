// Parameterized property tests over cache geometries and DRAM
// configurations: structural invariants that must hold for every shape.
#include <gtest/gtest.h>

#include <tuple>

#include "common/prng.h"
#include "core/sim.h"
#include "mem/cache.h"
#include "mem/dram.h"

namespace mapg {
namespace {

// ---------------------------------------------------------------------------
// Cache geometry sweep.
// ---------------------------------------------------------------------------
class CacheGeometry
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t /*size*/, std::uint32_t /*assoc*/,
                     ReplPolicy>> {};

TEST_P(CacheGeometry, ResidentWorkingSetAlwaysHitsAfterWarmup) {
  const auto& [size, assoc, repl] = GetParam();
  Cache c(CacheConfig{.name = "t",
                      .size_bytes = size,
                      .assoc = assoc,
                      .line_bytes = 64,
                      .hit_latency = 1,
                      .repl = repl});
  // A working set of half the capacity, touched repeatedly: after warmup,
  // every policy must keep it resident (it fits with room to spare).
  const std::uint64_t lines = size / 64 / 2;
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  c.reset_stats();
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64, false);
  EXPECT_EQ(c.stats().misses(), 0u);
}

TEST_P(CacheGeometry, EvictionAccountingInvariants) {
  const auto& [size, assoc, repl] = GetParam();
  Cache c(CacheConfig{.name = "t",
                      .size_bytes = size,
                      .assoc = assoc,
                      .line_bytes = 64,
                      .hit_latency = 1,
                      .repl = repl});
  Prng prng(assoc * 1000 + static_cast<int>(repl));
  const std::uint64_t capacity_lines = size / 64;
  for (int i = 0; i < 20000; ++i) {
    const Addr a = prng.below(capacity_lines * 8) * 64;
    c.access(a, prng.bernoulli(0.3));
  }
  const CacheStats& s = c.stats();
  // Every eviction replaced a previously-missed line.
  EXPECT_LE(s.evictions, s.misses());
  // Evictions account for all misses beyond the capacity.
  EXPECT_GE(s.evictions + capacity_lines, s.misses());
  // Writebacks only from dirty (written) lines.
  EXPECT_LE(s.writebacks, s.evictions);
}

TEST_P(CacheGeometry, ContainsAgreesWithHits) {
  const auto& [size, assoc, repl] = GetParam();
  Cache c(CacheConfig{.name = "t",
                      .size_bytes = size,
                      .assoc = assoc,
                      .line_bytes = 64,
                      .hit_latency = 1,
                      .repl = repl});
  Prng prng(7);
  for (int i = 0; i < 5000; ++i) {
    const Addr a = prng.below(size / 8) * 64;  // 8x capacity
    const bool resident = c.contains(a);
    const bool hit = c.access(a, false).hit;
    EXPECT_EQ(resident, hit);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(4096u, 32768u, 262144u),
                       ::testing::Values(1u, 2u, 8u, 16u),
                       ::testing::Values(ReplPolicy::kLru,
                                         ReplPolicy::kTreePlru,
                                         ReplPolicy::kRandom)),
    [](const auto& info) {
      const auto repl = std::get<2>(info.param);
      const char* r = repl == ReplPolicy::kLru
                          ? "lru"
                          : (repl == ReplPolicy::kTreePlru ? "plru" : "rand");
      return std::to_string(std::get<0>(info.param) / 1024) + "k_w" +
             std::to_string(std::get<1>(info.param)) + "_" + r;
    });

// ---------------------------------------------------------------------------
// DRAM configuration sweep.
// ---------------------------------------------------------------------------
class DramShape : public ::testing::TestWithParam<
                      std::tuple<std::uint32_t /*channels*/,
                                 std::uint32_t /*banks*/>> {};

TEST_P(DramShape, LatencyBoundsAndInformationContract) {
  const auto& [channels, banks] = GetParam();
  DramConfig cfg;
  cfg.channels = channels;
  cfg.banks_per_channel = banks;
  SimConfig platform;
  platform.mem.dram = cfg;
  ASSERT_NO_THROW(check_platform(platform));
  Dram d(cfg);
  Prng prng(channels * 100 + banks);
  Cycle t = 1000;
  for (int i = 0; i < 5000; ++i) {
    const Addr line = prng.below(1 << 22) * cfg.line_bytes;
    const DramResult r = d.access(line, prng.bernoulli(0.3), t);
    // Lower bound: nothing completes faster than CAS + burst.
    EXPECT_GE(r.completion, t + cfg.t_cl + cfg.t_bl);
    // The contract MAPG builds on: data returns exactly tCL+tBL after the
    // column command commits, never earlier or later.
    EXPECT_EQ(r.completion, r.commit + cfg.t_cl + cfg.t_bl);
    EXPECT_GE(r.commit, t);
    EXPECT_EQ(r.estimate, t + cfg.estimate_latency());
    t += prng.below(40);
  }
  // The whole run is classified: every access got a row-buffer outcome.
  const DramStats& s = d.stats();
  EXPECT_EQ(s.row_hits + s.row_closed + s.row_conflicts,
            s.reads + s.writes);
}

TEST_P(DramShape, SequentialStreamMostlyRowHits) {
  const auto& [channels, banks] = GetParam();
  DramConfig cfg;
  cfg.channels = channels;
  cfg.banks_per_channel = banks;
  Dram d(cfg);
  Cycle t = 1000;
  for (int i = 0; i < 2000; ++i) {
    d.access(static_cast<Addr>(i) * cfg.line_bytes, false, t);
    t += 60;
  }
  EXPECT_GT(d.stats().row_hit_rate(), 0.9);
}

TEST_P(DramShape, MoreBanksReduceConflicts) {
  const auto& [channels, banks] = GetParam();
  if (banks < 4) GTEST_SKIP() << "comparison needs a smaller sibling";
  DramConfig big;
  big.channels = channels;
  big.banks_per_channel = banks;
  DramConfig small = big;
  small.banks_per_channel = banks / 4;

  auto conflicts = [](const DramConfig& cfg) {
    Dram d(cfg);
    Prng prng(99);
    Cycle t = 1000;
    for (int i = 0; i < 10000; ++i) {
      d.access(prng.below(1 << 20) * cfg.line_bytes, false, t);
      t += 30;
    }
    return d.stats().row_conflicts;
  };
  EXPECT_LT(conflicts(big), conflicts(small));
}

INSTANTIATE_TEST_SUITE_P(Shapes, DramShape,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u),
                                            ::testing::Values(4u, 8u, 16u)),
                         [](const auto& info) {
                           return "ch" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_b" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace mapg

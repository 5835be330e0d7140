// Unit + integration tests for the history-based adaptive MAPG variant.
#include <gtest/gtest.h>

#include "core/sim.h"
#include "exec/runner.h"
#include "pg/adaptive.h"
#include "pg/factory.h"

namespace mapg {
namespace {

PolicyContext ctx() {
  return PolicyContext{.entry_latency = 6, .wakeup_latency = 30,
                       .break_even = 47};
}

StallEvent dram_stall(Cycle start, Cycle len) {
  StallEvent ev;
  ev.start = start;
  ev.data_ready = start + len;
  ev.commit = start + len / 2;
  ev.estimate = ev.data_ready;
  ev.dram = true;
  return ev;
}

TEST(HistoryMapg, StartsOptimistic) {
  HistoryMapgPolicy p(ctx(), {});
  EXPECT_DOUBLE_EQ(p.prediction(), 200.0);
  EXPECT_TRUE(p.should_gate(dram_stall(100, 5)));  // prediction, not truth
}

TEST(HistoryMapg, LearnsShortStallsAndStopsGating) {
  HistoryMapgPolicy p(ctx(), {.ewma_weight = 0.5});
  // Feed a run of 20-cycle stalls; the prediction must converge below the
  // 83-cycle threshold and gating must stop.
  for (int i = 0; i < 20; ++i) p.observe(dram_stall(1000 * i, 20));
  EXPECT_LT(p.prediction(), 25.0);
  EXPECT_FALSE(p.should_gate(dram_stall(99999, 500)));
}

TEST(HistoryMapg, RelearnsLongStalls) {
  HistoryMapgPolicy p(ctx(), {.ewma_weight = 0.5});
  for (int i = 0; i < 20; ++i) p.observe(dram_stall(1000 * i, 20));
  ASSERT_FALSE(p.should_gate(dram_stall(0, 500)));
  for (int i = 0; i < 20; ++i) p.observe(dram_stall(50000 + 1000 * i, 300));
  EXPECT_GT(p.prediction(), 250.0);
  EXPECT_TRUE(p.should_gate(dram_stall(999999, 10)));
}

TEST(HistoryMapg, IgnoresNonDramStalls) {
  HistoryMapgPolicy p(ctx(), {.ewma_weight = 0.5});
  StallEvent l2 = dram_stall(100, 2);
  l2.dram = false;
  for (int i = 0; i < 50; ++i) p.observe(l2);
  EXPECT_DOUBLE_EQ(p.prediction(), 200.0);  // unchanged
  EXPECT_FALSE(p.should_gate(l2));          // and never gates non-DRAM
}

TEST(HistoryMapg, EwmaUpdateIsExact) {
  HistoryMapgPolicy p(ctx(), {.ewma_weight = 0.125});
  p.observe(dram_stall(0, 100));
  EXPECT_DOUBLE_EQ(p.prediction(), 200.0 + 0.125 * (100.0 - 200.0));
}

TEST(HistoryMapg, FactoryBuildsWithParameters) {
  auto p = make_policy("mapg-history", ctx());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "mapg-history");
  EXPECT_EQ(p->wake_mode(), WakeMode::kEarly);

  auto tuned = make_policy("mapg-history:ewma=0.5", ctx());
  ASSERT_NE(tuned, nullptr);
  auto* h = dynamic_cast<HistoryMapgPolicy*>(tuned.get());
  ASSERT_NE(h, nullptr);
  h->observe(dram_stall(0, 100));
  EXPECT_DOUBLE_EQ(h->prediction(), 150.0);
}

TEST(HybridMapg, RequiresBothSignalsToAgree) {
  HybridMapgPolicy p(ctx(), {.ewma_weight = 0.5});
  // Fresh policy: optimistic history (200) + long estimate -> gates.
  EXPECT_TRUE(p.should_gate(dram_stall(100, 300)));
  // History learns short stalls: its veto now blocks a long ESTIMATE.
  for (int i = 0; i < 20; ++i) p.observe(dram_stall(1000 * i, 20));
  EXPECT_FALSE(p.should_gate(dram_stall(99999, 300)));
  // Relearn long stalls; now a short estimate is the blocking veto.
  for (int i = 0; i < 20; ++i) p.observe(dram_stall(50000 + 1000 * i, 300));
  StallEvent short_est = dram_stall(999999, 300);
  short_est.commit = short_est.start + 150;  // not committed at onset...
  short_est.estimate = short_est.start + 40;  // ...and the estimate is short
  EXPECT_FALSE(p.should_gate(short_est));
  // Both long: gates.
  EXPECT_TRUE(p.should_gate(dram_stall(999999, 300)));
}

TEST(HybridMapg, FactoryAndNaming) {
  auto p = make_policy("mapg-hybrid", ctx());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "mapg-hybrid");
  EXPECT_EQ(p->wake_mode(), WakeMode::kEarly);
  bool found = false;
  for (const auto& s : ablation_policy_specs()) found |= s == "mapg-hybrid";
  EXPECT_TRUE(found);
}

TEST(HybridMapg, EndToEndFewestUnprofitableEvents) {
  // On a stationary memory-bound workload all three agree; the hybrid must
  // never gate MORE unprofitable events than either constituent.
  SimConfig cfg;
  cfg.instructions = 200'000;
  cfg.warmup_instructions = 50'000;
  cfg.pg.overhead_scale = 2.0;  // put the horizon inside the distribution
  const Simulator sim(cfg);
  const WorkloadProfile* p = find_profile("libquantum-like");
  const SimResult base = sim.run(*p, "none");
  const Comparison est = score_against(base, sim.run(*p, "mapg"));
  const Comparison hist = score_against(base, sim.run(*p, "mapg-history"));
  const Comparison hyb = score_against(base, sim.run(*p, "mapg-hybrid"));
  EXPECT_LE(hyb.result.gating.unprofitable_events,
            est.result.gating.unprofitable_events);
  EXPECT_LE(hyb.result.gating.unprofitable_events,
            hist.result.gating.unprofitable_events);
  EXPECT_LT(hyb.runtime_overhead, 0.01);
}

TEST(HistoryMapg, EndToEndTracksPlainMapgOnMemoryBound) {
  SimConfig cfg;
  cfg.instructions = 300'000;
  cfg.warmup_instructions = 100'000;
  const Simulator sim(cfg);
  const WorkloadProfile* p = find_profile("mcf-like");
  const SimResult base = sim.run(*p, "none");
  const Comparison plain = score_against(base, sim.run(*p, "mapg"));
  const Comparison history =
      score_against(base, sim.run(*p, "mapg-history"));
  // mcf's stalls are uniformly long, so history prediction stays above the
  // threshold: savings within 10% of estimate-driven MAPG.
  EXPECT_GT(history.core_energy_savings, 0.9 * plain.core_energy_savings);
  EXPECT_LT(history.runtime_overhead, 0.01);
}

TEST(HistoryMapg, EndToEndStaysQuietOnComputeBound) {
  SimConfig cfg;
  cfg.instructions = 300'000;
  cfg.warmup_instructions = 100'000;
  const Simulator sim(cfg);
  const WorkloadProfile* p = find_profile("povray-like");
  const Comparison c =
      score_against(sim.run(*p, "none"), sim.run(*p, "mapg-history"));
  EXPECT_GE(c.core_energy_savings, -0.01);
  EXPECT_LT(c.runtime_overhead, 0.01);
}

}  // namespace
}  // namespace mapg

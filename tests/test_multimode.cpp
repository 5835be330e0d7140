// Tests for multi-mode (light/deep) MAPG: the mode-selection rule, the
// controller's per-mode timing/accounting, and end-to-end behaviour across
// memory speeds.
#include <gtest/gtest.h>

#include "core/sim.h"
#include "exec/runner.h"
#include "pg/factory.h"
#include "pg/multimode.h"
#include "pg/pg_controller.h"

namespace mapg {
namespace {

PolicyContext ctx() {
  // Defaults of the repository circuit: deep {entry 6, wake 30, BET 47},
  // light {wake 12, BET 40 (3.5 nJ at 0.55 x 0.475 W)}, save frac 0.55.
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  return PgController::make_context(pg);
}

StallEvent dram_stall(Cycle start, Cycle len) {
  StallEvent ev;
  ev.start = start;
  ev.data_ready = start + len;
  ev.commit = start;  // exact residual known at onset
  ev.estimate = ev.data_ready;
  ev.dram = true;
  return ev;
}

TEST(MultiMode, ContextCarriesLightModeFacts) {
  const PolicyContext c = ctx();
  EXPECT_GT(c.light_wakeup_latency, 0u);
  EXPECT_LT(c.light_wakeup_latency, c.wakeup_latency);
  EXPECT_GT(c.light_break_even, 0u);
  EXPECT_LT(c.light_break_even, c.break_even);
  EXPECT_NEAR(c.light_save_frac, 0.55, 1e-12);
}

TEST(MultiMode, NetFormulaMatchesHandAnalysis) {
  MultiModeMapgPolicy p(ctx());
  // Deep: net = (r - 6 - 30) - 47 in deep-rate units.
  EXPECT_NEAR(p.expected_net(183, SleepMode::kDeep), 100.0, 1e-9);
  // Very short stall: gated clamps to 0, pure BET loss.
  EXPECT_NEAR(p.expected_net(10, SleepMode::kDeep), -47.0, 1e-9);
  // Light: net = 0.55 * ((r - 6 - 12) - BET_light).
  const PolicyContext c = ctx();
  const double exp_light =
      0.55 * (183.0 - 18.0 - static_cast<double>(c.light_break_even));
  EXPECT_NEAR(p.expected_net(183, SleepMode::kLight), exp_light, 1e-9);
}

TEST(MultiMode, PicksNothingLightDeepByResidual) {
  MultiModeMapgPolicy p(ctx());
  const PolicyContext c = ctx();
  // Below the light horizon: no gating at all.
  StallEvent tiny = dram_stall(1000, c.light_break_even / 2);
  EXPECT_FALSE(p.should_gate(tiny));

  // Mid-band: light must beat deep.  Find the crossover numerically and
  // probe one point on each side.
  Cycle mid = 0, long_stall = 0;
  for (Cycle r = 1; r < 2000; ++r) {
    const double nd = p.expected_net(r, SleepMode::kDeep);
    const double nl = p.expected_net(r, SleepMode::kLight);
    if (mid == 0 && nl > 0 && nl > nd) mid = r;
    if (long_stall == 0 && nd > 0 && nd > nl) long_stall = r;
  }
  ASSERT_GT(mid, 0u);         // a light-wins band exists
  ASSERT_GT(long_stall, mid);  // and deep wins beyond it

  EXPECT_TRUE(p.should_gate(dram_stall(1000, mid)));
  EXPECT_EQ(p.sleep_mode(dram_stall(1000, mid)), SleepMode::kLight);
  EXPECT_TRUE(p.should_gate(dram_stall(1000, long_stall)));
  EXPECT_EQ(p.sleep_mode(dram_stall(1000, long_stall)), SleepMode::kDeep);
}

TEST(MultiMode, NeverGatesNonDram) {
  MultiModeMapgPolicy p(ctx());
  StallEvent l2 = dram_stall(1000, 500);
  l2.dram = false;
  EXPECT_FALSE(p.should_gate(l2));
}

TEST(MultiMode, ControllerUsesLightTiming) {
  TechParams tech;
  const PgCircuit circuit(PgCircuitConfig{}, tech);
  MultiModeMapgPolicy policy(PgController::make_context(circuit));
  PgController c(policy, circuit);

  // A mid-band stall: gated in light mode with the light wakeup latency.
  const PolicyContext pc = PgController::make_context(circuit);
  const Cycle mid_len = pc.entry_latency + pc.light_wakeup_latency +
                        pc.light_break_even + 10;
  ASSERT_EQ(policy.sleep_mode(dram_stall(1000, mid_len)), SleepMode::kLight);
  c.on_stall(dram_stall(1000, mid_len));
  const GatingActivity& a = c.activity();
  EXPECT_EQ(a.light_transitions, 1u);
  EXPECT_EQ(a.deep_transitions, 0u);
  EXPECT_EQ(a.wake_cycles, pc.light_wakeup_latency);
  EXPECT_GT(a.light_gated_cycles, 0u);

  // A long stall: deep this time.
  c.on_stall(dram_stall(100000, 400));
  EXPECT_EQ(c.activity().deep_transitions, 1u);
  EXPECT_EQ(c.activity().transitions, 2u);
  EXPECT_EQ(c.activity().light_gated_cycles +
                c.activity().deep_gated_cycles,
            c.activity().gated_cycles);
}

TEST(MultiMode, FactoryAndAblationListInclude) {
  auto p = make_policy("mapg-multimode", ctx());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "mapg-multimode");
  bool found = false;
  for (const auto& s : ablation_policy_specs()) found |= s == "mapg-multimode";
  EXPECT_TRUE(found);
}

TEST(MultiMode, EndToEndAtLeastAsGoodAsDeepOnlyWithFastMemory) {
  // Halve DRAM latencies: stalls shrink toward the deep-mode horizon, where
  // light sleep recovers energy deep-only MAPG must decline.
  SimConfig cfg;
  cfg.instructions = 300'000;
  cfg.warmup_instructions = 100'000;
  for (Cycle* t : {&cfg.mem.dram.t_rcd, &cfg.mem.dram.t_rp,
                   &cfg.mem.dram.t_cl, &cfg.mem.dram.t_ras})
    *t /= 2;
  const Simulator sim(cfg);
  const WorkloadProfile* p = find_profile("libquantum-like");
  const SimResult base = sim.run(*p, "none");
  const Comparison deep_only = score_against(base, sim.run(*p, "mapg"));
  const Comparison multimode =
      score_against(base, sim.run(*p, "mapg-multimode"));
  EXPECT_GE(multimode.core_energy_savings,
            deep_only.core_energy_savings - 1e-6);
  EXPECT_LT(multimode.runtime_overhead, 0.01);
}

TEST(MultiMode, EndToEndConvergesToMapgOnSlowMemory) {
  SimConfig cfg;
  cfg.instructions = 300'000;
  cfg.warmup_instructions = 100'000;
  const Simulator sim(cfg);
  const WorkloadProfile* p = find_profile("mcf-like");
  const SimResult base = sim.run(*p, "none");
  const Comparison deep_only = score_against(base, sim.run(*p, "mapg"));
  const Comparison multimode =
      score_against(base, sim.run(*p, "mapg-multimode"));
  // mcf stalls are uniformly far beyond the crossover: nearly every gating
  // lands in deep mode and the two policies agree within 2%.
  EXPECT_NEAR(multimode.core_energy_savings, deep_only.core_energy_savings,
              0.02);
  const auto& act = multimode.result.gating.activity;
  EXPECT_GT(act.deep_transitions, 10 * (act.light_transitions + 1));
}

}  // namespace
}  // namespace mapg

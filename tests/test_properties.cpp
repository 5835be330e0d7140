// Property-based tests (parameterized sweeps) over workloads, policies, and
// circuit parameters: invariants that must hold for EVERY configuration.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/sim.h"
#include "exec/runner.h"
#include "power/pg_circuit.h"

namespace mapg {
namespace {

SimConfig fast_config() {
  SimConfig cfg;
  cfg.instructions = 200'000;
  cfg.warmup_instructions = 50'000;
  return cfg;
}

// ---------------------------------------------------------------------------
// For every (workload, policy) pair: accounting invariants.
// ---------------------------------------------------------------------------
class WorkloadPolicyProps
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(WorkloadPolicyProps, AccountingInvariantsHold) {
  const auto& [workload, spec] = GetParam();
  const WorkloadProfile* p = find_profile(workload);
  ASSERT_NE(p, nullptr);
  const Simulator sim(fast_config());
  const Comparison c = score_against(sim.run(*p, "none"), sim.run(*p, spec));
  const SimResult& r = c.result;

  // Cycle conservation.
  EXPECT_EQ(r.core.busy_cycles() + r.core.idle_cycles(), r.core.cycles);
  // Exact: every idle cycle is in exactly one gating phase or explicitly
  // idle-ungated (waiting out a gate timeout, or a skipped/missed stall).
  const GatingActivity& a = r.gating.activity;
  EXPECT_EQ(a.gated_cycles + a.entry_cycles + a.wake_cycles +
                r.gating.idle_ungated_cycles,
            r.core.idle_cycles());

  // Penalty agreement between the core and the controller.
  EXPECT_EQ(r.core.penalty_cycles, r.gating.penalty_cycles);

  // Event accounting: every eligible stall is classified exactly once.
  EXPECT_EQ(r.gating.eligible_stalls,
            r.gating.gated_events + r.gating.skipped_events +
                r.gating.timeout_missed);
  EXPECT_EQ(r.gating.eligible_stalls,
            r.core.stalls_dram + r.core.stalls_other);
  EXPECT_EQ(a.transitions, r.gating.gated_events);

  // Energy composition: total equals the sum of its parts; all parts
  // non-negative; leakage saved never exceeds the baseline leakage.
  const EnergyBreakdown& e = r.energy;
  EXPECT_NEAR(e.total_j(),
              e.dynamic_j + e.core_leak_j + e.ungated_leak_j +
                  e.idle_clock_j + e.pg_overhead_j + e.dram_j,
              1e-15);
  EXPECT_GT(e.dram_j, 0.0);
  EXPECT_GE(e.dynamic_j, 0.0);
  EXPECT_GE(e.core_leak_j, 0.0);
  EXPECT_GE(e.idle_clock_j, 0.0);
  EXPECT_GE(e.pg_overhead_j, 0.0);
  EXPECT_LE(e.core_leak_saved_j(), e.core_leak_baseline_j + 1e-15);

  // A policy can only slow execution down, never speed it up — up to the
  // DRAM alignment noise that warmup-phase gating introduces (shifted
  // request timing changes bank/refresh interleaving by a fraction of a
  // percent in either direction).
  EXPECT_GE(c.runtime_overhead, -0.005);

  // Gating requires idle time: gated fraction bounded by idle fraction.
  EXPECT_LE(static_cast<double>(a.gated_cycles),
            static_cast<double>(r.core.idle_cycles()) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllPolicies, WorkloadPolicyProps,
    ::testing::Combine(
        ::testing::Values("mcf-like", "libquantum-like", "gcc-like",
                          "gamess-like"),
        ::testing::Values("none", "idle-timeout:64", "oracle", "mapg",
                          "mapg-aggressive", "mapg-noearly",
                          "mapg-unfiltered", "mapg-history",
                          "mapg-multimode")),
    [](const auto& info) {
      std::string n = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : n)
        if (c == '-' || c == ':') c = '_';
      return n;
    });

// ---------------------------------------------------------------------------
// For every workload: ordering properties between policies.
// ---------------------------------------------------------------------------
class WorkloadProps : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadProps, OracleDominatesAndMapgTracksIt) {
  const WorkloadProfile* p = find_profile(GetParam());
  ASSERT_NE(p, nullptr);
  const Simulator sim(fast_config());
  const SimResult base = sim.run(*p, "none");
  const Comparison oracle = score_against(base, sim.run(*p, "oracle"));
  const Comparison mapg = score_against(base, sim.run(*p, "mapg"));

  // Oracle never loses energy and never loses time.
  EXPECT_GE(oracle.net_leakage_savings, -1e-12);
  EXPECT_NEAR(oracle.runtime_overhead, 0.0, 1e-12);
  // Oracle bounds MAPG's net leakage savings.
  EXPECT_GE(oracle.net_leakage_savings, mapg.net_leakage_savings - 1e-9);
  // MAPG stays within 1% runtime of the baseline on every workload.
  EXPECT_LT(mapg.runtime_overhead, 0.01);
}

TEST_P(WorkloadProps, EarlyWakeNeverWorseThanReactive) {
  const WorkloadProfile* p = find_profile(GetParam());
  ASSERT_NE(p, nullptr);
  const Simulator sim(fast_config());
  const SimResult base = sim.run(*p, "none");
  const Comparison early = score_against(base, sim.run(*p, "mapg"));
  const Comparison reactive =
      score_against(base, sim.run(*p, "mapg-noearly"));
  EXPECT_LE(early.runtime_overhead, reactive.runtime_overhead + 1e-12);
}

TEST_P(WorkloadProps, GatedTimeTracksMemoryBoundedness) {
  const WorkloadProfile* p = find_profile(GetParam());
  ASSERT_NE(p, nullptr);
  const Simulator sim(fast_config());
  const SimResult r = sim.run(*p, "mapg");
  const double stall_frac =
      static_cast<double>(r.core.stall_cycles_dram) /
      static_cast<double>(r.core.cycles);
  // Gated time can never exceed DRAM-stall time.
  EXPECT_LE(r.gated_time_fraction(), stall_frac + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadProps,
                         ::testing::Values("mcf-like", "lbm-like",
                                           "milc-like", "libquantum-like",
                                           "soplex-like", "omnetpp-like",
                                           "gcc-like", "astar-like",
                                           "bzip2-like", "hmmer-like",
                                           "gamess-like", "povray-like"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// ---------------------------------------------------------------------------
// PG circuit properties over stage counts.
// ---------------------------------------------------------------------------
class StageProps : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StageProps, StagingTradesLatencyForRushCurrent) {
  const std::uint32_t stages = GetParam();
  TechParams tech;
  PgCircuitConfig cfg;
  cfg.wakeup_stages = stages;
  const PgCircuit pg(cfg, tech);

  // More stages -> strictly lower peak rush current, higher wake latency.
  if (stages > 1) {
    PgCircuitConfig fewer = cfg;
    fewer.wakeup_stages = stages - 1;
    const PgCircuit pg_fewer(fewer, tech);
    EXPECT_LT(pg.rush_current_peak_a(), pg_fewer.rush_current_peak_a());
    EXPECT_GE(pg.wakeup_latency_cycles(), pg_fewer.wakeup_latency_cycles());
  }
  // Overhead energy is independent of staging (same total charge).
  const PgCircuit pg1(PgCircuitConfig{}, tech);
  EXPECT_DOUBLE_EQ(pg.overhead_energy_j(), pg1.overhead_energy_j());
  // min_stages_for_rush_limit is consistent with the forward model.
  const double imax = pg.rush_current_peak_a();
  EXPECT_LE(pg.min_stages_for_rush_limit(imax), stages);
}

INSTANTIATE_TEST_SUITE_P(Stages, StageProps,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u,
                                           24u, 32u));

// ---------------------------------------------------------------------------
// Overhead-energy scaling: BET grows, savings shrink monotonically-ish.
// ---------------------------------------------------------------------------
class OverheadScaleProps : public ::testing::TestWithParam<double> {};

TEST_P(OverheadScaleProps, BetGrowsWithOverheadAndMapgStaysSafe) {
  const double scale = GetParam();
  SimConfig cfg = fast_config();
  cfg.pg.overhead_scale = scale;
  const Simulator sim(cfg);
  const WorkloadProfile* p = find_profile("mcf-like");
  const SimResult none = sim.run(*p, "none");
  const Comparison mapg = score_against(none, sim.run(*p, "mapg"));
  const Comparison oracle = score_against(none, sim.run(*p, "oracle"));

  // Whatever the overhead, the threshold rule keeps MAPG's net savings
  // non-negative (it declines unprofitable stalls) and oracle-bounded.
  EXPECT_GE(mapg.net_leakage_savings, -0.001) << "scale=" << scale;
  EXPECT_GE(oracle.net_leakage_savings, mapg.net_leakage_savings - 1e-9);

  const PgCircuit pg(cfg.pg, cfg.tech);
  const PgCircuit base(PgCircuitConfig{}, cfg.tech);
  if (scale > 1.0) {
    EXPECT_GT(pg.break_even_cycles(), base.break_even_cycles());
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, OverheadScaleProps,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace mapg

// Integration tests: full Simulator runs and engine sweeps across the policy
// stack, checking determinism, cross-component accounting consistency, the
// baseline-relative scoring, and the public custom-trace/custom-policy API.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/sim.h"
#include "exec/engine.h"
#include "exec/runner.h"
#include "multicore/config_apply.h"
#include "trace/trace_file.h"

namespace mapg {
namespace {

SimConfig fast_config() {
  SimConfig cfg;
  cfg.instructions = 300'000;
  cfg.warmup_instructions = 100'000;
  return cfg;
}

TEST(Sim, DeterministicAcrossRuns) {
  const Simulator sim(fast_config());
  const WorkloadProfile* p = find_profile("mcf-like");
  ASSERT_NE(p, nullptr);
  const SimResult a = sim.run(*p, "mapg");
  const SimResult b = sim.run(*p, "mapg");
  EXPECT_EQ(a.core.cycles, b.core.cycles);
  EXPECT_EQ(a.gating.gated_events, b.gating.gated_events);
  EXPECT_DOUBLE_EQ(a.energy.total_j(), b.energy.total_j());
}

TEST(Sim, SeedChangesOutcomeSlightly) {
  SimConfig cfg = fast_config();
  const WorkloadProfile* p = find_profile("mcf-like");
  const SimResult a = Simulator(cfg).run(*p, "none");
  cfg.run_seed = 43;
  const SimResult b = Simulator(cfg).run(*p, "none");
  EXPECT_NE(a.core.cycles, b.core.cycles);      // different trace
  // But the workload character is stable: cycles within 5%.
  const double ratio = static_cast<double>(a.core.cycles) /
                       static_cast<double>(b.core.cycles);
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(Sim, NoGatingHasNoActivityAndConservesCycles) {
  const Simulator sim(fast_config());
  const SimResult r = sim.run(*find_profile("omnetpp-like"), "none");
  EXPECT_EQ(r.gating.gated_events, 0u);
  EXPECT_EQ(r.gating.activity.transitions, 0u);
  EXPECT_EQ(r.energy.pg_overhead_j, 0.0);
  EXPECT_EQ(r.core.penalty_cycles, 0u);
  EXPECT_EQ(r.core.busy_cycles() + r.core.idle_cycles(), r.core.cycles);
}

TEST(Sim, PenaltyAccountingConsistentAcrossLayers) {
  const Simulator sim(fast_config());
  for (const char* spec : {"mapg", "mapg-noearly", "idle-timeout:64",
                           "oracle", "mapg-aggressive"}) {
    const SimResult r = sim.run(*find_profile("libquantum-like"), spec);
    EXPECT_EQ(r.core.penalty_cycles, r.gating.penalty_cycles) << spec;
    const GatingActivity& a = r.gating.activity;
    EXPECT_LE(a.gated_cycles + a.entry_cycles + a.wake_cycles,
              r.core.idle_cycles())
        << spec;
  }
}

TEST(Sim, OracleIsPerformanceNeutral) {
  const Simulator sim(fast_config());
  const WorkloadProfile* p = find_profile("mcf-like");
  const SimResult none = sim.run(*p, "none");
  const SimResult oracle = sim.run(*p, "oracle");
  EXPECT_EQ(none.core.cycles, oracle.core.cycles);
  EXPECT_EQ(none.core.instrs, oracle.core.instrs);
}

TEST(Sim, MapgEarlyWakeNearPerformanceNeutral) {
  const Simulator sim(fast_config());
  const WorkloadProfile* p = find_profile("mcf-like");
  const SimResult none = sim.run(*p, "none");
  const SimResult mapg = sim.run(*p, "mapg");
  const double overhead = static_cast<double>(mapg.core.cycles) /
                              static_cast<double>(none.core.cycles) -
                          1.0;
  EXPECT_LT(overhead, 0.01);  // paper claim: wakeup hidden by the MC notice
  EXPECT_GE(overhead, -0.005);  // DRAM alignment noise (see test_properties)
}

TEST(Sim, DynamicEnergyIndependentOfPolicy) {
  const Simulator sim(fast_config());
  const WorkloadProfile* p = find_profile("soplex-like");
  const SimResult none = sim.run(*p, "none");
  const SimResult mapg = sim.run(*p, "mapg");
  // Same trace, same committed instructions: identical dynamic energy.
  EXPECT_DOUBLE_EQ(none.energy.dynamic_j, mapg.energy.dynamic_j);
}

TEST(Sim, MapgSavesEnergyOnMemoryBound) {
  const Simulator sim(fast_config());
  const WorkloadProfile* p = find_profile("mcf-like");
  const Comparison c = score_against(sim.run(*p, "none"), sim.run(*p, "mapg"));
  EXPECT_GT(c.core_energy_savings, 0.25);  // tens of percent
  EXPECT_GT(c.net_leakage_savings, 0.30);
  EXPECT_LT(c.runtime_overhead, 0.01);
  EXPECT_GT(c.result.gated_time_fraction(), 0.3);
}

TEST(Sim, MapgNearZeroOnComputeBound) {
  const Simulator sim(fast_config());
  const WorkloadProfile* p = find_profile("gamess-like");
  const Comparison c = score_against(sim.run(*p, "none"), sim.run(*p, "mapg"));
  EXPECT_LT(c.result.gated_time_fraction(), 0.05);
  EXPECT_GE(c.core_energy_savings, -0.01);  // never materially worse
  EXPECT_LT(c.runtime_overhead, 0.005);
}

TEST(Sim, OracleBoundsMapgSavings) {
  const Simulator sim(fast_config());
  for (const auto& profile : representative_profiles()) {
    const SimResult base = sim.run(profile, "none");
    const Comparison mapg = score_against(base, sim.run(profile, "mapg"));
    const Comparison oracle = score_against(base, sim.run(profile, "oracle"));
    // Oracle gates every profitable stall with perfect wake placement; a
    // tiny tolerance absorbs rounding in the scoring division.
    EXPECT_GE(oracle.net_leakage_savings,
              mapg.net_leakage_savings - 1e-9)
        << profile.name;
  }
}

TEST(Sim, IdleTimeoutFarBelowMapg) {
  const Simulator sim(fast_config());
  const WorkloadProfile* p = find_profile("mcf-like");
  const SimResult base = sim.run(*p, "none");
  const Comparison mapg = score_against(base, sim.run(*p, "mapg"));
  const Comparison timeout =
      score_against(base, sim.run(*p, "idle-timeout:64"));
  // The reconstructed baseline: the 64-cycle timeout truncates each gated
  // interval AND the reactive wakeup stretches runtime by ~wakeup_latency
  // per stall, which buys back leakage everywhere.  Its end-to-end (core
  // energy) savings must be far below MAPG's, at much higher overhead.
  EXPECT_LT(timeout.core_energy_savings, 0.6 * mapg.core_energy_savings);
  EXPECT_GT(timeout.runtime_overhead, mapg.runtime_overhead + 0.05);
}

TEST(Sim, ThrowsOnUnknownPolicy) {
  const Simulator sim(fast_config());
  EXPECT_THROW(sim.run(*find_profile("mcf-like"), "bogus"),
               std::invalid_argument);
}

TEST(Sim, PolicyContextExposedAndPropagated) {
  const Simulator sim(fast_config());
  const PolicyContext ctx = sim.policy_context();
  EXPECT_GT(ctx.wakeup_latency, 0u);
  const SimResult r = sim.run(*find_profile("gcc-like"), "mapg");
  EXPECT_EQ(r.ctx.wakeup_latency, ctx.wakeup_latency);
  EXPECT_EQ(r.ctx.break_even, ctx.break_even);
}

TEST(Sim, CustomTraceAndPolicyThroughPublicApi) {
  // A user-supplied policy: gate only on Tuesdays (never), via the public
  // run(TraceSource&, ..., PgPolicy&) overload.
  class NeverPolicy final : public PgPolicy {
   public:
    using PgPolicy::PgPolicy;
    std::string name() const override { return "never"; }
    bool should_gate(const StallEvent&) override { return false; }
    WakeMode wake_mode() const override { return WakeMode::kReactive; }
  };

  SimConfig cfg = fast_config();
  cfg.warmup_instructions = 0;
  const Simulator sim(cfg);
  TraceGenerator gen(*find_profile("astar-like"), 7);
  LimitedTraceSource trace(gen, 50'000);
  NeverPolicy policy(sim.policy_context());
  const SimResult r = sim.run(trace, "custom", policy);
  EXPECT_EQ(r.policy, "never");
  EXPECT_EQ(r.workload, "custom");
  EXPECT_EQ(r.core.instrs, 50'000u);
  EXPECT_EQ(r.gating.gated_events, 0u);
}

TEST(Runner, ScoreAgainstSelfIsZero) {
  const Simulator sim(fast_config());
  const SimResult base = sim.run(*find_profile("hmmer-like"), "none");
  const Comparison c = score_against(base, base);
  EXPECT_NEAR(c.total_energy_savings, 0.0, 1e-12);
  EXPECT_NEAR(c.core_energy_savings, 0.0, 1e-12);
  EXPECT_NEAR(c.runtime_overhead, 0.0, 1e-12);
}

TEST(Runner, CompareReturnsRowPerSpec) {
  SweepSpec sweep;
  sweep.base = fast_config();
  sweep.workloads = {*find_profile("gcc-like")};
  sweep.policy_specs = standard_policy_specs();
  ExperimentEngine engine;
  const SweepResult grid = engine.run_sweep(sweep);
  ASSERT_EQ(grid.baseline_policy, 0u);
  std::vector<Comparison> rows;
  for (std::size_t pi = 0; pi < grid.n_policies; ++pi)
    rows.push_back(score_against(grid.baseline(0, 0),
                                 SimResult(grid.result(0, 0, pi))));
  ASSERT_EQ(rows.size(), standard_policy_specs().size());
  EXPECT_EQ(rows[0].result.policy, "no-gating");
  EXPECT_NEAR(rows[0].core_energy_savings, 0.0, 1e-12);
}

TEST(Sim, StallHistogramConsistentWithCounters) {
  const Simulator sim(fast_config());
  const SimResult r = sim.run(*find_profile("milc-like"), "none");
  EXPECT_EQ(r.core.dram_stall_hist.total(), r.core.stalls_dram);
  EXPECT_GT(r.core.stalls_dram, 0u);
}

TEST(Sim, FileTraceReproducesGeneratorRun) {
  // Freeze a trace to disk, replay it, and require identical timing: the
  // end-to-end determinism contract of the trace I/O path.
  SimConfig cfg = fast_config();
  cfg.instructions = 100'000;
  cfg.warmup_instructions = 0;
  const Simulator sim(cfg);
  const WorkloadProfile* p = find_profile("omnetpp-like");

  TraceGenerator gen(*p, cfg.run_seed);
  const std::string path = ::testing::TempDir() + "mapg_sim_trace.bin";
  std::string err;
  ASSERT_TRUE(write_trace_file_v2(path, gen, 100'000, &err)) << err;

  auto ctx = sim.policy_context();
  MapgPolicy policy(ctx, {});
  TraceGenerator gen2(*p, cfg.run_seed);
  const SimResult live = sim.run(gen2, "live", policy);

  FileTraceSource replay(path);
  MapgPolicy policy2(ctx, {});
  const SimResult replayed = sim.run(replay, "replay", policy2);

  EXPECT_EQ(live.core.cycles, replayed.core.cycles);
  EXPECT_EQ(live.gating.gated_events, replayed.gating.gated_events);
  std::remove(path.c_str());
}

TEST(Sim, ScoreboardNarrowerThanTheProfilesDepDistThrows) {
  // lbm-like draws load dep_dist up to 64, so a 32-slot scoreboard meets a
  // load it cannot track within the first few hundred instructions: the run
  // must stop with an error naming the key, not index past the ring.
  KvConfig kv;
  kv.set("core.scoreboard", "32");
  const Simulator sim(apply_sim_config(kv, fast_config()));
  try {
    sim.run(*find_profile("lbm-like"), "none");
    ADD_FAILURE() << "run with core.scoreboard=32 completed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("core.scoreboard"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mapg

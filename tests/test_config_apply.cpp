// Tests for the textual-config applier and the multi-seed replication API.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.h"
#include "exec/runner.h"
#include "multicore/config_apply.h"
#include "multicore/multicore.h"

namespace mapg {
namespace {

TEST(ConfigApply, DefaultsUntouchedByEmptyConfig) {
  KvConfig kv;
  std::vector<std::string> unknown;
  const SimConfig cfg = apply_sim_config(kv, SimConfig{}, &unknown);
  const SimConfig ref;
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(cfg.instructions, ref.instructions);
  EXPECT_EQ(cfg.mem.l2.size_bytes, ref.mem.l2.size_bytes);
  EXPECT_EQ(cfg.pg.wakeup_stages, ref.pg.wakeup_stages);
  EXPECT_DOUBLE_EQ(cfg.tech.core_leakage_w, ref.tech.core_leakage_w);
}

TEST(ConfigApply, AppliesEveryCategory) {
  KvConfig kv;
  std::string err;
  ASSERT_TRUE(kv.parse_text(R"(
    instructions = 123456
    warmup = 1000
    seed = 7
    core.mlp_window = 4
    l1.size_kib = 64
    l2.size_kib = 2048
    l2.assoc = 8
    dram.channels = 1
    dram.t_cl = 50
    prefetch.enable = 1
    prefetch.degree = 4
    tech.freq_ghz = 2.0
    tech.core_leakage_w = 0.8
    pg.stages = 16
    pg.overhead_scale = 2.0
    dram_energy.read_nj = 20
    thermal.enable = 1
    thermal.ambient_c = 55
  )", &err)) << err;

  std::vector<std::string> unknown;
  const SimConfig cfg = apply_sim_config(kv, SimConfig{}, &unknown);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(cfg.instructions, 123456u);
  EXPECT_EQ(cfg.warmup_instructions, 1000u);
  EXPECT_EQ(cfg.run_seed, 7u);
  EXPECT_EQ(cfg.core.mlp_window, 4u);
  EXPECT_EQ(cfg.mem.l1d.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.mem.l2.size_bytes, 2048u * 1024);
  EXPECT_EQ(cfg.mem.l2.assoc, 8u);
  EXPECT_EQ(cfg.mem.dram.channels, 1u);
  EXPECT_EQ(cfg.mem.dram.t_cl, 50u);
  EXPECT_TRUE(cfg.mem.prefetch.enable);
  EXPECT_EQ(cfg.mem.prefetch.degree, 4u);
  EXPECT_DOUBLE_EQ(cfg.tech.freq_ghz, 2.0);
  EXPECT_DOUBLE_EQ(cfg.tech.core_leakage_w, 0.8);
  EXPECT_EQ(cfg.pg.wakeup_stages, 16u);
  EXPECT_DOUBLE_EQ(cfg.pg.overhead_scale, 2.0);
  EXPECT_DOUBLE_EQ(cfg.dram_energy.read_nj, 20.0);
  EXPECT_TRUE(cfg.thermal.enable);
  EXPECT_DOUBLE_EQ(cfg.thermal.t_ambient_c, 55.0);
  EXPECT_NO_THROW(check_platform(cfg));
}

TEST(ConfigApply, LineBytesAppliesToAllLevels) {
  KvConfig kv;
  kv.set("mem.line_bytes", "128");
  const SimConfig cfg = apply_sim_config(kv);
  EXPECT_EQ(cfg.mem.l1d.line_bytes, 128u);
  EXPECT_EQ(cfg.mem.l2.line_bytes, 128u);
  EXPECT_EQ(cfg.mem.dram.line_bytes, 128u);
  EXPECT_NO_THROW(check_platform(cfg));
}

TEST(ConfigApply, ReportsUnknownKeys) {
  KvConfig kv;
  kv.set("l2.size_kb", "512");  // typo: _kb instead of _kib
  kv.set("run.anything", "1");  // reserved: never reported
  kv.set("workload", "mcf-like");  // tool key: never reported
  std::vector<std::string> unknown;
  apply_sim_config(kv, SimConfig{}, &unknown);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "l2.size_kb");
}

TEST(ConfigApply, MulticoreKeys) {
  KvConfig kv;
  kv.set("cores", "8");
  kv.set("arbiter_slots", "2");
  kv.set("addr_stride_log2", "38");
  kv.set("instructions", "5000");
  std::vector<std::string> unknown;
  const MulticoreConfig cfg =
      apply_multicore_config(kv, MulticoreConfig{}, &unknown);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(cfg.num_cores, 8u);
  EXPECT_EQ(cfg.wake_arbiter_slots, 2u);
  EXPECT_EQ(cfg.core_addr_stride, 1ULL << 38);
  EXPECT_EQ(cfg.instructions_per_core, 5000u);
}

TEST(ConfigApply, MulticoreKeysAcceptedBySimWithoutWarning) {
  KvConfig kv;
  kv.set("cores", "1");
  std::vector<std::string> unknown;
  apply_sim_config(kv, SimConfig{}, &unknown);
  EXPECT_TRUE(unknown.empty());
}

// The stall-kernel switch is a test oracle (tests/test_differential.cpp
// sets the field directly), not a config key, and there is no checkpoint
// stride: each spelling is reported like a typo and changes nothing.
TEST(ConfigApply, RemovedKeysAreUnknown) {
  for (const char* key :
       {"checkpoint-stride", "fast-forward", "fast_forward"}) {
    KvConfig kv;
    kv.set(key, "0");
    std::vector<std::string> unknown;
    const SimConfig cfg = apply_sim_config(kv, SimConfig{}, &unknown);
    ASSERT_EQ(unknown.size(), 1u) << key;
    EXPECT_EQ(unknown[0], key);
    EXPECT_TRUE(cfg.fast_forward) << key;
    unknown.clear();
    const MulticoreConfig mc =
        apply_multicore_config(kv, MulticoreConfig{}, &unknown);
    ASSERT_EQ(unknown.size(), 1u) << key;
    EXPECT_EQ(unknown[0], key);
    EXPECT_TRUE(mc.fast_forward) << key;
  }
}

TEST(ConfigApply, DramPowerAliasYieldsToExplicitMode) {
  KvConfig kv;
  kv.set("dram-power", "coordinated");
  std::vector<std::string> unknown;
  EXPECT_EQ(apply_sim_config(kv, SimConfig{}, &unknown).mem.dram.power.mode,
            DramPowerMode::kCoordinated);
  EXPECT_TRUE(unknown.empty());
  EXPECT_EQ(apply_multicore_config(kv).mem.dram.power.mode,
            DramPowerMode::kCoordinated);
  kv.set("dram.power.mode", "timeout");
  EXPECT_EQ(apply_sim_config(kv).mem.dram.power.mode,
            DramPowerMode::kTimeout);
}

TEST(ConfigApply, PlatformsNoModelCanBeBuiltForAreRejectedByName) {
  // Each case would crash a run (a division by zero or an out-of-bounds
  // index), run with a wrong set mask like 6 sets, or print a table no
  // model stands behind (a zero CAS latency, refresh longer than its
  // interval, zero wakeup stages, a 0 GHz clock).  Both simulators refuse
  // it before building any model, naming the key.
  const std::vector<std::pair<std::vector<std::pair<std::string, std::string>>,
                              std::string>>
      cases = {
          {{{"l1.assoc", "0"}}, "l1.assoc=0"},
          {{{"l2.assoc", "0"}}, "l2.assoc=0"},
          {{{"mem.line_bytes", "0"}}, "mem.line_bytes=0"},
          {{{"dram.channels", "0"}}, "dram.channels=0"},
          {{{"dram.banks", "0"}}, "dram.banks=0"},
          {{{"dram.row_bytes", "0"}}, "dram.row_bytes=0"},
          {{{"core.mlp_window", "0"}}, "core.mlp_window=0"},
          {{{"core.scoreboard", "0"}}, "core.scoreboard=0"},
          {{{"l1.size_kib", "0"}}, "l1.size_kib=0"},
          {{{"l2.size_kib", "0"}}, "l2.size_kib=0"},
          {{{"l1.size_kib", "1"}, {"l1.assoc", "32"}}, "l1.size_kib=1"},
          {{{"l1.size_kib", "3"}}, "l1.size_kib=3"},
          {{{"dram.row_bytes", "32"}}, "dram.row_bytes=32"},
          {{{"dram.t_cl", "0"}}, "dram.t_cl=0"},
          {{{"dram.t_bl", "0"}}, "dram.t_bl=0"},
          {{{"dram.t_rfc", "99999"}}, "dram.t_rfc=99999"},
          {{{"dram.page_policy", "hybrid"}, {"dram.hybrid_bits", "64"}},
           "dram.hybrid_bits=64"},
          {{{"dram.queue_depth", "4"}, {"dram.write_starve", "0"}},
           "dram.write_starve=0"},
          {{{"dram.power.mode", "timeout"}, {"dram.power.t_pd", "0"}},
           "dram.power.t_pd=0"},
          {{{"prefetch.enable", "1"}, {"prefetch.degree", "0"}},
           "prefetch.degree=0"},
          {{{"pg.stages", "0"}}, "pg.stages=0"},
          {{{"dram_energy.powerdown_w", "9"}}, "dram_energy.powerdown_w=9"},
          {{{"tech.freq_ghz", "0"}}, "tech.freq_ghz=0"},
      };
  for (const auto& [settings, key] : cases) {
    KvConfig kv;
    for (const auto& [k, v] : settings) kv.set(k, v);
    const SimConfig sim = apply_sim_config(kv);
    const MulticoreConfig multi = apply_multicore_config(kv);
    const auto expect_named = [&key = key](auto&& build, const char* what) {
      try {
        build();
        ADD_FAILURE() << what << " accepted " << key;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << what << ": " << e.what();
      }
    };
    expect_named([&] { check_platform(sim); }, "check");
    expect_named([&] { check_platform(multi); }, "multicore check");
    expect_named([&] { Simulator{sim}; }, "Simulator");
    expect_named([&] { MulticoreSim{multi}; }, "MulticoreSim");
  }
  // The defaults, and a small valid geometry, pass.
  const SimConfig defaults;
  EXPECT_NO_THROW(check_platform(defaults));
  EXPECT_NO_THROW(check_platform(MulticoreConfig{}));
  KvConfig small;
  small.set("l1.size_kib", "1");
  small.set("l1.assoc", "16");
  small.set("dram.row_bytes", "64");
  const SimConfig ok = apply_sim_config(small);
  EXPECT_NO_THROW(check_platform(ok));
}

TEST(Replicate, AggregatesAcrossSeeds) {
  SimConfig cfg;
  cfg.instructions = 100'000;
  cfg.warmup_instructions = 30'000;
  SweepSpec sweep;
  sweep.base = cfg;
  sweep.workloads = {*find_profile("omnetpp-like")};
  sweep.policy_specs = {"none", "mapg"};
  sweep.n_seeds = 4;
  ExperimentEngine engine;
  const ReplicatedComparison r = replicate(engine.run_sweep(sweep), 0, 0, 1);
  EXPECT_EQ(r.replicates(), 4u);
  EXPECT_EQ(r.policy, "mapg");
  EXPECT_EQ(r.workload, "omnetpp-like");
  // Savings are consistently positive with a tight spread across draws.
  EXPECT_GT(r.core_energy_savings.mean(), 0.15);
  EXPECT_LT(r.core_energy_savings.stdev(),
            0.1 * r.core_energy_savings.mean() + 0.01);
  EXPECT_GT(r.core_energy_savings.min(), 0.0);
  EXPECT_LT(r.runtime_overhead.max(), 0.01);
}

TEST(Replicate, SingleSeedMatchesCompareOne) {
  SimConfig cfg;
  cfg.instructions = 100'000;
  cfg.warmup_instructions = 30'000;
  const WorkloadProfile* p = find_profile("gcc-like");
  SweepSpec sweep;
  sweep.base = cfg;
  sweep.workloads = {*p};
  sweep.policy_specs = {"none", "mapg"};
  ExperimentEngine engine;
  const ReplicatedComparison rep =
      replicate(engine.run_sweep(sweep), 0, 0, 1);
  const Simulator sim(cfg);
  const Comparison one =
      score_against(sim.run(*p, "none"), sim.run(*p, "mapg"));
  EXPECT_DOUBLE_EQ(rep.core_energy_savings.mean(), one.core_energy_savings);
  EXPECT_DOUBLE_EQ(rep.runtime_overhead.mean(), one.runtime_overhead);
}

}  // namespace
}  // namespace mapg

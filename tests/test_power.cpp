// Unit tests for the power substrate: PG circuit derivations (latencies,
// overhead energy, break-even, rush current) and energy composition.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/sim.h"
#include "power/energy_model.h"
#include "power/pg_circuit.h"
#include "power/tech_params.h"

namespace mapg {
namespace {

TEST(TechParams, DefaultsValidAndUnitHelpers) {
  SimConfig cfg;
  const TechParams& t = cfg.tech;
  EXPECT_NO_THROW(check_platform(cfg));
  EXPECT_DOUBLE_EQ(t.cycle_time_ns(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(t.ns_to_cycles(10.0), 30.0);
  EXPECT_DOUBLE_EQ(t.cycles_to_seconds(3e9), 1.0);
  EXPECT_NEAR(t.savable_leakage_w(), 0.475, 1e-12);
}

TEST(TechParams, ValidityRejectsBadValues) {
  SimConfig cfg;
  TechParams& t = cfg.tech;
  t.freq_ghz = 0;
  EXPECT_THROW(check_platform(cfg), std::invalid_argument);
  t = TechParams{};
  t.gated_fraction = 1.5;
  EXPECT_THROW(check_platform(cfg), std::invalid_argument);
  t = TechParams{};
  t.dyn_energy_nj[2] = -1;
  EXPECT_THROW(check_platform(cfg), std::invalid_argument);
}

TEST(PgCircuit, LatenciesFromNanoseconds) {
  TechParams tech;  // 3 GHz
  PgCircuitConfig cfg;
  cfg.wakeup_stages = 8;
  cfg.stage_delay_ns = 1.0;
  cfg.settle_ns = 2.0;
  cfg.entry_ns = 2.0;
  const PgCircuit pg(cfg, tech);
  EXPECT_EQ(pg.entry_latency_cycles(), 6u);    // 2 ns * 3 GHz
  EXPECT_EQ(pg.wakeup_latency_cycles(), 30u);  // (8 + 2) ns * 3 GHz
  EXPECT_EQ(pg.wakeup_latency_cycles(4), 18u);
  EXPECT_EQ(pg.wakeup_latency_cycles(16), 54u);
}

TEST(PgCircuit, OverheadEnergyComposition) {
  TechParams tech;
  PgCircuitConfig cfg;
  cfg.c_vrail_nf = 6.0;
  cfg.rail_swing_frac = 0.9;
  cfg.gate_charge_nj = 2.0;
  const PgCircuit pg(cfg, tech);
  // Recharge: C * dV * Vdd = 6n * 0.9 * 1.0 = 5.4 nJ; + 2 nJ gate drive.
  EXPECT_NEAR(pg.overhead_energy_j(), 7.4e-9, 1e-15);
}

TEST(PgCircuit, OverheadScaleMultiplies) {
  TechParams tech;
  PgCircuitConfig cfg;
  cfg.overhead_scale = 2.0;
  const PgCircuit base(PgCircuitConfig{}, tech);
  const PgCircuit scaled(cfg, tech);
  EXPECT_NEAR(scaled.overhead_energy_j(), 2.0 * base.overhead_energy_j(),
              1e-15);
  EXPECT_GE(scaled.break_even_cycles(), base.break_even_cycles());
}

TEST(PgCircuit, BreakEvenMatchesDefinition) {
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  const double bet_s = pg.overhead_energy_j() / tech.savable_leakage_w();
  const Cycle expected = static_cast<Cycle>(
      std::ceil(bet_s * tech.freq_ghz * 1e9));
  EXPECT_EQ(pg.break_even_cycles(), expected);
  // Sanity: must be well under one DRAM round trip (~180 cycles) for the
  // MAPG premise to hold.
  EXPECT_LT(pg.break_even_cycles(), 120u);
  EXPECT_GT(pg.break_even_cycles(), 10u);
}

TEST(PgCircuit, RushCurrentScalesInverselyWithStages) {
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  const double i1 = pg.rush_current_peak_a(1);
  const double i4 = pg.rush_current_peak_a(4);
  const double i16 = pg.rush_current_peak_a(16);
  EXPECT_NEAR(i1 / i4, 4.0, 1e-9);
  EXPECT_NEAR(i4 / i16, 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(pg.rush_current_peak_a(),
                   pg.rush_current_peak_a(PgCircuitConfig{}.wakeup_stages));
}

TEST(PgCircuit, MinStagesForRushLimitIsMinimal) {
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  for (double imax : {0.5, 1.0, 2.0, 5.0}) {
    const std::uint32_t n = pg.min_stages_for_rush_limit(imax);
    ASSERT_GT(n, 0u);
    EXPECT_LE(pg.rush_current_peak_a(n), imax);
    if (n > 1) {
      EXPECT_GT(pg.rush_current_peak_a(n - 1), imax);
    }
  }
  EXPECT_EQ(pg.min_stages_for_rush_limit(0.0), 0u);
  EXPECT_EQ(pg.min_stages_for_rush_limit(-1.0), 0u);
}

TEST(EnergyModel, NoGatingBreakdown) {
  TechParams tech;
  CoreStats core;
  core.instrs = 1000;
  core.cycles = 3000;  // 1 us at 3 GHz
  core.instr_by_class[static_cast<int>(OpClass::kAlu)] = 1000;
  const EnergyBreakdown e = compute_energy(tech, nullptr, core, {});
  EXPECT_NEAR(e.dynamic_j, 1000 * 0.15e-9, 1e-15);
  const double s = 1e-6;
  EXPECT_NEAR(e.core_leak_j, tech.core_leakage_w * s, 1e-12);
  EXPECT_NEAR(e.core_leak_baseline_j, e.core_leak_j, 1e-15);
  EXPECT_NEAR(e.ungated_leak_j, 0.38 * s, 1e-12);
  EXPECT_EQ(e.pg_overhead_j, 0.0);
  EXPECT_EQ(e.idle_clock_j, 0.0);  // no idle cycles
  EXPECT_NEAR(e.total_j(), e.dynamic_j + e.core_leak_j + e.ungated_leak_j,
              1e-15);
}

TEST(EnergyModel, GatingSavesLeakageAndPaysOverhead) {
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  CoreStats core;
  core.instrs = 1000;
  core.cycles = 10000;
  core.stall_cycles_dram = 6000;  // idle
  core.instr_by_class[static_cast<int>(OpClass::kAlu)] = 1000;

  GatingActivity act;
  for (int i = 0; i < 10; ++i)
    act.add_transition(SleepMode::kDeep, 500, 6, 30);
  ASSERT_EQ(act.transitions, 10u);
  ASSERT_EQ(act.gated_cycles, 5000u);
  ASSERT_EQ(act.deep_gated_cycles, 5000u);

  const EnergyBreakdown e = compute_energy(tech, &pg, core, act);
  const double gated_s = tech.cycles_to_seconds(5000);
  EXPECT_NEAR(e.core_leak_baseline_j - e.core_leak_j,
              tech.savable_leakage_w() * gated_s, 1e-15);
  EXPECT_NEAR(e.pg_overhead_j, 10 * pg.overhead_energy_j(), 1e-15);
  // Idle clock applies only to idle cycles outside all PG phases.
  const std::uint64_t idle_ungated = 6000 - 5000 - 60 - 300;
  EXPECT_NEAR(e.idle_clock_j,
              tech.idle_clock_w * tech.cycles_to_seconds(
                                      static_cast<double>(idle_ungated)),
              1e-15);
  EXPECT_DOUBLE_EQ(e.core_leak_saved_j(),
                   e.core_leak_baseline_j - e.core_leak_j);
}

TEST(PgCircuit, LightModeIsCheaperAndFaster) {
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  EXPECT_LT(pg.overhead_energy_j(SleepMode::kLight),
            pg.overhead_energy_j(SleepMode::kDeep));
  EXPECT_LT(pg.wakeup_latency_cycles(SleepMode::kLight),
            pg.wakeup_latency_cycles(SleepMode::kDeep));
  EXPECT_LT(pg.break_even_cycles(SleepMode::kLight),
            pg.break_even_cycles(SleepMode::kDeep));
  EXPECT_DOUBLE_EQ(pg.save_fraction(SleepMode::kDeep), 1.0);
  EXPECT_LT(pg.save_fraction(SleepMode::kLight), 1.0);
  // Deep accessors match the no-argument (legacy) forms.
  EXPECT_EQ(pg.wakeup_latency_cycles(SleepMode::kDeep),
            pg.wakeup_latency_cycles());
  EXPECT_EQ(pg.break_even_cycles(SleepMode::kDeep), pg.break_even_cycles());
}

TEST(PgCircuit, LightModeOverheadComposition) {
  TechParams tech;
  PgCircuitConfig cfg;
  cfg.c_vrail_nf = 6.0;
  cfg.light_swing_frac = 0.25;
  cfg.gate_charge_nj = 2.0;
  const PgCircuit pg(cfg, tech);
  // Light recharge: C * (0.25 * Vdd) * Vdd = 1.5 nJ; + 2 nJ gate drive.
  EXPECT_NEAR(pg.overhead_energy_j(SleepMode::kLight), 3.5e-9, 1e-15);
}

TEST(EnergyModel, LightGatingSavesFractionally) {
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  CoreStats core;
  core.instrs = 100;
  core.cycles = 20000;
  core.stall_cycles_dram = 12000;
  core.instr_by_class[0] = 100;

  GatingActivity deep_act, light_act;
  deep_act.add_transition(SleepMode::kDeep, 5000, 6, 30);
  light_act.add_transition(SleepMode::kLight, 5000, 6, 12);

  const EnergyBreakdown deep = compute_energy(tech, &pg, core, deep_act);
  const EnergyBreakdown light = compute_energy(tech, &pg, core, light_act);
  // Same gated cycles: light saves exactly light_save_frac of deep's saving.
  EXPECT_NEAR(light.core_leak_saved_j(),
              PgCircuitConfig{}.light_save_frac * deep.core_leak_saved_j(),
              1e-15);
  // And pays the smaller transition overhead.
  EXPECT_LT(light.pg_overhead_j, deep.pg_overhead_j);
}

TEST(EnergyModel, MixedModeAccountingAddsUp) {
  TechParams tech;
  const PgCircuit pg(PgCircuitConfig{}, tech);
  CoreStats core;
  core.instrs = 10;
  core.cycles = 100000;
  core.stall_cycles_dram = 50000;
  core.instr_by_class[0] = 10;

  GatingActivity act;
  act.add_transition(SleepMode::kDeep, 3000, 6, 30);
  act.add_transition(SleepMode::kLight, 2000, 6, 12);
  const EnergyBreakdown e = compute_energy(tech, &pg, core, act);

  const double expect_saved =
      tech.savable_leakage_w() *
      tech.cycles_to_seconds(3000.0 +
                             PgCircuitConfig{}.light_save_frac * 2000.0);
  EXPECT_NEAR(e.core_leak_saved_j(), expect_saved, 1e-15);
  const double expect_ovh = pg.overhead_energy_j(SleepMode::kDeep) +
                            pg.overhead_energy_j(SleepMode::kLight);
  EXPECT_NEAR(e.pg_overhead_j, expect_ovh, 1e-15);
}

TEST(EnergyModel, CoreDomainExcludesUngatedLeak) {
  TechParams tech;
  CoreStats core;
  core.instrs = 10;
  core.cycles = 100;
  core.instr_by_class[0] = 10;
  const EnergyBreakdown e = compute_energy(tech, nullptr, core, {});
  EXPECT_NEAR(e.core_domain_j() + e.ungated_leak_j, e.total_j(), 1e-18);
}

TEST(EnergyModel, ToStringMentionsAllComponents) {
  const EnergyBreakdown e{};
  const std::string s = energy_to_string(e);
  for (const char* key :
       {"dynamic", "core leak", "ungated leak", "idle clock", "pg overhead",
        "dram", "TOTAL"})
    EXPECT_NE(s.find(key), std::string::npos) << key;
}

}  // namespace
}  // namespace mapg

// DRAM low-power states (docs/MEMORY_POWER.md): configuration legality,
// residency conservation, exit-timing composition, the energy model's
// monotonicity, and the coordinated-gating closed form.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/prng.h"
#include "core/sim.h"
#include "mem/dram.h"
#include "pg/dram_coordinator.h"
#include "pg/factory.h"
#include "power/dram_energy.h"

namespace mapg {
namespace {

DramConfig base_config() {
  DramConfig c;
  c.channels = 2;
  c.banks_per_channel = 8;
  c.line_bytes = 64;
  c.row_bytes = 8192;
  c.t_rcd = 41;
  c.t_rp = 41;
  c.t_cl = 41;
  c.t_bl = 15;
  c.t_ras = 105;
  c.t_rfc = 480;
  c.t_refi = 23400;
  return c;
}

DramConfig timeout_config(Cycle pd_timeout = 192, Cycle sr_timeout = 0) {
  DramConfig c = base_config();
  c.power.mode = DramPowerMode::kTimeout;
  c.power.powerdown_timeout = pd_timeout;
  c.power.selfrefresh_timeout = sr_timeout;
  return c;
}

/// The default platform with `dram` in it, for check_platform.
SimConfig with_dram(const DramConfig& dram) {
  SimConfig cfg;
  cfg.mem.dram = dram;
  return cfg;
}

Addr make_line(const DramConfig& c, std::uint32_t channel, std::uint32_t bank,
               std::uint64_t row, std::uint64_t col = 0) {
  std::uint64_t line_no = row;
  line_no = line_no * c.banks_per_channel + bank;
  line_no = line_no * c.lines_per_row() + col;
  line_no = line_no * c.channels + channel;
  return line_no * c.line_bytes;
}

// ---------------------------------------------------------------------------
// Configuration legality
// ---------------------------------------------------------------------------

TEST(DramPowerConfig, OffModeIsAlwaysValid) {
  DramPowerConfig p;  // kOff
  p.t_pd = 0;
  p.t_xp = 0;
  p.t_cke = 0;
  p.t_xs = 0;
  SimConfig cfg;
  cfg.mem.dram.power = p;
  EXPECT_NO_THROW(check_platform(cfg));
  EXPECT_FALSE(p.enabled());
}

TEST(DramPowerConfig, EnabledModesRequireSaneTimings) {
  DramConfig c = timeout_config();
  EXPECT_NO_THROW(check_platform(with_dram(c)));

  c = timeout_config();
  c.power.t_pd = 0;  // a state can never be established
  EXPECT_THROW(check_platform(with_dram(c)), std::invalid_argument);

  c = timeout_config();
  c.power.t_xp = 0;
  EXPECT_THROW(check_platform(with_dram(c)), std::invalid_argument);

  c = timeout_config();
  c.power.t_cke = 0;
  EXPECT_THROW(check_platform(with_dram(c)), std::invalid_argument);

  c = timeout_config();
  c.power.t_xs = c.power.t_xp - 1;  // SR exit cheaper than PD exit
  EXPECT_THROW(check_platform(with_dram(c)), std::invalid_argument);

  // Escalation must be ordered: self-refresh cannot trigger before
  // power-down when both timers are armed.
  c = timeout_config(/*pd_timeout=*/500, /*sr_timeout=*/100);
  EXPECT_THROW(check_platform(with_dram(c)), std::invalid_argument);
  c = timeout_config(/*pd_timeout=*/500, /*sr_timeout=*/500);
  EXPECT_NO_THROW(check_platform(with_dram(c)));
  // A disabled timer (0) imposes no ordering.
  c = timeout_config(/*pd_timeout=*/0, /*sr_timeout=*/100);
  EXPECT_NO_THROW(check_platform(with_dram(c)));
}

// ---------------------------------------------------------------------------
// Residency conservation
// ---------------------------------------------------------------------------

TEST(DramPower, ResidencyConservationUnderRandomTraffic) {
  // Every accounted channel-cycle lands in exactly one residency class:
  //   active + refresh + powerdown + selfrefresh == channels * elapsed
  // holds as an equality, not a bound.
  const DramConfig cfg = timeout_config(/*pd_timeout=*/150,
                                        /*sr_timeout=*/4000);
  Dram d(cfg);
  Prng prng(7);
  Cycle t = 0;
  for (int i = 0; i < 3000; ++i) {
    const Addr line = prng.below(1ULL << 22) * cfg.line_bytes;
    d.access(line, prng.below(4) == 0, t);
    // Mix short gaps (stay active), medium gaps (power-down), and long
    // gaps (escalate to self-refresh).
    const std::uint64_t kind = prng.below(8);
    t += kind < 5 ? prng.below(100)
                  : kind < 7 ? 200 + prng.below(2000)
                             : 5000 + prng.below(20000);
  }
  const Cycle end = t + 12345;
  d.settle_power(end);
  const DramStats& s = d.stats();
  EXPECT_EQ(s.accounted_cycles(),
            static_cast<std::uint64_t>(end) * cfg.channels);
  EXPECT_GT(s.powerdown_cycles, 0u);
  EXPECT_GT(s.selfrefresh_cycles, 0u);
  EXPECT_GT(s.powerdown_entries, 0u);
  EXPECT_GT(s.selfrefresh_entries, 0u);
}

TEST(DramPower, SettlePowerIsIdempotent) {
  const DramConfig cfg = timeout_config();
  Dram d(cfg);
  d.access(make_line(cfg, 0, 0, 0), false, 1000);
  d.settle_power(50'000);
  const std::uint64_t accounted = d.stats().accounted_cycles();
  d.settle_power(50'000);
  d.settle_power(40'000);  // going backwards must be a no-op too
  EXPECT_EQ(d.stats().accounted_cycles(), accounted);
}

TEST(DramPower, OffModeKeepsCountersAtZero) {
  const DramConfig cfg = base_config();
  Dram d(cfg);
  d.access(make_line(cfg, 0, 0, 0), false, 1000);
  d.settle_power(100'000);
  EXPECT_EQ(d.stats().accounted_cycles(), 0u);
  EXPECT_EQ(d.stats().lowpower_exit_delay, 0u);
}

// ---------------------------------------------------------------------------
// Exit timing
// ---------------------------------------------------------------------------

TEST(DramPower, PowerDownExitPaysTxpAndClosesRows) {
  // Refresh off and the first access at t=0, so the channel has no
  // pre-history: a fresh channel idle since t=0 would otherwise already be
  // parked at its first access (by design — see the residency test).
  DramConfig cfg = timeout_config(/*pd_timeout=*/192);
  cfg.t_refi = 0;
  Dram d(cfg);
  const Cycle t0 = 0;
  d.access(make_line(cfg, 0, 0, 0), false, t0);  // opens row 0
  const Cycle busy_until = t0 + cfg.t_rcd + cfg.t_cl + cfg.t_bl;

  // Arrive long after the timeout: the channel is in power-down, the next
  // command waits tXP, and the entry precharged the bank (row 0 closed, so
  // this same-row access is kClosed, not kHit).
  const Cycle t1 = busy_until + cfg.power.powerdown_timeout +
                   cfg.power.t_pd + cfg.power.t_cke + 500;
  const DramResult r = d.access(make_line(cfg, 0, 0, 0, 1), false, t1);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kClosed);
  EXPECT_EQ(r.completion,
            t1 + cfg.power.t_xp + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
  EXPECT_EQ(d.stats().powerdown_entries, 1u);
  EXPECT_EQ(d.stats().lowpower_exit_delay, cfg.power.t_xp);
}

TEST(DramPower, CkeMinHoldDelaysAnEarlyExit) {
  DramConfig cfg = timeout_config(/*pd_timeout=*/192);
  cfg.t_refi = 0;
  Dram d(cfg);
  const Cycle t0 = 0;
  d.access(make_line(cfg, 0, 0, 0), false, t0);
  const Cycle busy_until = t0 + cfg.t_rcd + cfg.t_cl + cfg.t_bl;
  const Cycle pd_at = busy_until + cfg.power.powerdown_timeout;

  // Arrive right after establishment but before tCKE(min) has elapsed:
  // CKE may not rise yet, so the exit starts at pd_at + tCKE.
  const Cycle t1 = pd_at + cfg.power.t_pd;  // established exactly now
  ASSERT_LT(t1, pd_at + cfg.power.t_cke);
  const DramResult r = d.access(make_line(cfg, 0, 0, 0, 1), false, t1);
  const Cycle first_cmd = pd_at + cfg.power.t_cke + cfg.power.t_xp;
  EXPECT_EQ(r.completion, first_cmd + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
}

TEST(DramPower, ShortGapEntersNoStateAndCostsNothing) {
  DramConfig cfg = timeout_config(/*pd_timeout=*/192);
  cfg.t_refi = 0;
  Dram d(cfg);
  const Cycle t0 = 0;
  d.access(make_line(cfg, 0, 0, 0), false, t0);
  const Cycle busy_until = t0 + cfg.t_rcd + cfg.t_cl + cfg.t_bl;
  // Gap shorter than the timeout: identical timing to the kOff model.
  const Cycle t1 = busy_until + cfg.power.powerdown_timeout - 1;
  const DramResult r = d.access(make_line(cfg, 0, 0, 0, 1), false, t1);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kHit);
  EXPECT_EQ(r.completion, t1 + cfg.t_cl + cfg.t_bl);
  EXPECT_EQ(d.stats().lowpower_exit_delay, 0u);
  EXPECT_EQ(d.stats().powerdown_entries, 0u);
}

// ---------------------------------------------------------------------------
// Energy model
// ---------------------------------------------------------------------------

TEST(DramEnergy, ResidencyNeverIncreasesEnergy) {
  const DramConfig cfg = timeout_config();
  const TechParams tech;
  const DramEnergyParams params;
  const Cycle duration = 1'000'000;

  DramStats active;  // no residency: the always-active baseline
  DramStats parked = active;
  parked.powerdown_cycles = 400'000;
  DramStats deeper = parked;
  deeper.selfrefresh_cycles = 600'000;

  const double e_active =
      compute_dram_energy_j(active, cfg, tech, params, duration);
  const double e_parked =
      compute_dram_energy_j(parked, cfg, tech, params, duration);
  const double e_deeper =
      compute_dram_energy_j(deeper, cfg, tech, params, duration);
  EXPECT_LT(e_parked, e_active);
  EXPECT_LT(e_deeper, e_parked);

  // Coordinated residency saves at exactly the power-down rate.
  const double e_coord = compute_dram_energy_j(active, cfg, tech, params,
                                               duration, 400'000);
  EXPECT_DOUBLE_EQ(e_coord, e_parked);
}

TEST(DramEnergy, SelfRefreshSuppressesControllerRefreshEnergy) {
  const DramConfig cfg = timeout_config();
  const TechParams tech;
  const DramEnergyParams params;
  const Cycle duration = 10 * cfg.t_refi;

  DramStats none;
  DramStats in_sr;
  in_sr.selfrefresh_cycles = 5 * cfg.t_refi;  // half the run, one channel

  const DramEnergyBreakdown b0 =
      compute_dram_energy_breakdown(none, cfg, tech, params, duration);
  const DramEnergyBreakdown b1 =
      compute_dram_energy_breakdown(in_sr, cfg, tech, params, duration);
  // 10 intervals x 2 channels = 20 events baseline; 5 suppressed.
  EXPECT_DOUBLE_EQ(b0.refresh_j, 20 * params.refresh_nj * 1e-9);
  EXPECT_DOUBLE_EQ(b1.refresh_j, 15 * params.refresh_nj * 1e-9);
  EXPECT_GT(b1.lowpower_saved_j, 0.0);
  EXPECT_DOUBLE_EQ(b0.background_j, b1.background_j);
}

TEST(DramEnergy, ParamValidityOrdersTheStatePowers) {
  SimConfig cfg;
  DramEnergyParams& p = cfg.dram_energy;
  EXPECT_NO_THROW(check_platform(cfg));
  p.powerdown_w_per_channel = p.background_w_per_channel + 0.01;
  EXPECT_THROW(check_platform(cfg), std::invalid_argument);
  p = DramEnergyParams{};
  p.selfrefresh_w_per_channel = p.powerdown_w_per_channel + 0.01;
  EXPECT_THROW(check_platform(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Coordinated closed form
// ---------------------------------------------------------------------------

DramCoordinationParams coord_params() {
  DramCoordinationParams p;
  p.enabled = true;
  p.t_pd = 8;
  p.t_xp = 18;
  p.t_cke = 17;
  p.idle_channels = 1;
  return p;
}

TEST(DramCoordinator, WindowRequiresTheFullChainToFit) {
  const DramCoordinationParams p = coord_params();
  const Cycle gate_start = 1000;
  // Minimum stall that fits: t_pd + t_cke + t_xp after gate_start.
  const Cycle min_ready = gate_start + p.t_pd + p.t_cke + p.t_xp;
  EXPECT_FALSE(
      coordinated_pd_window(p, gate_start, min_ready - 1).eligible);
  const PdWindow w = coordinated_pd_window(p, gate_start, min_ready);
  EXPECT_TRUE(w.eligible);
  EXPECT_EQ(w.established, gate_start + p.t_pd);
  EXPECT_EQ(w.exit_initiate, min_ready - p.t_xp);
  // The tightest eligible window still satisfies the CKE(min) hold.
  EXPECT_EQ(w.per_channel_cycles(), p.t_cke);
}

TEST(DramCoordinator, DisabledOrChannellessNeverEligible) {
  DramCoordinationParams p = coord_params();
  p.enabled = false;
  EXPECT_FALSE(coordinated_pd_window(p, 0, 1'000'000).eligible);
  p = coord_params();
  p.idle_channels = 0;
  EXPECT_FALSE(coordinated_pd_window(p, 0, 1'000'000).eligible);
}

TEST(DramCoordinator, FactorySuffixWrapsAnyPolicy) {
  const PolicyContext ctx{.entry_latency = 6, .wakeup_latency = 30,
                          .break_even = 47};
  const auto plain = make_policy("mapg", ctx);
  ASSERT_NE(plain, nullptr);
  EXPECT_FALSE(plain->coordinate_dram());

  const auto wrapped = make_policy("mapg-dram", ctx);
  ASSERT_NE(wrapped, nullptr);
  EXPECT_TRUE(wrapped->coordinate_dram());
  EXPECT_EQ(wrapped->name(), plain->name() + "-dram");

  // Parameters pass through the suffix to the inner spec.
  const auto with_args = make_policy("mapg-history-dram:ewma=0.25", ctx);
  ASSERT_NE(with_args, nullptr);
  EXPECT_TRUE(with_args->coordinate_dram());

  EXPECT_EQ(make_policy("bogus-dram", ctx), nullptr);
}

// ---------------------------------------------------------------------------
// End to end through the simulator
// ---------------------------------------------------------------------------

SimConfig small_sim(DramPowerMode mode) {
  SimConfig cfg;
  cfg.instructions = 30'000;
  cfg.warmup_instructions = 5'000;
  cfg.mem.dram.power.mode = mode;
  cfg.mem.dram.power.selfrefresh_timeout = 20'000;
  return cfg;
}

WorkloadProfile stall_heavy_profile() {
  WorkloadProfile p;
  p.name = "dram-power-test";
  p.f_load = 0.45;
  p.working_set_bytes = 64ULL << 20;
  p.hot_set_bytes = 16 << 10;
  p.p_cold = 0.6;
  p.p_pointer_chase = 0.5;
  return p;
}

TEST(DramPowerSim, CoordinatedModeAccountsResidencyOnThePgSide) {
  const Simulator sim(small_sim(DramPowerMode::kCoordinated));
  const SimResult r = sim.run(stall_heavy_profile(), "mapg-dram");
  EXPECT_GT(r.gating.dram_pd_windows, 0u);
  EXPECT_GT(r.gating.dram_pd_channel_cycles, 0u);
  EXPECT_EQ(r.dram.powerdown_cycles, 0u);  // DRAM-side machinery is off
  EXPECT_EQ(r.dram.accounted_cycles(), 0u);
  EXPECT_GT(r.energy.dram_lowpower_saved_j, 0.0);

  // Coordination perturbs no core timing: the same spec under kOff runs
  // cycle-identical, and the DRAM energies differ by exactly the saving.
  const Simulator off(small_sim(DramPowerMode::kOff));
  const SimResult r_off = off.run(stall_heavy_profile(), "mapg-dram");
  EXPECT_EQ(r_off.core.cycles, r.core.cycles);
  EXPECT_DOUBLE_EQ(r_off.energy.dram_j,
                   r.energy.dram_j + r.energy.dram_lowpower_saved_j);
}

TEST(DramPowerSim, CoordinatedNeedsBothModeAndPolicySuffix) {
  // Mode without the "-dram" spec: no coordination.
  const Simulator co(small_sim(DramPowerMode::kCoordinated));
  EXPECT_EQ(co.run(stall_heavy_profile(), "mapg").gating.dram_pd_windows, 0u);
  // Spec without the mode: decorator is inert.
  const Simulator off(small_sim(DramPowerMode::kOff));
  EXPECT_EQ(off.run(stall_heavy_profile(), "mapg-dram").gating.dram_pd_windows,
            0u);
}

TEST(DramPowerSim, TimeoutModeResidencyCoversTheMeasuredWindow) {
  const Simulator sim(small_sim(DramPowerMode::kTimeout));
  const SimResult r = sim.run(stall_heavy_profile(), "mapg");
  // settle_power runs before the warmup reset and before the snapshot, so
  // the residency classes tile the measured window exactly.
  EXPECT_EQ(r.dram.accounted_cycles(),
            static_cast<std::uint64_t>(r.core.cycles) *
                sim.config().mem.dram.channels);
  EXPECT_GT(r.dram.powerdown_cycles, 0u);
  EXPECT_EQ(r.gating.dram_pd_windows, 0u);  // no PG-side accounting
}

}  // namespace
}  // namespace mapg

// Randomized-config property test: a seeded sweep over the configuration
// space, checking on every sample that
//   (a) the fast-forward and cycle-accurate kernels agree bit-for-bit, and
//   (b) the accounting invariants hold (exact cycle conservation, refresh
//       bound, penalty consistency).
// The sweep is fully deterministic — one mt19937_64 seeded with a constant —
// so a failure reproduces by sample index.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/sim.h"
#include "exec/serialize.h"
#include "multicore/multicore.h"
#include "replay/replay.h"
#include "trace/profile.h"

namespace mapg {
namespace {

struct Sample {
  SimConfig cfg;
  std::string workload;
  std::string policy;
};

Sample draw(std::mt19937_64& rng) {
  auto pick_u = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  auto pick_d = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };

  Sample s;
  s.cfg.instructions = pick_u(10'000, 25'000);
  s.cfg.warmup_instructions = pick_u(0, 4'000);
  s.cfg.run_seed = pick_u(0, 1'000'000);
  // These draws once picked a checkpoint stride; they stay so that every
  // sample index still names the same configuration.
  if (pick_u(0, 1) != 0) pick_u(500, 6'000);

  // Core shape.
  s.cfg.core.issue_width = static_cast<std::uint32_t>(pick_u(1, 4));
  s.cfg.core.mlp_window = static_cast<std::uint32_t>(pick_u(1, 24));
  s.cfg.core.div_latency = pick_u(8, 40);

  // Named timing standard first (docs/DRAM.md §2); the per-key corners
  // below then override parts of the preset, which is exactly the custom
  // path config_apply supports.
  switch (pick_u(0, 3)) {
    case 0:
      break;  // untouched defaults
    case 1:
      apply_dram_standard(s.cfg.mem.dram, DramStandard::kDdr3_1600);
      break;
    case 2:
      apply_dram_standard(s.cfg.mem.dram, DramStandard::kDdr4_2400);
      s.cfg.dram_energy = dram_energy_for_standard(DramStandard::kDdr4_2400);
      break;
    default:
      apply_dram_standard(s.cfg.mem.dram, DramStandard::kLpddr4_3200);
      s.cfg.dram_energy =
          dram_energy_for_standard(DramStandard::kLpddr4_3200);
      break;
  }

  // DRAM timing, including refresh corners: disabled, short-period, and
  // t_rfc >= t_refi (pathological but must still agree).
  switch (pick_u(0, 3)) {
    case 0:
      s.cfg.mem.dram.t_refi = 0;
      break;
    case 1:
      s.cfg.mem.dram.t_refi = pick_u(1'000, 4'000);
      s.cfg.mem.dram.t_rfc = pick_u(100, 600);
      break;
    case 2:
      s.cfg.mem.dram.t_refi = pick_u(8'000, 30'000);
      s.cfg.mem.dram.t_rfc = pick_u(200, 800);
      break;
    default:
      s.cfg.mem.dram.t_refi = pick_u(200, 600);
      s.cfg.mem.dram.t_rfc = pick_u(600, 1'200);
      break;
  }
  s.cfg.mem.dram.channels = static_cast<std::uint32_t>(pick_u(1, 4));
  s.cfg.mem.dram.t_cl = pick_u(20, 60);

  // DRAM low-power states (docs/MEMORY_POWER.md): off, timeout-driven with
  // random timers (self-refresh escalation armed half the time), or
  // coordinated — where the policy opts in below via the "-dram" suffix.
  switch (pick_u(0, 2)) {
    case 0:
      break;  // kOff
    case 1:
      s.cfg.mem.dram.power.mode = DramPowerMode::kTimeout;
      s.cfg.mem.dram.power.powerdown_timeout = pick_u(32, 1'024);
      if (pick_u(0, 1) == 1)
        s.cfg.mem.dram.power.selfrefresh_timeout =
            s.cfg.mem.dram.power.powerdown_timeout + pick_u(0, 20'000);
      break;
    default:
      s.cfg.mem.dram.power.mode = DramPowerMode::kCoordinated;
      break;
  }
  EXPECT_TRUE(s.cfg.mem.dram.power.valid());

  // Page-management policy and the FR-FCFS posted-write queue (docs/DRAM.md
  // §3-§4): queue depth 0 (the legacy synchronous path) half the time, else
  // a small bounded queue with a random starvation bound.
  switch (pick_u(0, 2)) {
    case 0:
      break;  // kOpen
    case 1:
      s.cfg.mem.dram.page_policy = PagePolicy::kClosed;
      break;
    default:
      s.cfg.mem.dram.page_policy = PagePolicy::kHybrid;
      s.cfg.mem.dram.hybrid_addr_bits =
          static_cast<std::uint32_t>(pick_u(1, 8));
      break;
  }
  if (pick_u(0, 1) == 1) {
    s.cfg.mem.dram.queue_depth = static_cast<std::uint32_t>(pick_u(1, 16));
    s.cfg.mem.dram.write_starve_limit = pick_u(64, 4'096);
  }
  // (No blanket dram.valid() check: the refresh corner above deliberately
  // draws the pathological t_rfc >= t_refi shape.)

  // Gating circuit; keep valid(): light_swing <= rail_swing, fractions in
  // (0, 1].
  s.cfg.pg.wakeup_stages = static_cast<std::uint32_t>(pick_u(1, 16));
  s.cfg.pg.stage_delay_ns = pick_d(0.25, 3.0);
  s.cfg.pg.entry_ns = pick_d(0.0, 6.0);
  s.cfg.pg.settle_ns = pick_d(0.0, 4.0);
  s.cfg.pg.c_vrail_nf = pick_d(1.0, 12.0);
  s.cfg.pg.gate_charge_nj = pick_d(0.0, 4.0);
  s.cfg.pg.rail_swing_frac = pick_d(0.5, 1.0);
  s.cfg.pg.light_swing_frac = pick_d(0.05, s.cfg.pg.rail_swing_frac);
  s.cfg.pg.light_save_frac = pick_d(0.2, 0.9);
  s.cfg.pg.light_wakeup_stages = static_cast<std::uint32_t>(pick_u(1, 4));
  EXPECT_TRUE(s.cfg.pg.valid());

  static const char* kWorkloads[] = {"mcf-like", "libquantum-like",
                                     "omnetpp-like", "milc-like",
                                     "gamess-like", "astar-like"};
  static const char* kPolicies[] = {
      "none",         "idle-timeout:32", "idle-timeout-early:128",
      "oracle",       "mapg",            "mapg-aggressive",
      "mapg-history", "mapg-multimode",  "mapg-hybrid"};
  s.workload = kWorkloads[pick_u(0, std::size(kWorkloads) - 1)];
  s.policy = kPolicies[pick_u(0, std::size(kPolicies) - 1)];
  if (s.cfg.mem.dram.power.mode == DramPowerMode::kCoordinated) {
    // Opt the policy into coordination: the "-dram" suffix goes on the name,
    // before any ":params" tail.
    const auto colon = s.policy.find(':');
    s.policy.insert(colon == std::string::npos ? s.policy.size() : colon,
                    "-dram");
  }
  return s;
}

void check_invariants(const SimResult& r, const std::string& what) {
  const GatingActivity& a = r.gating.activity;
  // Exact cycle conservation: every idle cycle is classified exactly once.
  EXPECT_EQ(a.entry_cycles + a.gated_cycles + a.wake_cycles +
                r.gating.idle_ungated_cycles,
            r.core.idle_cycles())
      << what;
  // Refresh overlap can cover at most every stall-window cycle.
  EXPECT_LE(r.gating.refresh_window_cycles, r.core.idle_cycles()) << what;
  // Every gating decision lands in exactly one outcome bucket.
  EXPECT_EQ(r.gating.eligible_stalls, r.gating.gated_events +
                                          r.gating.skipped_events +
                                          r.gating.timeout_missed)
      << what;
  // The controller's added cycles are what the core booked as penalties.
  EXPECT_EQ(r.gating.penalty_cycles, r.core.penalty_cycles) << what;
  EXPECT_GT(r.core.cycles, 0u) << what;
}

TEST(RandomConfigs, FastForwardEquivalenceSweep) {
  std::mt19937_64 rng(0x4d415047u);  // "MAPG"
  constexpr int kSamples = 25;
  for (int i = 0; i < kSamples; ++i) {
    const Sample s = draw(rng);
    const std::string what = "sample " + std::to_string(i) + ": " +
                             s.workload + " / " + s.policy +
                             " seed=" + std::to_string(s.cfg.run_seed);

    SimConfig fast = s.cfg;
    fast.fast_forward = true;
    SimConfig stepped = s.cfg;
    stepped.fast_forward = false;

    const WorkloadProfile* p = find_profile(s.workload);
    ASSERT_NE(p, nullptr) << what;
    const SimResult a = Simulator(fast).run(*p, s.policy);
    const SimResult b = Simulator(stepped).run(*p, s.policy);

    EXPECT_EQ(result_to_json(a).dump(), result_to_json(b).dump()) << what;
    check_invariants(a, what + " [fast]");
    check_invariants(b, what + " [stepped]");

    // Power-residency accounting is mutually exclusive by mode: timeout
    // residency tiles the DRAM-side window; coordinated residency lives only
    // in the gating stats.  The DRAM window is NOT bit-identical to the core
    // window: requests carry timestamps `core.now() + l1 + l2 + mc` cycles
    // ahead of the core clock, so an access in flight across the warmup
    // reset (or the final snapshot) shifts that channel's accounting
    // boundary by up to the request-path latency.  Exact tiling is pinned in
    // test_dram_power.cpp where both clocks are driven together; here the
    // per-channel straddle bounds the mismatch.
    const DramPowerMode mode = s.cfg.mem.dram.power.mode;
    if (mode == DramPowerMode::kTimeout) {
      const std::uint64_t straddle =
          static_cast<std::uint64_t>(s.cfg.mem.l1d.hit_latency +
                                     s.cfg.mem.l2.hit_latency +
                                     s.cfg.mem.mc_request_latency) *
          s.cfg.mem.dram.channels;
      const std::uint64_t window =
          static_cast<std::uint64_t>(a.core.cycles) *
          s.cfg.mem.dram.channels;
      EXPECT_GE(a.dram.accounted_cycles() + straddle, window) << what;
      EXPECT_LE(a.dram.accounted_cycles(), window + straddle) << what;
    } else {
      EXPECT_EQ(a.dram.accounted_cycles(), 0u) << what;
    }
    if (mode != DramPowerMode::kCoordinated) {
      EXPECT_EQ(a.gating.dram_pd_channel_cycles, 0u) << what;
    }
  }
}

// Replay corners over the same randomized configuration space: pathological
// refresh timing, DRAM low-power modes, random gating circuits.  For every
// sample the timeline replay must either reproduce the direct run
// bit-for-bit (ok == true) or refuse (ok == false, engine falls back) —
// a replay that "succeeds" with different numbers is the one failure mode
// this sweep exists to catch.
TEST(RandomConfigs, ReplayEquivalenceSweep) {
  std::mt19937_64 rng(0x5245504cu);  // "REPL"
  constexpr int kSamples = 20;
  for (int i = 0; i < kSamples; ++i) {
    Sample s = draw(rng);
    s.cfg.fast_forward = true;  // the replay engine's operating mode
    const std::string what = "sample " + std::to_string(i) + ": " +
                             s.workload + " / " + s.policy +
                             " seed=" + std::to_string(s.cfg.run_seed);
    const WorkloadProfile* p = find_profile(s.workload);
    ASSERT_NE(p, nullptr) << what;

    const StallTimeline tl = record_timeline(s.cfg, *p);
    EXPECT_EQ(result_to_json(*tl.reference).dump(),
              result_to_json(Simulator(s.cfg).run(*p, "none")).dump())
        << what;

    // `none` gates nothing, so no window can be penalized: always replays.
    const ReplayOutcome none = replay_policy(tl, "none");
    ASSERT_TRUE(none.ok) << what;
    EXPECT_EQ(result_to_json(none.result).dump(),
              result_to_json(*tl.reference).dump())
        << what;

    const ReplayOutcome out = replay_policy(tl, s.policy);
    if (out.ok) {
      const SimResult direct = Simulator(s.cfg).run(*p, s.policy);
      EXPECT_EQ(result_to_json(out.result).dump(),
                result_to_json(direct).dump())
          << what;
      check_invariants(out.result, what + " [replayed]");
    }
  }
}

// Multicore rider over the same randomized core/cache/PG space: the
// min-heap scheduler with its bulk-run horizon must stay bit-identical to
// the linear min-scan on configurations nobody hand-picked.
TEST(RandomConfigs, MulticoreHeapSchedulerEquivalence) {
  std::mt19937_64 rng(0x4d43464cu);  // "MCFL"
  auto pick_u = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  constexpr int kSamples = 5;
  for (int i = 0; i < kSamples; ++i) {
    const Sample s = draw(rng);
    MulticoreConfig mc;
    mc.core = s.cfg.core;
    mc.mem = s.cfg.mem;
    mc.tech = s.cfg.tech;
    mc.pg = s.cfg.pg;
    mc.num_cores = static_cast<std::uint32_t>(pick_u(2, 4));
    mc.instructions_per_core = 15'000;
    mc.warmup_instructions = 3'000;
    mc.run_seed = s.cfg.run_seed;
    const std::string what = "sample " + std::to_string(i) + ": " +
                             s.workload + " / " + s.policy + " cores=" +
                             std::to_string(mc.num_cores);
    const WorkloadProfile* p = find_profile(s.workload);
    ASSERT_NE(p, nullptr) << what;

    mc.heap_scheduler = true;
    const MulticoreResult heap = MulticoreSim(mc).run({*p}, s.policy);
    mc.heap_scheduler = false;
    const MulticoreResult scan = MulticoreSim(mc).run({*p}, s.policy);

    ASSERT_EQ(heap.cores.size(), scan.cores.size()) << what;
    for (std::size_t c = 0; c < heap.cores.size(); ++c) {
      EXPECT_EQ(heap.cores[c].core.cycles, scan.cores[c].core.cycles)
          << what << " core " << c;
      EXPECT_EQ(heap.cores[c].core.instrs, scan.cores[c].core.instrs)
          << what << " core " << c;
      EXPECT_EQ(heap.cores[c].gating.gated_events,
                scan.cores[c].gating.gated_events)
          << what << " core " << c;
    }
    EXPECT_EQ(heap.dram.reads, scan.dram.reads) << what;
    EXPECT_DOUBLE_EQ(heap.total_j(), scan.total_j()) << what;
  }
}

}  // namespace
}  // namespace mapg

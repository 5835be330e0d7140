// Differential suite for src/replay: record-once/replay-per-policy must be
// bit-identical to direct simulation wherever it claims success, and must
// bail out (never silently diverge) wherever a policy takes a wake penalty.
//
// The equivalence argument (docs/MODEL.md §4b): the stall-resolution resume
// cycle is the only channel from a gating policy into core/memory timing, so
// a policy whose every window resolves with resume == data_ready reproduces
// the `none` reference's timing exactly and only the gating/energy books
// differ.  Wake-exact policies (oracle + the thresholded MAPG early-wake
// family, any alpha) satisfy that on every window; reactive-wake policies
// (idle-timeout) and threshold-free gating (mapg-aggressive) do not.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "exec/engine.h"
#include "exec/serialize.h"
#include "obs/obs.h"
#include "replay/replay.h"
#include "trace/profile.h"

namespace mapg {
namespace {

SimConfig small_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.instructions = 30'000;
  cfg.warmup_instructions = 6'000;
  cfg.run_seed = seed;
  return cfg;
}

std::string dump(const SimResult& r) { return result_to_json(r).dump(); }

const char* const kWorkloads[] = {"mcf-like", "libquantum-like",
                                  "omnetpp-like"};

TEST(Replay, ReferenceIsBitIdenticalToDirectNoneRun) {
  const SimConfig cfg = small_config(42);
  for (const char* w : kWorkloads) {
    const WorkloadProfile* p = find_profile(w);
    ASSERT_NE(p, nullptr);
    const StallTimeline tl = record_timeline(cfg, *p);
    EXPECT_EQ(dump(*tl.reference), dump(Simulator(cfg).run(*p, "none"))) << w;
    // The trace buffer holds exactly the instructions the run consumed.
    ASSERT_NE(tl.record.trace, nullptr);
    EXPECT_EQ(tl.record.trace->size(),
              cfg.warmup_instructions + cfg.instructions);
  }
}

TEST(Replay, WakeExactPoliciesReplayJsonIdentical) {
  // Policies whose every gated window wakes at data_ready: replay must
  // succeed and serialize identically to a direct simulation — across
  // workloads and seeds, including the alpha-sensitivity variants.
  const char* const kEligible[] = {"oracle",          "mapg",
                                   "mapg:alpha=0.25", "mapg:alpha=4.0",
                                   "mapg-unfiltered", "mapg-multimode",
                                   "mapg-hybrid"};
  for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    const SimConfig cfg = small_config(seed);
    for (const char* w : kWorkloads) {
      const WorkloadProfile* p = find_profile(w);
      ASSERT_NE(p, nullptr);
      const StallTimeline tl = record_timeline(cfg, *p);
      for (const char* spec : kEligible) {
        const std::string what = std::string(w) + " / " + spec +
                                 " seed=" + std::to_string(seed);
        const ReplayOutcome out = replay_policy(tl, spec);
        ASSERT_TRUE(out.ok) << what;
        // Every recorded window (warmup and measured) was replayed.
        EXPECT_EQ(out.windows, tl.record.warmup_stalls.size() +
                                   tl.record.stalls.size())
            << what;
        EXPECT_EQ(dump(out.result), dump(Simulator(cfg).run(*p, spec)))
            << what;
      }
    }
  }
}

TEST(Replay, PenalizedPoliciesBailOut) {
  // Reactive wake (idle-timeout) penalizes every gated window; gating
  // without the residual threshold (mapg-aggressive) penalizes short
  // windows.  Both must refuse to replay rather than return shifted timing.
  const SimConfig cfg = small_config(42);
  const WorkloadProfile* p = find_profile("mcf-like");
  ASSERT_NE(p, nullptr);
  const StallTimeline tl = record_timeline(cfg, *p);
  for (const char* spec :
       {"idle-timeout:64", "idle-timeout-early:64", "mapg-aggressive"}) {
    const ReplayOutcome out = replay_policy(tl, spec);
    EXPECT_FALSE(out.ok) << spec;
    EXPECT_GE(out.windows, 1u) << spec;  // bailed AT the penalized window
  }
}

TEST(Replay, NoneReplaysAsItself) {
  const SimConfig cfg = small_config(7);
  const WorkloadProfile* p = find_profile("omnetpp-like");
  ASSERT_NE(p, nullptr);
  const StallTimeline tl = record_timeline(cfg, *p);
  const ReplayOutcome out = replay_policy(tl, "none");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(dump(out.result), dump(*tl.reference));
}

TEST(Replay, UnknownSpecThrows) {
  const SimConfig cfg = small_config(1);
  const StallTimeline tl = record_timeline(cfg, *find_profile("mcf-like"));
  EXPECT_THROW(replay_policy(tl, "not-a-policy"), std::invalid_argument);
}

TEST(Replay, ObsCountersAdvance) {
  auto& reg = obs::MetricsRegistry::instance();
  const std::uint64_t cells0 = reg.counter("sim.replay.cells").value();
  const std::uint64_t tls0 = reg.counter("sim.replay.timelines").value();
  const std::uint64_t fb0 = reg.counter("sim.replay.full_fallbacks").value();

  const SimConfig cfg = small_config(3);
  const StallTimeline tl = record_timeline(cfg, *find_profile("mcf-like"));
  ASSERT_TRUE(replay_policy(tl, "mapg").ok);
  ASSERT_FALSE(replay_policy(tl, "idle-timeout:64").ok);

  EXPECT_EQ(reg.counter("sim.replay.timelines").value(), tls0 + 1);
  EXPECT_EQ(reg.counter("sim.replay.cells").value(), cells0 + 1);
  // Fallback accounting moved to the callers (engine / serve layers),
  // which know whether the failed replay became a checkpoint resume or a
  // full from-zero fallback; replay_policy itself reports failure only
  // through its return value.
  EXPECT_EQ(reg.counter("sim.replay.full_fallbacks").value(), fb0);
}

TEST(Replay, EngineSweepWithFallbacksIsByteIdentical) {
  // Engine-level contract: a sweep containing BOTH replay-eligible and
  // deliberately penalized policies serializes cell-for-cell identically
  // with the replay engine and the direct engine, and the replay engine
  // actually exercised both paths.
  SweepSpec sweep;
  sweep.base = small_config(42);
  sweep.workloads = {*find_profile("mcf-like"), *find_profile("omnetpp-like")};
  sweep.policy_specs = {"none", "mapg", "idle-timeout:64", "mapg-aggressive",
                        "oracle"};

  ExecOptions direct_opt;
  direct_opt.use_disk_cache = false;
  direct_opt.use_replay = false;
  ExperimentEngine direct(direct_opt);
  const SweepResult a = direct.run_sweep(sweep);

  ExecOptions replay_opt = direct_opt;
  replay_opt.use_replay = true;
  ExperimentEngine replay(replay_opt);
  const SweepResult b = replay.run_sweep(sweep);

  for (std::size_t wi = 0; wi < sweep.workloads.size(); ++wi)
    for (std::size_t pi = 0; pi < sweep.policy_specs.size(); ++pi) {
      const std::string what = sweep.workloads[wi].name + " / " +
                               sweep.policy_specs[pi];
      const JobOutcome& x = a.at(0, wi, pi);
      const JobOutcome& y = b.at(0, wi, pi);
      ASSERT_TRUE(x.ok && y.ok) << what;
      EXPECT_EQ(dump(*x.result), dump(*y.result)) << what;
    }

  EXPECT_EQ(replay.stats().timelines_recorded, sweep.workloads.size());
  EXPECT_GT(replay.stats().jobs_replayed, 0u);
  EXPECT_GT(replay.stats().replay_fallbacks, 0u);
  // Fallback cells re-simulate over the shared trace buffer; together with
  // the reference recordings they account for every non-replayed cell.
  EXPECT_EQ(replay.stats().jobs_run + replay.stats().jobs_replayed,
            sweep.workloads.size() * sweep.policy_specs.size());
  EXPECT_EQ(direct.stats().jobs_replayed, 0u);
}

// The replay tiers read every recorded window back through StallSeries, so
// its SoA packing must return each StallEvent field exactly as stored.
TEST(Replay, StallSeriesRoundTripsEveryField) {
  StallSeries series;
  std::vector<StallEvent> ref;
  std::uint64_t x = 99;
  for (int i = 0; i < 1'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    StallEvent ev;
    ev.start = x % 1'000'000;
    ev.data_ready = ev.start + (x >> 32) % 500;
    ev.commit = ev.start + (x >> 40) % 100;
    ev.estimate = ev.data_ready + static_cast<Cycle>(x % 7) - 3;
    ev.dram = (x & 8) != 0;
    ev.reason = (x & 16) != 0 ? StallReason::kMlpLimit
                              : StallReason::kDependence;
    ref.push_back(ev);
    series.push_back(ev);
  }
  ASSERT_EQ(series.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const StallEvent got = series[i];
    EXPECT_EQ(got.start, ref[i].start);
    EXPECT_EQ(got.data_ready, ref[i].data_ready);
    EXPECT_EQ(got.commit, ref[i].commit);
    EXPECT_EQ(got.estimate, ref[i].estimate);
    EXPECT_EQ(got.dram, ref[i].dram);
    EXPECT_EQ(got.reason, ref[i].reason);
  }
  series.clear();
  EXPECT_TRUE(series.empty());
}

}  // namespace
}  // namespace mapg

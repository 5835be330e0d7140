// Differential suite for src/replay checkpoint + prefix-resume: resuming a
// penalized policy from an architectural checkpoint must be bit-identical
// to simulating it from cycle 0 — for EVERY eligible checkpoint, not just
// the one the engine would pick.
//
// The equivalence argument (docs/MODEL.md §4c): a checkpoint captures the
// complete architectural state that survives a stall window boundary (core
// clock/scoreboard/outstanding, cache arrays + victim PRNGs, MSHR merge
// table, DRAM row/timing/power anchors); the PG controller is NOT
// serialized — it is a pure deterministic function of the StallEvent
// sequence (stall_kernel.h "Checkpoint anchor contract"), so the resume
// path rebuilds it by feeding the recorded event prefix.  A checkpoint
// with `windows` recorded events is eligible for a policy whose first
// penalized window is at position k iff windows <= k: every window before
// the resume point then resolves penalty-free, i.e. with reference timing.
//
// Identity is asserted on the full SimResult JSON serialization, which
// includes the gating books (GatingStats), the CPU/DRAM energy split, and
// the DRAM low-power residency — not just IPC.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "exec/engine.h"
#include "exec/serialize.h"
#include "obs/obs.h"
#include "replay/replay.h"
#include "trace/profile.h"

namespace mapg {
namespace {

constexpr std::uint64_t kNoPenalty = std::numeric_limits<std::uint64_t>::max();

std::string dump(const SimResult& r) { return result_to_json(r).dump(); }

/// 0-based index of the first penalized window, or kNoPenalty if the
/// policy replays in full (replay_policy bails AT the penalized window,
/// so out.windows counts it as the last one consumed).
std::uint64_t first_penalized(const StallTimeline& tl, const char* spec) {
  const ReplayOutcome out = replay_policy(tl, spec);
  return out.ok ? kNoPenalty : out.windows - 1;
}

/// A config whose penalized policies trip LATE: idle-timeout:687 on
/// mcf-like first penalizes thousands of windows in, so most checkpoints
/// are eligible and the resumed run still contains penalized windows —
/// the resume-then-diverge case.  (At t<=550 the first long stall trips
/// the timer immediately; at t>=858 no stall ever does.  The small caches
/// raise the miss rate so the window density supports a tight stride.)
SimConfig late_penalty_config(int power_mode) {
  SimConfig cfg;
  cfg.instructions = 12'000;
  cfg.warmup_instructions = 3'000;
  cfg.checkpoint_stride = 250;
  cfg.mem.l1d.size_bytes = 4 * 1024;
  cfg.mem.l1d.assoc = 4;
  cfg.mem.l2.size_bytes = 32 * 1024;
  cfg.mem.l2.assoc = 8;
  cfg.mem.dram.power.mode = static_cast<DramPowerMode>(power_mode);
  if (power_mode == 1) cfg.mem.dram.power.selfrefresh_timeout = 1500;
  return cfg;
}

const char* const kLatePolicy = "idle-timeout:687";

TEST(Checkpoint, ResumeAtEveryBoundaryMatchesFromZero) {
  // The full grid: workloads x {wake-exact, reactive, threshold-free}
  // policies x all three DRAM power modes.  Wake-exact policies replay in
  // full, so every checkpoint is eligible; penalized policies only offer
  // eligible checkpoints when their first penalty lands late enough.
  int eligible_total = 0;
  for (const char* wl : {"mcf-like", "libquantum-like"}) {
    for (const char* spec : {"mapg", "oracle", "idle-timeout:64",
                             "idle-timeout:2000", "mapg-aggressive"}) {
      for (int pm = 0; pm < 3; ++pm) {
        SimConfig cfg;
        cfg.instructions = 40'000;
        cfg.warmup_instructions = 8'000;
        cfg.checkpoint_stride = 6'000;
        cfg.mem.dram.power.mode = static_cast<DramPowerMode>(pm);
        if (pm == 1) cfg.mem.dram.power.selfrefresh_timeout = 4000;
        const WorkloadProfile* p = find_profile(wl);
        ASSERT_NE(p, nullptr);
        const StallTimeline tl = record_timeline(cfg, *p);
        ASSERT_FALSE(tl.checkpoints.empty());

        SharedTraceView view(tl.record.trace);
        const std::string want =
            dump(Simulator(cfg).run(view, p->name, spec));
        const std::uint64_t first_pen = first_penalized(tl, spec);
        for (const SimCheckpoint& ck : tl.checkpoints) {
          if (first_pen != kNoPenalty && ck.windows > first_pen) continue;
          ++eligible_total;
          EXPECT_EQ(dump(resume_from_checkpoint(tl, ck, spec)), want)
              << wl << " / " << spec << " pm=" << pm << " ck@"
              << ck.instr_pos << " (windows=" << ck.windows
              << ", in_warmup=" << ck.in_warmup << ")";
        }
      }
    }
  }
  // Wake-exact policies alone guarantee a large eligible population.
  EXPECT_GT(eligible_total, 100);
}

TEST(Checkpoint, ResumeThenDivergeMatchesFromZero) {
  // The hard case: the resumed suffix itself CONTAINS penalized windows,
  // so the continuation re-derives gated-stall timing that differs from
  // the reference — from imported architectural state, across warmup-
  // boundary resets, under all three DRAM power modes (self-refresh
  // straddles included via the pm=1 timeout).
  int eligible_total = 0;
  for (int pm = 0; pm < 3; ++pm) {
    const SimConfig cfg = late_penalty_config(pm);
    const WorkloadProfile* p = find_profile("mcf-like");
    ASSERT_NE(p, nullptr);
    const StallTimeline tl = record_timeline(cfg, *p);
    const std::uint64_t first_pen = first_penalized(tl, kLatePolicy);

    SharedTraceView view(tl.record.trace);
    const std::string want =
        dump(Simulator(cfg).run(view, p->name, kLatePolicy));
    for (const SimCheckpoint& ck : tl.checkpoints) {
      if (first_pen != kNoPenalty && ck.windows > first_pen) continue;
      ++eligible_total;
      EXPECT_EQ(dump(resume_from_checkpoint(tl, ck, kLatePolicy)), want)
          << "pm=" << pm << " ck@" << ck.instr_pos
          << " (windows=" << ck.windows << ")";
    }
    // pm=0 and pm=2 penalize late (first_pen ~ 3000+); pm=1's shorter
    // self-refresh timer shifts stall lengths enough that the policy may
    // replay in full there — either way the loop above must have run.
    if (pm != 1) {
      ASSERT_NE(first_pen, kNoPenalty) << "pm=" << pm;
      EXPECT_GT(first_pen, tl.checkpoints.front().windows) << "pm=" << pm;
    }
  }
  EXPECT_GT(eligible_total, 50);
}

TEST(Checkpoint, SeedsVaryThePenaltyPositionResumeStaysExact) {
  // Same grid cell across seeds: the first-penalty position moves with
  // the trace, the eligibility rule and the identity must not.
  for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    SimConfig cfg = late_penalty_config(0);
    cfg.run_seed = seed;
    const WorkloadProfile* p = find_profile("mcf-like");
    const StallTimeline tl = record_timeline(cfg, *p);
    const std::uint64_t first_pen = first_penalized(tl, kLatePolicy);

    SharedTraceView view(tl.record.trace);
    const std::string want =
        dump(Simulator(cfg).run(view, p->name, kLatePolicy));
    for (const SimCheckpoint& ck : tl.checkpoints) {
      if (first_pen != kNoPenalty && ck.windows > first_pen) continue;
      EXPECT_EQ(dump(resume_from_checkpoint(tl, ck, kLatePolicy)), want)
          << "seed=" << seed << " ck@" << ck.instr_pos;
    }
  }
}

TEST(Checkpoint, StrideZeroDisablesCaptureAndReferenceIsStrideInvariant) {
  // Recording with checkpoints chunks the core's run loop; the reference
  // result must not depend on the chunking.
  SimConfig cfg = late_penalty_config(0);
  const WorkloadProfile* p = find_profile("mcf-like");

  cfg.checkpoint_stride = 0;
  const StallTimeline off = record_timeline(cfg, *p);
  EXPECT_TRUE(off.checkpoints.empty());

  std::string want = dump(*off.reference);
  for (const std::uint64_t stride : {250ull, 1'000ull, 7'777ull}) {
    cfg.checkpoint_stride = stride;
    const StallTimeline tl = record_timeline(cfg, *p);
    EXPECT_FALSE(tl.checkpoints.empty()) << stride;
    EXPECT_EQ(dump(*tl.reference), want) << stride;
    // Checkpoints arrive ordered by both instruction position and window
    // count — resume_policy's eligibility scan relies on that.
    for (std::size_t i = 1; i < tl.checkpoints.size(); ++i) {
      EXPECT_GT(tl.checkpoints[i].instr_pos, tl.checkpoints[i - 1].instr_pos);
      EXPECT_GE(tl.checkpoints[i].windows, tl.checkpoints[i - 1].windows);
    }
  }
}

TEST(Checkpoint, ResumePolicyPicksLatestEligibleAndCounts) {
  const SimConfig cfg = late_penalty_config(0);
  const WorkloadProfile* p = find_profile("mcf-like");
  const StallTimeline tl = record_timeline(cfg, *p);
  const ReplayOutcome rep = replay_policy(tl, kLatePolicy);
  ASSERT_FALSE(rep.ok);
  const std::uint64_t first_pen = rep.windows - 1;

  auto& reg = obs::MetricsRegistry::instance();
  const std::uint64_t res0 = reg.counter("sim.replay.prefix_resumes").value();
  const std::uint64_t sav0 = reg.counter("sim.replay.windows_saved").value();

  const ResumeOutcome out = resume_policy(tl, kLatePolicy, first_pen);
  ASSERT_TRUE(out.ok);
  // Latest eligible checkpoint: no other eligible one starts later.
  std::uint64_t best_pos = 0, best_windows = 0;
  for (const SimCheckpoint& ck : tl.checkpoints)
    if (ck.windows <= first_pen && ck.instr_pos >= best_pos) {
      best_pos = ck.instr_pos;
      best_windows = ck.windows;
    }
  EXPECT_EQ(out.from_instr, best_pos);
  EXPECT_EQ(out.windows_replayed, best_windows);

  SharedTraceView view(tl.record.trace);
  EXPECT_EQ(dump(out.result), dump(Simulator(cfg).run(view, p->name,
                                                      kLatePolicy)));
  // MAPG_OBS=OFF compiles the increments away: the counters must then stay
  // where they were.
  const std::uint64_t counted = obs::kCompiledIn ? 1 : 0;
  EXPECT_EQ(reg.counter("sim.replay.prefix_resumes").value(), res0 + counted);
  EXPECT_EQ(reg.counter("sim.replay.windows_saved").value(),
            sav0 + counted * out.windows_replayed);

  // No eligible checkpoint -> honest refusal, counters untouched.
  std::uint64_t min_windows = kNoPenalty;
  for (const SimCheckpoint& ck : tl.checkpoints)
    if (ck.windows < min_windows) min_windows = ck.windows;
  if (min_windows > 0) {
    EXPECT_FALSE(resume_policy(tl, kLatePolicy, min_windows - 1).ok);
    EXPECT_EQ(reg.counter("sim.replay.prefix_resumes").value(),
              res0 + counted);
  }
}

TEST(Checkpoint, LadderLandsOnEachTier) {
  // resolve_on_timeline, the ladder the engine, the server and the sampler
  // share: on one timeline, one policy per outcome.
  const SimConfig cfg = late_penalty_config(0);
  const WorkloadProfile* p = find_profile("mcf-like");
  ASSERT_NE(p, nullptr);
  const StallTimeline tl = record_timeline(cfg, *p);
  const struct {
    const char* spec;
    TimelineTier tier;
  } cases[] = {{"none", TimelineTier::kReference},
               {"mapg", TimelineTier::kReplay},
               {kLatePolicy, TimelineTier::kResume},
               {"idle-timeout:64", TimelineTier::kDirect}};
  for (const auto& c : cases) {
    const TimelineOutcome out = resolve_on_timeline(tl, c.spec);
    EXPECT_EQ(out.tier, c.tier) << c.spec;
    EXPECT_EQ(out.windows_saved > 0, c.tier == TimelineTier::kResume)
        << c.spec;
    if (out.tier == TimelineTier::kDirect) continue;
    EXPECT_EQ(dump(out.result), dump(Simulator(cfg).run(*p, c.spec)))
        << c.spec;
  }
  EXPECT_THROW(resolve_on_timeline(tl, "not-a-policy"), std::invalid_argument);
}

TEST(Checkpoint, UnknownSpecThrows) {
  SimConfig cfg = late_penalty_config(0);
  cfg.instructions = 2'000;
  cfg.warmup_instructions = 500;
  const StallTimeline tl = record_timeline(cfg, *find_profile("mcf-like"));
  ASSERT_FALSE(tl.checkpoints.empty());
  EXPECT_THROW(resume_from_checkpoint(tl, tl.checkpoints.front(),
                                      "not-a-policy"),
               std::invalid_argument);
}

TEST(Checkpoint, FingerprintIsDeterministicAndStateSensitive) {
  const SimConfig cfg = late_penalty_config(0);
  const WorkloadProfile* p = find_profile("mcf-like");
  const StallTimeline a = record_timeline(cfg, *p);
  const StallTimeline b = record_timeline(cfg, *p);
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  ASSERT_GE(a.checkpoints.size(), 2u);
  // Same run -> same fingerprints; different positions -> different state.
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i)
    EXPECT_EQ(checkpoint_fingerprint(a.checkpoints[i]),
              checkpoint_fingerprint(b.checkpoints[i]))
        << i;
  EXPECT_NE(checkpoint_fingerprint(a.checkpoints.front()),
            checkpoint_fingerprint(a.checkpoints.back()));
}

TEST(Checkpoint, EngineSweepPrefixResumesAndStaysByteIdentical) {
  // Engine-level contract: a sweep whose penalized policy trips late gets
  // its fallback cell resumed from a checkpoint (replay_prefix_resumes
  // advances, windows are saved), the resumed cell carries from_resume
  // provenance, and every byte still matches the replay-disabled engine.
  SweepSpec sweep;
  sweep.base = late_penalty_config(0);
  sweep.workloads = {*find_profile("mcf-like")};
  sweep.policy_specs = {"none", "mapg", kLatePolicy};

  ExecOptions direct_opt;
  direct_opt.use_disk_cache = false;
  direct_opt.use_replay = false;
  ExperimentEngine direct(direct_opt);
  const SweepResult a = direct.run_sweep(sweep);

  ExecOptions replay_opt = direct_opt;
  replay_opt.use_replay = true;
  ExperimentEngine replay(replay_opt);
  const SweepResult b = replay.run_sweep(sweep);

  for (std::size_t pi = 0; pi < sweep.policy_specs.size(); ++pi) {
    const JobOutcome& x = a.at(0, 0, pi);
    const JobOutcome& y = b.at(0, 0, pi);
    ASSERT_TRUE(x.ok && y.ok) << sweep.policy_specs[pi];
    EXPECT_EQ(dump(*x.result), dump(*y.result)) << sweep.policy_specs[pi];
    EXPECT_FALSE(x.from_resume);
  }
  EXPECT_TRUE(b.at(0, 0, 2).from_resume);
  EXPECT_FALSE(b.at(0, 0, 1).from_resume);

  const EngineStats s = replay.stats();
  EXPECT_EQ(s.replay_prefix_resumes, 1u);
  EXPECT_GT(s.replay_windows_saved, 0u);
  EXPECT_EQ(s.replay_fallbacks, 0u);
  // Resumed cells are shortened simulations, counted under jobs_run, so
  // the sweep-accounting invariant holds unchanged.
  EXPECT_EQ(s.jobs_run + s.jobs_replayed,
            sweep.workloads.size() * sweep.policy_specs.size());
}

TEST(Checkpoint, EngineFallsBackWhenNoCheckpointIsEligible) {
  // idle-timeout:64 penalizes within the first few windows: no checkpoint
  // is eligible, the engine must take the full from-zero fallback — and
  // still match the replay-disabled engine byte-for-byte.
  SweepSpec sweep;
  sweep.base = late_penalty_config(0);
  sweep.workloads = {*find_profile("mcf-like")};
  sweep.policy_specs = {"none", "idle-timeout:64"};

  ExecOptions opt;
  opt.use_disk_cache = false;
  opt.use_replay = false;
  ExperimentEngine direct(opt);
  const SweepResult a = direct.run_sweep(sweep);
  opt.use_replay = true;
  ExperimentEngine replay(opt);
  const SweepResult b = replay.run_sweep(sweep);

  EXPECT_EQ(dump(*a.at(0, 0, 1).result), dump(*b.at(0, 0, 1).result));
  EXPECT_FALSE(b.at(0, 0, 1).from_resume);
  EXPECT_EQ(replay.stats().replay_prefix_resumes, 0u);
  EXPECT_EQ(replay.stats().replay_fallbacks, 1u);
}

}  // namespace
}  // namespace mapg

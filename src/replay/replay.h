// Single-pass policy sweeps: record the stall timeline once, replay it per
// policy.
//
// The enabling observation (pg/stall_kernel.h): a full-core stall window is
// fully determined at onset by its StallEvent plus circuit constants, and
// the StallHandler's returned resume cycle is the ONLY channel by which a
// gating policy influences core or memory timing.  A policy whose every
// window resolves with resume == data_ready (zero visible wake penalty)
// therefore produces a run whose core timing, trace consumption, cache and
// DRAM state are bit-identical to the `none` reference — only the gating
// statistics and the energy derived from them differ.
//
// record_timeline() runs the reference once (under `none`), materializing
// the trace into an immutable shared buffer and capturing the ordered
// StallEvent sequence.  replay_policy() then re-resolves each recorded
// window through the real PgController (same policy factory, same stall
// kernel, same parameters as a direct run) and reconstitutes a complete
// SimResult by copying the reference's core/hierarchy/DRAM statistics and
// recomputing gating + energy.
//
// Exactness guard: the replayer checks resume == data_ready per window as
// it goes.  The first penalized window voids the equivalence — a penalty
// shifts all later timing, refresh alignment, and DRAM state — so the
// replayer bails out (ReplayOutcome::ok == false) and the cell is simulated
// directly from cycle 0 over the recorded trace.  resolve_on_timeline()
// owns that order (reference, replay, else direct) for every caller.
// tests/test_replay.cpp proves replay == direct JSON-identical for eligible
// cells and byte-identical fallback.
//
// Layering: exec -> replay -> core.  Nothing in core depends on replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/sim.h"

namespace mapg {

/// One recorded reference run: the platform/workload identity it was
/// recorded under, the materialized trace + stall sequence, and the full
/// `none` SimResult (shared; also usable as the sweep's baseline cell).
struct StallTimeline {
  SimConfig config;
  WorkloadProfile profile;
  RunRecord record;
  std::shared_ptr<const SimResult> reference;
};

/// Run the `none` reference once and capture the timeline: the traced
/// variant below fed by the profile's TraceGenerator, keeping the full
/// profile.  Deterministic function of (config, profile); the reference
/// result is bit-identical to Simulator(config).run(profile, "none").
StallTimeline record_timeline(const SimConfig& config,
                              const WorkloadProfile& profile);

/// Trace-source variant: records the reference from any stream (e.g. a
/// file-trace window in sampled simulation, src/sample).  The timeline's
/// `profile` is a stub carrying only `workload_name` — replay_policy
/// consults nothing else (it feeds recorded events), so every tier applies
/// to traced timelines unchanged.  `reserved` becomes the timeline's record
/// before the run, so buffers a caller sized with RunRecord::reserve are
/// filled in place.
StallTimeline record_timeline_traced(const SimConfig& config,
                                     TraceSource& trace,
                                     const std::string& workload_name,
                                     RunRecord reserved = {});

struct ReplayOutcome {
  /// true: every window resolved with resume == data_ready and `result` is
  /// bit-identical to a direct run.  false: a window was penalized (windows
  /// counts how many were replayed, the last one being the penalized one);
  /// the caller must fall back to direct simulation.
  bool ok = false;
  std::uint64_t windows = 0;  ///< windows replayed (warmup + measured)
  SimResult result;           ///< valid only when ok
};

/// Replay the timeline under `policy_spec`.  Throws std::invalid_argument
/// on an unknown spec (same contract as Simulator::run).  Increments the
/// sim.replay.{windows,cells} obs counters; fallback accounting
/// (sim.replay.full_fallbacks) is the caller's job.
ReplayOutcome replay_policy(const StallTimeline& timeline,
                            const std::string& policy_spec);

/// Which exact tier answered a cell on a recorded timeline.
enum class TimelineTier : std::uint8_t {
  kReference,  ///< `none`: the recorded reference run itself
  kReplay,     ///< every window penalty-free (replay_policy)
  kDirect,     ///< no exact tier: the caller must simulate directly
};

/// Lower-case tier name ("reference", "replay", "direct") for trace spans
/// and logs.
const char* timeline_tier_name(TimelineTier tier);

struct TimelineOutcome {
  TimelineTier tier = TimelineTier::kDirect;
  SimResult result;  ///< valid unless tier == kDirect
};

/// The tier ladder for one cell on a recorded timeline, shared by every
/// caller that holds one (ExperimentEngine::run_group, the server's
/// TieredExecutor, SampledRunner): the reference for `none`, else an exact
/// replay, else kDirect.  Every answered result is bit-identical to a
/// direct run; each caller keeps its own accounting and its own direct
/// step.  Throws std::invalid_argument on an unknown spec.
TimelineOutcome resolve_on_timeline(const StallTimeline& timeline,
                                    const std::string& policy_spec);

}  // namespace mapg

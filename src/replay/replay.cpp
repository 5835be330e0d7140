#include "replay/replay.h"

#include <utility>

#include "obs/obs.h"
#include "trace/staged_source.h"

namespace mapg {

StallTimeline record_timeline(const SimConfig& config,
                              const WorkloadProfile& profile) {
  TraceGenerator gen(profile, config.run_seed);
  TraceFrontEnd front =
      stage_if_free(gen, config.warmup_instructions + config.instructions);
  StallTimeline tl = record_timeline_traced(config, front.source(),
                                            profile.name);
  tl.profile = profile;
  return tl;
}

StallTimeline record_timeline_traced(const SimConfig& config,
                                     TraceSource& trace,
                                     const std::string& workload_name,
                                     RunRecord reserved) {
  StallTimeline tl;
  tl.config = config;
  tl.record = std::move(reserved);
  tl.profile.name = workload_name;  // stub: replay reads only the name
  tl.reference = std::make_shared<const SimResult>(
      Simulator(config).run_recorded(trace, workload_name, "none",
                                     tl.record));
  MAPG_OBS_COUNTER_INC("sim.replay.timelines");
  return tl;
}

ReplayOutcome replay_policy(const StallTimeline& timeline,
                            const std::string& policy_spec) {
  const SimConfig& cfg = timeline.config;
  const PgCircuit circuit(cfg.pg, cfg.tech);
  const std::unique_ptr<PgPolicy> policy =
      build_policy(policy_spec, PgController::make_context(circuit));
  // Same kernel parameters (mode, refresh timing, energy rates,
  // coordinated-PD inputs) and a null arbiter, exactly as the single-core
  // direct path constructs them — the controller cannot tell it is being
  // replayed.
  const StallKernelParams kparams = make_stall_kernel_params(cfg, circuit);
  PgController controller(*policy, circuit, nullptr, kparams);

  ReplayOutcome out;
  // The series is SoA (cpu/core.h): iterate by index so each field is read
  // from its own contiguous stream, materializing one event at a time.
  auto feed = [&](const StallSeries& events) {
    const std::size_t n = events.size();
    for (std::size_t i = 0; i < n; ++i) {
      const StallEvent ev = events[i];
      ++out.windows;
      if (controller.on_stall(ev) != ev.data_ready) return false;
    }
    return true;
  };

  // Warmup events are replayed too — gating runs during warmup in a direct
  // run, so adaptive policies carry identical observed state into the
  // measured phase — then the controller stats reset mirrors run_impl's
  // post-warmup reset (a no-op when there was no warmup, matching the
  // direct warmup==0 path).
  const bool exact = [&] {
    if (!feed(timeline.record.warmup_stalls)) return false;
    controller.reset_stats();
    return feed(timeline.record.stalls);
  }();
  MAPG_OBS_COUNTER_ADD("sim.replay.windows", out.windows);
  if (!exact) return out;

  // Every window resolved penalty-free: core timing, trace consumption,
  // hierarchy and DRAM state match the reference bit for bit, so those
  // statistics are copied; gating comes from the replayed controller and
  // energy is a pure function of the two (the direct path's composition).
  SimResult r = *timeline.reference;
  r.policy = policy->name();
  r.ctx = policy->context();
  r.gating = controller.stats();
  compose_result_energy(cfg, circuit, r);

  out.ok = true;
  out.result = std::move(r);
  MAPG_OBS_COUNTER_INC("sim.replay.cells");
  return out;
}

const char* timeline_tier_name(TimelineTier tier) {
  switch (tier) {
    case TimelineTier::kReference: return "reference";
    case TimelineTier::kReplay: return "replay";
    case TimelineTier::kDirect: return "direct";
  }
  return "direct";
}

TimelineOutcome resolve_on_timeline(const StallTimeline& timeline,
                                    const std::string& policy_spec) {
  TimelineOutcome out;
  if (policy_spec == "none") {
    out.tier = TimelineTier::kReference;
    out.result = *timeline.reference;
    return out;
  }
  ReplayOutcome replayed = replay_policy(timeline, policy_spec);
  if (replayed.ok) {
    out.tier = TimelineTier::kReplay;
    out.result = std::move(replayed.result);
  }
  return out;
}

}  // namespace mapg

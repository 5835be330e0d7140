#include "core/sim.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"
#include "power/interval_energy.h"

namespace mapg {
namespace {

#if MAPG_OBS_ENABLED
/// Run-level (cold-path) roll-up: overall run count plus per-policy gating
/// decision totals, so a sweep's metrics break down by policy without any
/// per-stall string handling on the hot path.
void record_run_metrics(const SimResult& r) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.counter("sim.runs").inc();
  const std::string prefix = "sim.policy." + r.policy;
  reg.counter(prefix + ".runs").inc();
  reg.counter(prefix + ".gated_events").inc(r.gating.gated_events);
  reg.counter(prefix + ".skipped_events").inc(r.gating.skipped_events);
  reg.counter(prefix + ".gated_cycles").inc(r.gating.activity.gated_cycles);
}
#endif

/// Scalar-only snapshot of the stats the thermal epoch loop differences.
struct EpochSnap {
  Cycle cycles = 0;
  std::uint64_t idle = 0;
  std::uint64_t deep_gated = 0;
  std::uint64_t light_gated = 0;
  std::uint64_t deep_tr = 0;
  std::uint64_t light_tr = 0;
  std::uint64_t pg_phase = 0;  ///< entry + gated + wake cycles
  std::array<std::uint64_t, kNumOpClasses> instr{};

  static EpochSnap take(const Core& core, const PgController& pgc) {
    const CoreStats& c = core.stats();
    const GatingActivity& a = pgc.activity();
    EpochSnap s;
    s.cycles = c.cycles;
    s.idle = c.idle_cycles();
    s.deep_gated = a.deep_gated_cycles;
    s.light_gated = a.light_gated_cycles;
    s.deep_tr = a.deep_transitions;
    s.light_tr = a.light_transitions;
    s.pg_phase = a.gated_cycles + a.entry_cycles + a.wake_cycles;
    s.instr = c.instr_by_class;
    return s;
  }
};

/// Single-pass recording source: materializes the generator's stream into a
/// buffer WHILE the core consumes it, instead of generating the full trace
/// up front and re-reading it.  The stream the core sees is byte-identical
/// to the generator's (each next() forwards one instruction verbatim), and
/// the buffer ends up holding exactly the consumed prefix — which is exactly
/// warmup + measured instructions, the complete stream every policy sees.
/// Saves one full generate-then-reread pass per recording (the dominant
/// recording overhead; see bench/micro_replay_speedup.cpp).
class TeeTraceSource final : public TraceSource {
 public:
  TeeTraceSource(TraceSource& inner, std::vector<Instr>& buf)
      : inner_(inner), buf_(buf) {}

  bool next(Instr& out) override {
    if (!inner_.next(out)) return false;
    buf_.push_back(out);
    return true;
  }
  void reset() override {
    // Single-pass by construction: run_impl never rewinds its source.
    buf_.clear();
    inner_.reset();
  }

 private:
  TraceSource& inner_;
  std::vector<Instr>& buf_;
};

}  // namespace

StallKernelParams make_stall_kernel_params(const SimConfig& config,
                                           const PgCircuit& circuit) {
  StallKernelParams p;
  p.mode = config.fast_forward ? StepMode::kFastForward
                               : StepMode::kCycleAccurate;
  p.t_refi = config.mem.dram.t_refi;
  p.t_rfc = config.mem.dram.t_rfc;
  p.rates = StallEnergyRates::make(config.tech, circuit, config.dram_energy,
                                   config.mem.dram.channels);
  const DramPowerConfig& pw = config.mem.dram.power;
  if (pw.mode == DramPowerMode::kCoordinated) {
    p.dram_pd.enabled = true;
    p.dram_pd.t_pd = pw.t_pd;
    p.dram_pd.t_xp = pw.t_xp;
    p.dram_pd.t_cke = pw.t_cke;
    // All channels but the one serving the blocking request may park.
    p.dram_pd.idle_channels =
        config.mem.dram.channels > 0 ? config.mem.dram.channels - 1 : 0;
  }
  return p;
}

PolicyContext Simulator::policy_context() const {
  const PgCircuit circuit(config_.pg, config_.tech);
  return PgController::make_context(circuit);
}

SimResult Simulator::run(const WorkloadProfile& profile,
                         const std::string& policy_spec) const {
  TraceGenerator gen(profile, config_.run_seed);
  const PgCircuit circuit(config_.pg, config_.tech);
  const PolicyContext ctx = PgController::make_context(circuit);
  std::unique_ptr<PgPolicy> policy = make_policy(policy_spec, ctx);
  if (!policy)
    throw std::invalid_argument("unknown policy spec: " + policy_spec);
  return run(gen, profile.name, *policy);
}

SimResult Simulator::run(TraceSource& trace, const std::string& workload_name,
                         PgPolicy& policy) const {
  return run_impl(trace, workload_name, policy, nullptr);
}

SimResult Simulator::run(TraceSource& trace, const std::string& workload_name,
                         const std::string& policy_spec) const {
  const PgCircuit circuit(config_.pg, config_.tech);
  const PolicyContext ctx = PgController::make_context(circuit);
  std::unique_ptr<PgPolicy> policy = make_policy(policy_spec, ctx);
  if (!policy)
    throw std::invalid_argument("unknown policy spec: " + policy_spec);
  return run_impl(trace, workload_name, *policy, nullptr);
}

SimResult Simulator::run_recorded(const WorkloadProfile& profile,
                                  const std::string& policy_spec,
                                  RunRecord& record,
                                  const CheckpointHook& hook) const {
  // The trace is materialized in the same pass that runs it (TeeTraceSource
  // above): generation is a pure function of (profile, run_seed) and the
  // core consumes exactly warmup + measured instructions, so the buffer
  // ends the run holding the complete stream every policy sees.
  auto buf = std::make_shared<std::vector<Instr>>();
  buf->reserve(
      static_cast<std::size_t>(config_.warmup_instructions +
                               config_.instructions));
  record.warmup_stalls.clear();
  record.stalls.clear();

  const PgCircuit circuit(config_.pg, config_.tech);
  const PolicyContext ctx = PgController::make_context(circuit);
  std::unique_ptr<PgPolicy> policy = make_policy(policy_spec, ctx);
  if (!policy)
    throw std::invalid_argument("unknown policy spec: " + policy_spec);
  TraceGenerator gen(profile, config_.run_seed);
  TeeTraceSource tee(gen, *buf);
  SimResult result = run_impl(tee, profile.name, *policy, &record, hook);
  record.trace = std::move(buf);
  return result;
}

SimResult Simulator::run_recorded(TraceSource& trace,
                                  const std::string& workload_name,
                                  const std::string& policy_spec,
                                  RunRecord& record,
                                  const CheckpointHook& hook) const {
  // Trace-source variant of the profile overload: same single-pass tee, but
  // the stream comes from an external source (a trace-file window in sampled
  // simulation) instead of a generator.
  auto buf = std::make_shared<std::vector<Instr>>();
  buf->reserve(
      static_cast<std::size_t>(config_.warmup_instructions +
                               config_.instructions));
  record.warmup_stalls.clear();
  record.stalls.clear();

  const PgCircuit circuit(config_.pg, config_.tech);
  const PolicyContext ctx = PgController::make_context(circuit);
  std::unique_ptr<PgPolicy> policy = make_policy(policy_spec, ctx);
  if (!policy)
    throw std::invalid_argument("unknown policy spec: " + policy_spec);
  TeeTraceSource tee(trace, *buf);
  SimResult result = run_impl(tee, workload_name, *policy, &record, hook);
  record.trace = std::move(buf);
  return result;
}

SimResult Simulator::run_impl(TraceSource& trace,
                              const std::string& workload_name,
                              PgPolicy& policy, RunRecord* record,
                              const CheckpointHook& hook) const {
  MAPG_OBS_SCOPED_TIMER("sim.run.ns", "sim");
  const PgCircuit circuit(config_.pg, config_.tech);
  MemoryHierarchy mem(config_.mem);
  const StallKernelParams kparams = make_stall_kernel_params(config_, circuit);
  PgController controller(policy, circuit, nullptr, kparams);
  // When recording, tee every stall event through to the controller; the
  // recorder never alters the resume cycle, so results stay bit-identical.
  RecordingStallHandler recorder(controller);
  StallHandler* handler = &controller;
  if (record != nullptr) {
    recorder.set_sink(record->warmup_stalls);
    handler = &recorder;
  }
  Core core(config_.core, mem, handler);
  core.set_step_mode(kparams.mode);

  // Checkpointed recording chunks each phase's core.run at absolute-stride
  // boundaries and fires the hook between instructions.  core.run is a
  // plain resumable loop, so the chunked run is bit-identical to a single
  // call (run_thermal's epoch loop relies on the same property; the
  // checkpoint differential proves it per stride).
  const std::uint64_t stride =
      (record != nullptr && hook) ? config_.checkpoint_stride : 0;
  auto run_phase = [&](std::uint64_t phase_instrs, std::uint64_t phase_base,
                       bool in_warmup) {
    if (stride == 0) {
      core.run(trace, phase_instrs);
      return;
    }
    std::uint64_t done = 0;
    while (done < phase_instrs) {
      const std::uint64_t abs = phase_base + done;
      const std::uint64_t next_mark = (abs / stride + 1) * stride;
      const std::uint64_t chunk =
          std::min(phase_instrs - done, next_mark - abs);
      const std::uint64_t before = core.stats().instrs;
      core.run(trace, chunk);
      const std::uint64_t executed = core.stats().instrs - before;
      done += executed;
      if (executed < chunk) break;  // trace exhausted
      // Interior marks only: a mark at the phase end is either superseded
      // by the post-reset warmup-boundary capture or has nothing left to
      // resume into.
      if (phase_base + done == next_mark && done < phase_instrs)
        hook(core, mem, phase_base + done, in_warmup);
    }
  };

  // Warmup: populate caches, open DRAM rows, and let streams reach steady
  // state before measurement.  Gating runs during warmup too (so PG state is
  // realistic), but its statistics are discarded.
  if (config_.warmup_instructions > 0) {
    run_phase(config_.warmup_instructions, 0, true);
    // Classify warmup idle before the reset so the measured residency
    // counters cover exactly the measured window.
    mem.dram().settle_power(core.now());
    core.reset_stats();
    mem.reset_stats();
    controller.reset_stats();
    // The most valuable checkpoint: captured after the boundary resets, so
    // resuming from it skips the whole warmup for any policy penalized only
    // in the measured phase.
    if (stride > 0) hook(core, mem, config_.warmup_instructions, false);
  }
  if (record != nullptr) recorder.set_sink(record->stalls);

  run_phase(config_.instructions, config_.warmup_instructions, false);
  mem.dram().settle_power(core.now());

  SimResult result;
  result.workload = workload_name;
  result.policy = policy.name();
  result.ctx = policy.context();
  result.core = core.stats();
  result.hier = mem.stats();
  result.l1 = mem.l1_stats();
  result.l2 = mem.l2_stats();
  result.dram = mem.dram_stats();
  result.gating = controller.stats();
  result.energy = compute_energy(config_.tech, &circuit, result.core,
                                 result.gating.activity);
  const DramEnergyBreakdown dram_e = compute_dram_energy_breakdown(
      result.dram, config_.mem.dram, config_.tech, config_.dram_energy,
      result.core.cycles, result.gating.dram_pd_channel_cycles);
  result.energy.dram_j = dram_e.total_j();
  result.energy.dram_background_j = dram_e.background_j;
  result.energy.dram_lowpower_saved_j = dram_e.lowpower_saved_j;
  MAPG_OBS_ONLY(record_run_metrics(result);)
  return result;
}

ThermalResult Simulator::run_thermal(const WorkloadProfile& profile,
                                     const std::string& policy_spec) const {
  TraceGenerator gen(profile, config_.run_seed);
  const PgCircuit circuit(config_.pg, config_.tech);
  const PolicyContext ctx = PgController::make_context(circuit);
  std::unique_ptr<PgPolicy> policy = make_policy(policy_spec, ctx);
  if (!policy)
    throw std::invalid_argument("unknown policy spec: " + policy_spec);
  return run_thermal(gen, profile.name, *policy);
}

ThermalResult Simulator::run_thermal(TraceSource& trace,
                                     const std::string& workload_name,
                                     PgPolicy& policy) const {
  const PgCircuit circuit(config_.pg, config_.tech);
  MemoryHierarchy mem(config_.mem);
  const StallKernelParams kparams = make_stall_kernel_params(config_, circuit);
  PgController controller(policy, circuit, nullptr, kparams);
  Core core(config_.core, mem, &controller);
  core.set_step_mode(kparams.mode);
  ThermalModel thermal(config_.thermal, config_.tech);
  const TechParams& tech = config_.tech;

  // Difference two snapshots into the closed-form interval-energy input
  // (power/interval_energy.h does the joule conversion).
  auto delta = [](const EpochSnap& a, const EpochSnap& b) {
    IntervalActivity d;
    d.cycles = b.cycles - a.cycles;
    d.idle_cycles = b.idle - a.idle;
    d.pg_phase_cycles = b.pg_phase - a.pg_phase;
    d.deep_gated_cycles = b.deep_gated - a.deep_gated;
    d.light_gated_cycles = b.light_gated - a.light_gated;
    d.deep_transitions = b.deep_tr - a.deep_tr;
    d.light_transitions = b.light_tr - a.light_tr;
    for (std::size_t c = 0; c < kNumOpClasses; ++c)
      d.instrs[c] = b.instr[c] - a.instr[c];
    return d;
  };

  const std::uint64_t epoch = std::max<std::uint64_t>(
      config_.thermal.epoch_instructions, 1);

  // Run one phase (warmup or measurement) epoch by epoch, keeping the
  // thermal node integrated throughout.
  auto run_phase = [&](std::uint64_t instrs, ThermalResult* out) {
    std::uint64_t done = 0;
    EpochSnap prev = EpochSnap::take(core, controller);
    double weighted_t = 0, total_dt = 0, peak = thermal.temperature_c();
    while (done < instrs) {
      const std::uint64_t chunk = std::min(epoch, instrs - done);
      core.run(trace, chunk);
      done += chunk;
      const EpochSnap now = EpochSnap::take(core, controller);
      if (now.cycles == prev.cycles) break;  // trace exhausted
      const double mult = thermal.leakage_multiplier();
      const double dt_s = tech.cycles_to_seconds(
          static_cast<double>(now.cycles - prev.cycles));
      const IntervalActivity d = delta(prev, now);
      const double e_j = interval_core_energy_j(tech, circuit, d, mult);
      thermal.step(e_j / dt_s, dt_s);
      if (out != nullptr) {
        out->thermal_core_leak_j +=
            interval_core_leakage_j(tech, circuit, d, mult);
        weighted_t += thermal.temperature_c() * dt_s;
        total_dt += dt_s;
        peak = std::max(peak, thermal.temperature_c());
        ++out->epochs;
      }
      prev = now;
    }
    if (out != nullptr && total_dt > 0) {
      out->avg_temperature_c = weighted_t / total_dt;
      out->peak_temperature_c = peak;
    }
  };

  if (config_.warmup_instructions > 0) {
    run_phase(config_.warmup_instructions, nullptr);
    mem.dram().settle_power(core.now());
    core.reset_stats();
    mem.reset_stats();
    controller.reset_stats();
  }

  ThermalResult result;
  run_phase(config_.instructions, &result);
  mem.dram().settle_power(core.now());
  result.final_temperature_c = thermal.temperature_c();

  result.sim.workload = workload_name;
  result.sim.policy = policy.name();
  result.sim.ctx = policy.context();
  result.sim.core = core.stats();
  result.sim.hier = mem.stats();
  result.sim.l1 = mem.l1_stats();
  result.sim.l2 = mem.l2_stats();
  result.sim.dram = mem.dram_stats();
  result.sim.gating = controller.stats();
  result.sim.energy = compute_energy(tech, &circuit, result.sim.core,
                                     result.sim.gating.activity);
  const DramEnergyBreakdown dram_e = compute_dram_energy_breakdown(
      result.sim.dram, config_.mem.dram, tech, config_.dram_energy,
      result.sim.core.cycles, result.sim.gating.dram_pd_channel_cycles);
  result.sim.energy.dram_j = dram_e.total_j();
  result.sim.energy.dram_background_j = dram_e.background_j;
  result.sim.energy.dram_lowpower_saved_j = dram_e.lowpower_saved_j;
  MAPG_OBS_ONLY(record_run_metrics(result.sim);)
  return result;
}

}  // namespace mapg

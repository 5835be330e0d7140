#include "core/sim.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "power/interval_energy.h"
#include "trace/staged_source.h"

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

std::unique_ptr<PgPolicy> build_policy(const std::string& policy_spec,
                                       const PolicyContext& ctx) {
  std::unique_ptr<PgPolicy> policy = make_policy(policy_spec, ctx);
  if (!policy)
    throw std::invalid_argument("unknown policy spec: " + policy_spec);
  return policy;
}

void cross_warmup_boundary(Core& core, MemoryHierarchy& mem,
                           PgController& controller) {
  mem.dram().settle_power(core.now());
  core.reset_stats();
  mem.reset_stats();
  controller.reset_stats();
}

SimResult finish_run(const SimConfig& config, const PgCircuit& circuit,
                     const std::string& workload_name, const PgPolicy& policy,
                     const Core& core, MemoryHierarchy& mem,
                     const PgController& controller) {
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
  compose_result_energy(config, circuit, result);
  return result;
}

void compose_result_energy(const SimConfig& config, const PgCircuit& circuit,
                           SimResult& result) {
  result.energy = compute_energy(config.tech, &circuit, result.core,
                                 result.gating.activity);
  const DramEnergyBreakdown dram_e = compute_dram_energy_breakdown(
      result.dram, config.mem.dram, config.tech, config.dram_energy,
      result.core.cycles, result.gating.dram_pd_channel_cycles);
  result.energy.dram_j = dram_e.total_j();
  result.energy.dram_background_j = dram_e.background_j;
  result.energy.dram_lowpower_saved_j = dram_e.lowpower_saved_j;
}

void check_platform(const CoreConfig& core, const HierarchyConfig& mem) {
  const auto fail = [](const std::string& key, std::uint64_t value,
                       const std::string& need) {
    throw std::invalid_argument("invalid platform: " + key + "=" +
                                std::to_string(value) + " (" + need + ")");
  };
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"core.issue_width", core.issue_width},
      {"core.mlp_window", core.mlp_window},
      {"core.scoreboard", core.scoreboard_window},
      {"mem.line_bytes", mem.l1d.line_bytes},
      {"l1.size_kib", mem.l1d.size_bytes}, {"l1.assoc", mem.l1d.assoc},
      {"l2.size_kib", mem.l2.size_bytes}, {"l2.assoc", mem.l2.assoc},
      {"dram.channels", mem.dram.channels},
      {"dram.banks", mem.dram.banks_per_channel}};
  for (const auto& [key, value] : counts)
    if (value == 0) fail(key, 0, "must be at least 1");
  for (const auto& [level, cache] :
       {std::pair<std::string, const CacheConfig*>{"l1", &mem.l1d},
        {"l2", &mem.l2}})
    if (!cache->valid())
      fail(level + ".size_kib", cache->size_bytes / 1024,
           "with " + level + ".assoc=" + std::to_string(cache->assoc) +
               " and mem.line_bytes=" + std::to_string(cache->line_bytes) +
               ", the line size and the number of sets must be powers of"
               " two");
  if (mem.dram.row_bytes < mem.dram.line_bytes)
    fail("dram.row_bytes", mem.dram.row_bytes,
         "must be at least mem.line_bytes=" +
             std::to_string(mem.dram.line_bytes));
}

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {
  check_platform(config_.core, config_.mem);
}

PolicyContext Simulator::policy_context() const {
  const PgCircuit circuit(config_.pg, config_.tech);
  return PgController::make_context(circuit);
}

SimResult Simulator::run(const WorkloadProfile& profile,
                         const std::string& policy_spec) const {
  TraceGenerator gen(profile, config_.run_seed);
  // The generator never reads core timing, so where a thread is free it
  // runs ahead of the core on it (trace/staged_source.h).
  TraceFrontEnd front =
      stage_if_free(gen, config_.warmup_instructions + config_.instructions);
  return run(front.source(), profile.name, policy_spec);
}

SimResult Simulator::run(TraceSource& trace, const std::string& workload_name,
                         PgPolicy& policy) const {
  return run_impl(trace, workload_name, policy, nullptr);
}

SimResult Simulator::run(TraceSource& trace, const std::string& workload_name,
                         const std::string& policy_spec) const {
  const std::unique_ptr<PgPolicy> policy =
      build_policy(policy_spec, policy_context());
  return run_impl(trace, workload_name, *policy, nullptr);
}

void RunRecord::reserve(std::uint64_t warmup, std::uint64_t instructions) {
  trace_buffer.reserve(static_cast<std::size_t>(warmup + instructions));
  warmup_stalls.reserve(static_cast<std::size_t>(2 * warmup));
  stalls.reserve(static_cast<std::size_t>(2 * instructions));
}

SimResult Simulator::run_recorded(TraceSource& trace,
                                  const std::string& workload_name,
                                  const std::string& policy_spec,
                                  RunRecord& record) const {
  // The trace is materialized in the same pass that runs it (TeeTraceSource
  // above): the core consumes exactly warmup + measured instructions, so
  // the buffer ends the run holding the complete stream every policy sees.
  // Clearing keeps capacity, so buffers RunRecord::reserve sized are
  // adopted as they are.
  std::vector<Instr>& buf = record.trace_buffer;
  buf.clear();
  buf.reserve(static_cast<std::size_t>(config_.warmup_instructions +
                                       config_.instructions));
  record.warmup_stalls.clear();
  record.stalls.clear();

  const std::unique_ptr<PgPolicy> policy =
      build_policy(policy_spec, policy_context());
  TeeTraceSource tee(trace, buf);
  SimResult result = run_impl(tee, workload_name, *policy, &record);
  // Moving leaves trace_buffer empty: the published trace owns the storage.
  record.trace = std::make_shared<std::vector<Instr>>(std::move(buf));
  return result;
}

SimResult Simulator::run_impl(TraceSource& trace,
                              const std::string& workload_name,
                              PgPolicy& policy, RunRecord* record) const {
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

  // Warmup: populate caches, open DRAM rows, and let streams reach steady
  // state before measurement.  Gating runs during warmup too (so PG state is
  // realistic), but its statistics are discarded.
  if (config_.warmup_instructions > 0) {
    core.run(trace, config_.warmup_instructions);
    cross_warmup_boundary(core, mem, controller);
  }
  if (record != nullptr) recorder.set_sink(record->stalls);

  core.run(trace, config_.instructions);
  SimResult result = finish_run(config_, circuit, workload_name, policy, core,
                                mem, controller);
  MAPG_OBS_ONLY(record_run_metrics(result);)
  return result;
}

ThermalResult Simulator::run_thermal(const WorkloadProfile& profile,
                                     const std::string& policy_spec) const {
  TraceGenerator gen(profile, config_.run_seed);
  const std::unique_ptr<PgPolicy> policy =
      build_policy(policy_spec, policy_context());
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
    cross_warmup_boundary(core, mem, controller);
  }

  ThermalResult result;
  run_phase(config_.instructions, &result);
  result.sim = finish_run(config_, circuit, workload_name, policy, core, mem,
                          controller);
  result.final_temperature_c = thermal.temperature_c();
  MAPG_OBS_ONLY(record_run_metrics(result.sim);)
  return result;
}

}  // namespace mapg

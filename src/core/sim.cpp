#include "core/sim.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// A config value as the error names it: a count as an integer, a double
/// to six significant digits (the stream default).
template <typename T>
std::string text(T value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// check_platform's one error: the key, its value and what it must be.
/// Only a failing check builds it, so a platform that passes costs a few
/// dozen comparisons and no allocation.
template <typename T>
[[noreturn]] void fail(std::string_view key, T value, const std::string& need) {
  throw std::invalid_argument("invalid platform: " + std::string(key) + "=" +
                              text(value) + " (" + need + ")");
}

void at_least(std::string_view key, std::uint64_t value,
              std::uint64_t min = 1) {
  if (value < min) fail(key, value, "must be at least " + text(min));
}

/// The comparisons below also refuse a NaN.
void positive(std::string_view key, double value) {
  if (!(value > 0)) fail(key, value, "must be above 0");
}

void non_negative(std::string_view key, double value) {
  if (!(value >= 0)) fail(key, value, "must not be negative");
}

void fraction(std::string_view key, double value) {
  if (!(value > 0 && value <= 1))
    fail(key, value, "must be above 0 and at most 1");
}

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

void check_platform(const SimConfig& config) {
  const CoreConfig& core = config.core;
  at_least("core.issue_width", core.issue_width);
  at_least("core.mlp_window", core.mlp_window);
  at_least("core.scoreboard", core.scoreboard_window, 2);

  const HierarchyConfig& mem = config.mem;
  const DramConfig& dram = mem.dram;
  const std::uint32_t line = mem.l1d.line_bytes;
  at_least("mem.line_bytes", line);
  at_least("l1.size_kib", mem.l1d.size_bytes);
  at_least("l1.assoc", mem.l1d.assoc);
  at_least("l2.size_kib", mem.l2.size_bytes);
  at_least("l2.assoc", mem.l2.assoc);
  at_least("dram.channels", dram.channels);
  at_least("dram.banks", dram.banks_per_channel);
  if (mem.l2.line_bytes != line || dram.line_bytes != line)
    fail("mem.line_bytes", line,
         "the L2 and DRAM lines must be as long, not " +
             text(mem.l2.line_bytes) + " and " + text(dram.line_bytes));
  for (const auto& [level, cache] :
       {std::pair{"l1", &mem.l1d}, std::pair{"l2", &mem.l2}})
    if (!cache->valid())
      fail(std::string(level) + ".size_kib", cache->size_bytes / 1024,
           "with " + std::string(level) + ".assoc=" + text(cache->assoc) +
               " and mem.line_bytes=" + text(cache->line_bytes) +
               ", the line size and the number of sets must be powers of"
               " two");
  if (dram.row_bytes < line || dram.row_bytes % line != 0)
    fail("dram.row_bytes", dram.row_bytes,
         "must be a whole number of lines of mem.line_bytes=" + text(line) +
             ", at least one");
  at_least("dram.t_cl", dram.t_cl);
  at_least("dram.t_bl", dram.t_bl);
  if (dram.t_refi != 0 && dram.t_rfc >= dram.t_refi)
    fail("dram.t_rfc", dram.t_rfc,
         "must be below dram.t_refi=" + text(dram.t_refi) +
             ", or dram.t_refi=0 to disable refresh");
  if (dram.hybrid_addr_bits >= 64)
    fail("dram.hybrid_bits", dram.hybrid_addr_bits, "must be below 64");
  if (dram.queue_depth > 0)
    at_least("dram.write_starve", dram.write_starve_limit);
  const DramPowerConfig& pw = dram.power;
  if (pw.enabled()) {
    at_least("dram.power.t_pd", pw.t_pd);
    at_least("dram.power.t_xp", pw.t_xp);
    at_least("dram.power.t_cke", pw.t_cke);
    if (pw.t_xs < pw.t_xp)
      fail("dram.power.t_xs", pw.t_xs,
           "must be at least dram.power.t_xp=" + text(pw.t_xp));
    if (pw.powerdown_timeout != 0 && pw.selfrefresh_timeout != 0 &&
        pw.selfrefresh_timeout < pw.powerdown_timeout)
      fail("dram.power.sr_timeout", pw.selfrefresh_timeout,
           "must be 0 or at least dram.power.pd_timeout=" +
               text(pw.powerdown_timeout));
  }
  if (mem.prefetch.enable) {
    at_least("prefetch.degree", mem.prefetch.degree);
    at_least("prefetch.table", mem.prefetch.table_entries);
  }

  const TechParams& tech = config.tech;
  positive("tech.freq_ghz", tech.freq_ghz);
  positive("tech.vdd", tech.vdd);
  non_negative("tech.core_leakage_w", tech.core_leakage_w);
  if (!(tech.gated_fraction >= 0 && tech.gated_fraction <= 1))
    fail("tech.gated_fraction", tech.gated_fraction,
         "must be between 0 and 1");
  for (std::size_t c = 0; c < kNumOpClasses; ++c)
    if (!(tech.dyn_energy_nj[c] >= 0))
      fail("tech.dyn_energy_nj." +
               std::string(op_class_name(static_cast<OpClass>(c))),
           tech.dyn_energy_nj[c], "must not be negative");

  const PgCircuitConfig& pg = config.pg;
  positive("pg.c_vrail_nf", pg.c_vrail_nf);
  fraction("pg.rail_swing", pg.rail_swing_frac);
  non_negative("pg.gate_charge_nj", pg.gate_charge_nj);
  at_least("pg.stages", pg.wakeup_stages);
  positive("pg.stage_delay_ns", pg.stage_delay_ns);
  non_negative("pg.settle_ns", pg.settle_ns);
  non_negative("pg.entry_ns", pg.entry_ns);
  positive("pg.overhead_scale", pg.overhead_scale);
  if (!(pg.light_swing_frac > 0 && pg.light_swing_frac <= pg.rail_swing_frac))
    fail("pg.light_swing", pg.light_swing_frac,
         "must be above 0 and at most pg.rail_swing=" +
             text(pg.rail_swing_frac));
  fraction("pg.light_save", pg.light_save_frac);
  at_least("pg.light_stages", pg.light_wakeup_stages);

  const DramEnergyParams& de = config.dram_energy;
  non_negative("dram_energy.background_w", de.background_w_per_channel);
  non_negative("dram_energy.selfrefresh_w", de.selfrefresh_w_per_channel);
  if (!(de.selfrefresh_w_per_channel <= de.powerdown_w_per_channel))
    fail("dram_energy.selfrefresh_w", de.selfrefresh_w_per_channel,
         "must not exceed dram_energy.powerdown_w=" +
             text(de.powerdown_w_per_channel));
  if (!(de.powerdown_w_per_channel <= de.background_w_per_channel))
    fail("dram_energy.powerdown_w", de.powerdown_w_per_channel,
         "must not exceed dram_energy.background_w=" +
             text(de.background_w_per_channel));
  non_negative("dram_energy.activate_nj", de.activate_nj);
  non_negative("dram_energy.read_nj", de.read_nj);
  non_negative("dram_energy.write_nj", de.write_nj);
  non_negative("dram_energy.refresh_nj", de.refresh_nj);

  const ThermalConfig& th = config.thermal;
  positive("thermal.r_th", th.r_th_k_per_w);
  positive("thermal.tau_ms", th.tau_ms);
  positive("thermal.doubling_c", th.leak_doubling_c);
  at_least("thermal.epoch_instrs", th.epoch_instructions);
}

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {
  check_platform(config_);
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
  warmup_stalls.reserve(static_cast<std::size_t>(2 * warmup));
  stalls.reserve(static_cast<std::size_t>(2 * instructions));
}

SimResult Simulator::run_recorded(TraceSource& trace,
                                  const std::string& workload_name,
                                  const std::string& policy_spec,
                                  RunRecord& record) const {
  // Clearing keeps capacity, so series RunRecord::reserve sized are filled
  // in place.
  record.warmup_stalls.clear();
  record.stalls.clear();
  const std::unique_ptr<PgPolicy> policy =
      build_policy(policy_spec, policy_context());
  return run_impl(trace, workload_name, *policy, &record);
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

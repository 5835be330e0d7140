// Simulator: wires trace -> core -> hierarchy -> PG controller -> energy.
//
// This is the library's main entry point.  A single call:
//
//   SimConfig cfg;                       // platform (defaults = DESIGN.md §7)
//   Simulator sim(cfg);
//   SimResult r = sim.run(*find_profile("mcf-like"), "mapg");
//
// runs warmup + measurement and returns every statistic the experiments
// consume.  Instances are independent; runs are deterministic functions of
// (config, profile, policy spec).
#pragma once

#include <memory>
#include <string>

#include "cpu/core.h"
#include "mem/hierarchy.h"
#include "pg/factory.h"
#include "pg/pg_controller.h"
#include "power/dram_energy.h"
#include "power/energy_model.h"
#include "power/pg_circuit.h"
#include "power/tech_params.h"
#include "power/thermal.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/trace_io.h"

namespace mapg {

struct SimConfig {
  CoreConfig core{};
  HierarchyConfig mem{};
  TechParams tech{};
  PgCircuitConfig pg{};
  DramEnergyParams dram_energy{};
  /// Optional leakage-temperature feedback (run_thermal only).
  ThermalConfig thermal{};
  std::uint64_t instructions = 5'000'000;
  std::uint64_t warmup_instructions = 250'000;
  std::uint64_t run_seed = 42;
  /// true (default): resolve full-core stall windows in closed form
  /// (fast-forward); false: tick them cycle by cycle through the reference
  /// kernel.  Results are bit-identical either way (see docs/MODEL.md and
  /// tests/test_differential.cpp); the flag is part of the experiment
  /// identity so cached results never mix kernels silently.
  bool fast_forward = true;
  /// Always false; kept only because benchmark/layers.cpp still reads it.
  static constexpr bool batched = false;
};

struct SimResult {
  std::string workload;
  std::string policy;
  PolicyContext ctx;

  CoreStats core;
  HierarchyStats hier;
  CacheStats l1;
  CacheStats l2;
  DramStats dram;
  GatingStats gating;
  EnergyBreakdown energy;

  /// DRAM-served loads per kilo-instruction (the LLC-miss MPKI analogue).
  double mpki() const {
    return core.instrs ? 1000.0 * static_cast<double>(hier.served_dram) /
                             static_cast<double>(core.instrs)
                       : 0.0;
  }
  double ipc() const { return core.ipc(); }
  /// Fraction of execution time the core spent fully gated.
  double gated_time_fraction() const {
    return core.cycles ? static_cast<double>(gating.activity.gated_cycles) /
                             static_cast<double>(core.cycles)
                       : 0.0;
  }
};

/// Result of a run with leakage-temperature feedback (power/thermal.h):
/// the usual SimResult (whose energy fields remain ISOTHERMAL, i.e.
/// leakage at T_ref), plus the temperature trajectory and the
/// feedback-corrected energy.
struct ThermalResult {
  SimResult sim;
  double final_temperature_c = 0;
  double peak_temperature_c = 0;
  double avg_temperature_c = 0;  ///< time-weighted over the measured run
  /// Gated-domain leakage actually paid, with the multiplier m(T) applied
  /// epoch by epoch.
  double thermal_core_leak_j = 0;
  std::uint64_t epochs = 0;

  /// Total energy with the feedback-corrected core leakage substituted.
  double thermal_total_j() const {
    return sim.energy.total_j() - sim.energy.core_leak_j +
           thermal_core_leak_j;
  }
};

/// Everything a reference run leaves behind for per-policy replay
/// (src/replay): the materialized trace (exactly warmup + measured
/// instructions, shareable across cells via SharedTraceView) and the ordered
/// full-core stall sequence, split at the warmup boundary.  Trace generation
/// is a pure function of (profile, run_seed) — it never consults core timing
/// — so the buffer is valid for every policy, including ones that perturb
/// timing and must fall back to direct simulation.
struct RunRecord {
  std::shared_ptr<const std::vector<Instr>> trace;
  StallSeries warmup_stalls;  ///< SoA (cpu/core.h): replay scans stream it
  StallSeries stalls;         ///< measured-phase stalls, in order

  /// The buffer a recording run fills before publishing it as `trace`:
  /// empty outside a run unless reserve() sized it.
  std::vector<Instr> trace_buffer;

  /// Reserve every buffer a recording of `warmup` + `instructions` fills,
  /// so the run allocates none of them: `trace_buffer`, which run_recorded
  /// adopts, and each stall series at its bound.  A core stalls at most
  /// once per instruction on a dependence plus once per load for an MLP
  /// credit (cpu/core.cpp), so at most twice per instruction; pages the
  /// run never touches are never made resident.  Sampled recording
  /// (src/sample) calls this on the calling thread before an executor
  /// thread records, because glibc keeps memory such a thread allocated in
  /// its own arena after it is freed.
  void reserve(std::uint64_t warmup, std::uint64_t instructions);
};

/// Throws std::invalid_argument, naming the config key and its value, for
/// a platform no model can be built for: a count below 1, a cache geometry
/// CacheConfig::valid() refuses, or a DRAM row smaller than a line.  Both
/// simulators run it before building any model.
void check_platform(const CoreConfig& core, const HierarchyConfig& mem);

class Simulator {
 public:
  /// Throws std::invalid_argument for a platform check_platform rejects.
  explicit Simulator(SimConfig config);

  /// Run one (workload, policy) combination.  `policy_spec` is a factory
  /// spec (see pg/factory.h).  Throws std::invalid_argument on a bad spec.
  SimResult run(const WorkloadProfile& profile,
                const std::string& policy_spec) const;

  /// Run with an externally provided trace source and policy (library API
  /// for custom workloads/policies; see examples/custom_policy.cpp).
  SimResult run(TraceSource& trace, const std::string& workload_name,
                PgPolicy& policy) const;

  /// Spec-based variant of the trace-source overload; run(profile, spec) is
  /// this overload fed by the profile's TraceGenerator.  Feeding the same
  /// stream from elsewhere gives a bit-identical result; the replay engine
  /// uses this to share one materialized trace across a sweep group's
  /// fallback cells.
  SimResult run(TraceSource& trace, const std::string& workload_name,
                const std::string& policy_spec) const;

  /// Like run(trace, workload_name, policy_spec), but additionally
  /// materializes the stream into `record.trace` (through
  /// `record.trace_buffer`, whose reserved capacity it adopts) and captures
  /// every full-core StallEvent (warmup and measured phases separately).  The
  /// returned result is bit-identical to the unrecorded run — recording only
  /// tees, it never perturbs timing.  record_timeline (src/replay) feeds it
  /// either a profile's TraceGenerator or an external window (sampled
  /// simulation).
  SimResult run_recorded(TraceSource& trace, const std::string& workload_name,
                         const std::string& policy_spec,
                         RunRecord& record) const;

  /// Like run(), but integrates the core hot-spot temperature epoch by
  /// epoch and applies the leakage-temperature feedback (R-Tab.7).  Uses
  /// config().thermal for the RC node parameters.
  ThermalResult run_thermal(const WorkloadProfile& profile,
                            const std::string& policy_spec) const;
  ThermalResult run_thermal(TraceSource& trace,
                            const std::string& workload_name,
                            PgPolicy& policy) const;

  const SimConfig& config() const { return config_; }

  /// The circuit-derived context policies should be constructed with.
  PolicyContext policy_context() const;

 private:
  SimResult run_impl(TraceSource& trace, const std::string& workload_name,
                     PgPolicy& policy, RunRecord* record) const;

  SimConfig config_;
};

/// make_policy (pg/factory.h) for every run path: where make_policy would
/// return nullptr, throws std::invalid_argument naming the spec.
std::unique_ptr<PgPolicy> build_policy(const std::string& policy_spec,
                                       const PolicyContext& ctx);

/// The warmup boundary of every simulated run: classify the warmup's DRAM
/// idle time, then zero core, hierarchy and controller stats so the
/// measured counters cover exactly the measured window.
void cross_warmup_boundary(Core& core, MemoryHierarchy& mem,
                           PgController& controller);

/// The end of every simulated run (direct and thermal): settle
/// DRAM power residency at the core's clock, then fill a SimResult from
/// core, hierarchy and controller stats plus the composed energy.
SimResult finish_run(const SimConfig& config, const PgCircuit& circuit,
                     const std::string& workload_name, const PgPolicy& policy,
                     const Core& core, MemoryHierarchy& mem,
                     const PgController& controller);

/// The energy half of finish_run, for a result whose core, DRAM and gating
/// stats are already in place (replay copies the reference's and swaps in
/// its own gating): core energy plus the DRAM breakdown.
void compose_result_energy(const SimConfig& config, const PgCircuit& circuit,
                           SimResult& result);

/// Stall-kernel inputs derived from the platform configuration: stepping
/// mode, DRAM refresh timing for the overlap meter, per-cycle energy rates
/// for the window-energy cross-check, coordinated-PD inputs.  Shared with
/// src/replay so a replayed controller resolves windows with byte-identical
/// parameters to the direct path.
StallKernelParams make_stall_kernel_params(const SimConfig& config,
                                           const PgCircuit& circuit);

}  // namespace mapg

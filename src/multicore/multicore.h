// Multicore MAPG: N cores with private L1s behind a shared L2 and shared
// DRAM, each with its own independent MAPG (or baseline) controller.
//
// This is the paper's natural scaling question (pursued by the same author
// group in the contemporaneous many-core power-gating work): shared-resource
// contention lengthens memory stalls and makes them *less* predictable at
// enqueue time (queueing behind other cores' requests), so per-core MAPG
// gains opportunity while relying more on the commit-point wakeup.
//
// Execution model: cores interleave in global time order — at every step the
// scheduler advances the core with the smallest local clock, so all shared
// L2/DRAM accesses are presented in non-decreasing time order (the contract
// those models require).  Each core runs its own synthetic workload in a
// disjoint address-space slice (multiprogrammed-mix methodology; no
// sharing, pure capacity/bandwidth contention).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sim.h"
#include "power/dram_energy.h"

namespace mapg {

struct MulticoreConfig {
  CoreConfig core{};
  /// Per-core L1 plus the SHARED L2/DRAM configuration.
  HierarchyConfig mem{};
  TechParams tech{};
  PgCircuitConfig pg{};
  DramEnergyParams dram_energy{};
  std::uint32_t num_cores = 4;
  std::uint64_t instructions_per_core = 1'000'000;
  std::uint64_t warmup_instructions = 100'000;  ///< per core
  std::uint64_t run_seed = 42;
  /// Address-space slice stride between cores (must exceed every profile's
  /// working set).
  Addr core_addr_stride = 1ULL << 40;
  /// Package di/dt budget: maximum concurrent per-core wakeup windows
  /// (0 = unlimited; see pg/wake_arbiter.h).
  std::uint32_t wake_arbiter_slots = 0;
  /// Stall-window stepping mode for every core and controller; same
  /// semantics and bit-identity contract as SimConfig::fast_forward.
  bool fast_forward = true;
  /// Scheduler implementation.  true (default): a min-heap over core clocks
  /// with a bulk-run horizon — the leading core retires instructions until
  /// the second-smallest clock would overtake it, amortizing dispatch from
  /// O(num_cores) per instruction to O(log num_cores) per lead change.
  /// false: the historical per-instruction linear min-scan.  Results are
  /// bit-identical either way (tests/test_differential.cpp).  Not a config
  /// key: the scan is a reference oracle that tests select directly.
  bool heap_scheduler = true;
};

/// Per-core outcome of a multicore run.
struct CoreSlotResult {
  std::string workload;
  /// false when the core's trace ended before the warmup target was reached:
  /// no uncontaminated measurement exists, so the statistics are zeroed
  /// (instrs == 0) rather than frozen with warmup traffic mixed in.  Only
  /// possible with externally supplied finite traces — generated traces
  /// never end.
  bool valid = true;
  CoreStats core;
  HierarchyStats hier;
  GatingStats gating;
  /// Core-domain energy only (dynamic + own leakage + idle clock + PG
  /// overhead); the shared L2/infrastructure leakage is accounted once at
  /// the MulticoreResult level.
  EnergyBreakdown energy;

  double mpki() const {
    return core.instrs ? 1000.0 * static_cast<double>(hier.served_dram) /
                             static_cast<double>(core.instrs)
                       : 0.0;
  }
  double gated_time_fraction() const {
    return core.cycles ? static_cast<double>(gating.activity.gated_cycles) /
                             static_cast<double>(core.cycles)
                       : 0.0;
  }
};

struct MulticoreResult {
  std::string policy;
  std::vector<CoreSlotResult> cores;
  CacheStats shared_l2;
  DramStats dram;
  Cycle makespan = 0;        ///< longest per-core measured time
  double shared_leak_j = 0;  ///< L2 + infrastructure leakage over makespan
  std::uint64_t wake_delayed_grants = 0;  ///< wakeups postponed by the arbiter
  std::uint64_t wake_delay_cycles = 0;    ///< total postponement
  double dram_j = 0;  ///< shared DRAM energy over the makespan

  double total_j() const {
    double j = shared_leak_j + dram_j;
    // Per-core: gated-domain energy plus the private L1 leakage (which is
    // the only ungated component left in per-core accounting).
    for (const auto& c : cores)
      j += c.energy.core_domain_j() + c.energy.ungated_leak_j;
    return j;
  }
  double total_core_domain_j() const {
    double j = 0;
    for (const auto& c : cores) j += c.energy.core_domain_j();
    return j;
  }
  double avg_gated_fraction() const {
    if (cores.empty()) return 0;
    double f = 0;
    for (const auto& c : cores) f += c.gated_time_fraction();
    return f / static_cast<double>(cores.size());
  }
};

/// check_platform (core/sim.h) over the platform a multicore run builds,
/// and a core count of at least 1.
void check_platform(const MulticoreConfig& config);

class MulticoreSim {
 public:
  explicit MulticoreSim(MulticoreConfig config);

  /// Run `num_cores` cores; core i executes workloads[i % workloads.size()].
  /// Every core uses an independent instance of the given policy spec.
  MulticoreResult run(const std::vector<WorkloadProfile>& workloads,
                      const std::string& policy_spec) const;

  /// Same run, but core i consumes traces[i] instead of generating a stream
  /// from its profile (workloads still label the slots and must be sized
  /// num_cores or evenly cycled).  The caller owns the sources and their
  /// address-space layout; a source that ends before the warmup target
  /// yields an invalid slot (CoreSlotResult::valid == false).
  MulticoreResult run(const std::vector<WorkloadProfile>& workloads,
                      const std::string& policy_spec,
                      const std::vector<TraceSource*>& traces) const;

  const MulticoreConfig& config() const { return config_; }

 private:
  MulticoreResult run_impl(const std::vector<WorkloadProfile>& workloads,
                           const std::string& policy_spec,
                           const std::vector<TraceSource*>* ext_traces) const;

  MulticoreConfig config_;
};

}  // namespace mapg

#include "multicore/multicore.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "trace/trace_io.h"

namespace mapg {
namespace {

/// Everything one core needs, bundled for the interleaving scheduler.
struct Slot {
  std::string workload;
  std::unique_ptr<TraceGenerator> gen;        ///< null for external traces
  std::unique_ptr<OffsetTraceSource> trace;   ///< null for external traces
  TraceSource* src = nullptr;  ///< the source the core actually consumes
  std::unique_ptr<MemoryHierarchy> mem;
  std::unique_ptr<PgPolicy> policy;
  std::unique_ptr<PgController> controller;
  std::unique_ptr<Core> core;
  std::uint64_t executed = 0;
  bool warmed = false;     ///< crossed the warmup instruction count
  bool done = false;       ///< crossed warmup + measurement; stats frozen
  bool exhausted = false;  ///< trace ended; core no longer schedulable
  bool invalid = false;    ///< trace ended before warmup; stats zeroed
  // Stats frozen at the measurement crossing point.
  CoreStats final_core;
  HierarchyStats final_hier;
  GatingStats final_gating;
};

}  // namespace

MulticoreSim::MulticoreSim(MulticoreConfig config)
    : config_(std::move(config)) {
  check_platform(config_.core, config_.mem);
  assert(config_.num_cores > 0 && "need at least one core");
  assert(config_.mem.valid() && "invalid hierarchy configuration");
}

MulticoreResult MulticoreSim::run(
    const std::vector<WorkloadProfile>& workloads,
    const std::string& policy_spec) const {
  return run_impl(workloads, policy_spec, nullptr);
}

MulticoreResult MulticoreSim::run(
    const std::vector<WorkloadProfile>& workloads,
    const std::string& policy_spec,
    const std::vector<TraceSource*>& traces) const {
  if (traces.size() != config_.num_cores)
    throw std::invalid_argument("need one trace source per core");
  for (TraceSource* t : traces)
    if (t == nullptr)
      throw std::invalid_argument("null trace source");
  return run_impl(workloads, policy_spec, &traces);
}

MulticoreResult MulticoreSim::run_impl(
    const std::vector<WorkloadProfile>& workloads,
    const std::string& policy_spec,
    const std::vector<TraceSource*>* ext_traces) const {
  if (workloads.empty())
    throw std::invalid_argument("need at least one workload profile");
  // External traces carry their own address layout; the stride guard only
  // applies to the generated disjoint-slice scheme.
  if (ext_traces == nullptr) {
    for (const auto& w : workloads) {
      if (w.working_set_bytes > config_.core_addr_stride)
        throw std::invalid_argument("workload '" + w.name +
                                    "' exceeds the per-core address stride");
    }
  }

  const PgCircuit circuit(config_.pg, config_.tech);
  const PolicyContext ctx = PgController::make_context(circuit);

  StallKernelParams kparams;
  kparams.mode = config_.fast_forward ? StepMode::kFastForward
                                      : StepMode::kCycleAccurate;
  kparams.t_refi = config_.mem.dram.t_refi;
  kparams.t_rfc = config_.mem.dram.t_rfc;
  kparams.rates = StallEnergyRates::make(
      config_.tech, circuit, config_.dram_energy, config_.mem.dram.channels);
  // kparams.dram_pd stays disabled: coordinated CPU–DRAM gating
  // (DramPowerMode::kCoordinated) assumes the gating core is the only
  // traffic source, which does not hold for a shared DRAM — another core
  // may hit a channel this core's closed form counted as parked.  Timeout
  // mode (kTimeout) needs no coordination and works here unchanged; a
  // "-dram" policy suffix is accepted but has no effect in multicore.

  Cache shared_l2(config_.mem.l2);
  Dram shared_dram(config_.mem.dram);
  WakeArbiter arbiter(config_.wake_arbiter_slots);
  WakeArbiter* arbiter_ptr =
      config_.wake_arbiter_slots > 0 ? &arbiter : nullptr;

  std::vector<Slot> slots(config_.num_cores);
  for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
    Slot& s = slots[i];
    const WorkloadProfile& w = workloads[i % workloads.size()];
    s.workload = w.name;
    if (ext_traces != nullptr) {
      s.src = (*ext_traces)[i];
    } else {
      // Distinct run seeds: cores running the same profile still draw
      // independent traces.
      s.gen = std::make_unique<TraceGenerator>(w, config_.run_seed + i);
      s.trace = std::make_unique<OffsetTraceSource>(
          *s.gen, config_.core_addr_stride * i);
      s.src = s.trace.get();
    }
    s.mem = std::make_unique<MemoryHierarchy>(config_.mem, shared_l2,
                                              shared_dram);
    s.policy = build_policy(policy_spec, ctx);
    s.controller = std::make_unique<PgController>(*s.policy, circuit,
                                                  arbiter_ptr, kparams);
    s.core =
        std::make_unique<Core>(config_.core, *s.mem, s.controller.get());
    s.core->set_step_mode(kparams.mode);
  }

  // Interleaved execution, always stepping the core with the smallest local
  // clock so shared-L2/DRAM accesses stay in globally non-decreasing time
  // order.  Cores are NEVER paused at instruction barriers: a core that
  // crosses its warmup count resets its own statistics mid-run, and one
  // that crosses its measurement quota freezes a snapshot but keeps running
  // (loading the shared memory system realistically) until every core has
  // finished — the standard multiprogrammed-mix methodology.  Pausing fast
  // cores at a barrier would desynchronize core clocks and make their later
  // requests queue behind shared-resource state from the "future".
  const std::uint64_t warm_target = config_.warmup_instructions;
  const std::uint64_t total_target =
      config_.warmup_instructions + config_.instructions_per_core;
  std::uint32_t warmed_count = 0;
  std::uint32_t done_count = 0;

  auto warm_slot = [&](Slot& s) {
    s.warmed = true;
    s.core->reset_stats();
    s.mem->reset_stats();  // private L1 + own counters (L2/DRAM shared)
    s.controller->reset_stats();
    if (++warmed_count == config_.num_cores) {
      // Shared statistics reset once, when the last core exits warmup (an
      // aggregate approximation: earlier cores' first measured requests are
      // not in the shared counters).  Warmup idle is classified into the
      // power-residency counters first so the reset discards it cleanly.
      shared_dram.settle_power(s.core->now());
      shared_l2.reset_stats();
      shared_dram.reset_stats();
      arbiter.reset_stats();
    }
  };
  auto finish_slot = [&](Slot& s) {
    s.done = true;
    s.final_core = s.core->stats();
    s.final_hier = s.mem->stats();
    s.final_gating = s.controller->stats();
    ++done_count;
  };
  // The trace ended (only possible for finite external sources).  If that
  // happened before the warmup target there is no uncontaminated
  // measurement: zero the statistics and flag the slot invalid instead of
  // freezing warmup traffic as if it were measured.
  auto exhaust_slot = [&](Slot& s) {
    s.exhausted = true;
    if (s.done) return;
    if (!s.warmed) {
      s.invalid = true;
      s.core->reset_stats();
      s.mem->reset_stats();
      s.controller->reset_stats();
    }
    finish_slot(s);
  };

  if (warm_target == 0)
    for (auto& s : slots) warm_slot(s);

  // Shared by both schedulers: retire one instruction on slot s, crossing
  // the warmup / measurement thresholds as they are reached.  Returns false
  // when the slot's trace ended.
  auto step_slot = [&](Slot& s) {
    if (!s.core->step(*s.src)) {
      exhaust_slot(s);
      return false;
    }
    ++s.executed;
    if (!s.warmed && s.executed >= warm_target) warm_slot(s);
    if (!s.done && s.executed >= total_target) finish_slot(s);
    return true;
  };

  if (config_.heap_scheduler) {
    // Min-heap of (local clock, slot index): pop the scheduling minimum and
    // let it retire instructions until the next entry would overtake it —
    // (clock, index) lexicographic order reproduces the linear scan's
    // lowest-index tie-break exactly, so the interleaving (and therefore
    // every shared-resource access order) is bit-identical to the scan.
    using Entry = std::pair<Cycle, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
    for (std::uint32_t i = 0; i < config_.num_cores; ++i)
      ready.emplace(slots[i].core->now(), i);

    while (done_count < config_.num_cores && !ready.empty()) {
      const std::uint32_t idx = ready.top().second;
      ready.pop();
      Slot& s = slots[idx];
      Cycle h_clk = std::numeric_limits<Cycle>::max();
      std::uint32_t h_idx = 0;
      if (!ready.empty()) {
        h_clk = ready.top().first;
        h_idx = ready.top().second;
      }
      bool alive = true;
      do {
        if (!step_slot(s)) {
          alive = false;
          break;
        }
        // Re-check after every retired instruction: crossing the last
        // measurement threshold ends the run immediately, mid-horizon.
        if (done_count >= config_.num_cores) break;
      } while (s.core->now() < h_clk ||
               (s.core->now() == h_clk && idx < h_idx));
      if (alive) ready.emplace(s.core->now(), idx);
    }
  } else {
    // Historical per-instruction linear min-scan, kept for the differential
    // suite to prove the heap scheduler bit-identical.
    while (done_count < config_.num_cores) {
      Slot* next = nullptr;
      for (auto& s : slots) {
        if (s.exhausted) continue;
        if (next == nullptr || s.core->now() < next->core->now()) next = &s;
      }
      if (next == nullptr) break;  // every trace exhausted
      step_slot(*next);
    }
  }

  MulticoreResult result;
  result.policy = slots.front().policy->name();
  result.shared_l2 = shared_l2.stats();
  // Classify the trailing idle up to the latest core clock before the
  // snapshot, so timeout-mode residency covers the whole shared window.
  Cycle global_end = 0;
  for (const auto& s : slots)
    global_end = std::max(global_end, s.core->now());
  shared_dram.settle_power(global_end);
  result.dram = shared_dram.stats();

  // Per-core energy uses a tech variant with the shared components zeroed,
  // so only the private L1 remains in per-core ungated leakage; the shared
  // L2 + infrastructure leakage is charged once, over the makespan.
  TechParams per_core_tech = config_.tech;
  per_core_tech.l2_leakage_w = 0;
  per_core_tech.other_leakage_w = 0;

  for (auto& s : slots) {
    CoreSlotResult slot_result;
    slot_result.workload = s.workload;
    slot_result.valid = !s.invalid;
    slot_result.core = s.final_core;
    slot_result.hier = s.final_hier;
    slot_result.gating = s.final_gating;
    slot_result.energy =
        compute_energy(per_core_tech, &circuit, slot_result.core,
                       slot_result.gating.activity);
    result.makespan = std::max(result.makespan, slot_result.core.cycles);
    result.cores.push_back(std::move(slot_result));
  }
  result.shared_leak_j =
      (config_.tech.l2_leakage_w + config_.tech.other_leakage_w) *
      config_.tech.cycles_to_seconds(static_cast<double>(result.makespan));
  result.wake_delayed_grants = arbiter.delayed_grants();
  result.wake_delay_cycles = arbiter.delay_cycles();
  result.dram_j =
      compute_dram_energy_j(result.dram, config_.mem.dram, config_.tech,
                            config_.dram_energy, result.makespan);
  return result;
}

}  // namespace mapg

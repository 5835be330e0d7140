#include "power/energy_model.h"

#include <cassert>
#include <sstream>

namespace mapg {

EnergyBreakdown compute_energy(const TechParams& tech, const PgCircuit* pg,
                               const CoreStats& core,
                               const GatingActivity& activity) {
  const std::uint64_t idle = core.idle_cycles();
  const std::uint64_t pg_cycles =
      activity.gated_cycles + activity.entry_cycles + activity.wake_cycles;
  assert(pg_cycles <= idle &&
         "gating activity exceeds the core's idle time: accounting bug");
  (void)idle;

  EnergyBreakdown e;

  // Dynamic: per committed instruction, by op class.
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    e.dynamic_j += static_cast<double>(core.instr_by_class[c]) *
                   tech.dyn_energy_nj[c] * 1e-9;
  }

  assert(activity.deep_transitions + activity.light_transitions ==
             activity.transitions &&
         activity.deep_gated_cycles + activity.light_gated_cycles ==
             activity.gated_cycles &&
         "per-mode gating splits out of sync with totals");

  const double total_s = tech.cycles_to_seconds(
      static_cast<double>(core.cycles));

  // Gated-region leakage: paid everywhere except while actually gated, and
  // even then the non-savable fraction still leaks; light sleep only
  // eliminates save_fraction(kLight) of the savable component.
  const double light_frac =
      pg != nullptr ? pg->save_fraction(SleepMode::kLight) : 0.0;
  const double effective_gated_s = tech.cycles_to_seconds(
      static_cast<double>(activity.deep_gated_cycles) +
      light_frac * static_cast<double>(activity.light_gated_cycles));
  e.core_leak_baseline_j = tech.core_leakage_w * total_s;
  e.core_leak_j =
      e.core_leak_baseline_j - tech.savable_leakage_w() * effective_gated_s;

  // Always-on leakage.
  e.ungated_leak_j =
      (tech.l1_leakage_w + tech.l2_leakage_w + tech.other_leakage_w) * total_s;

  // Residual clocking while idle but NOT in any power-gating phase
  // (entry/gated/wake all have the clock stopped).
  const std::uint64_t idle_ungated = idle - pg_cycles;
  e.idle_clock_j =
      tech.idle_clock_w * tech.cycles_to_seconds(
                              static_cast<double>(idle_ungated));

  if (pg != nullptr) {
    e.pg_overhead_j =
        pg->overhead_energy_j(SleepMode::kDeep) *
            static_cast<double>(activity.deep_transitions) +
        pg->overhead_energy_j(SleepMode::kLight) *
            static_cast<double>(activity.light_transitions);
  } else {
    assert(activity.transitions == 0 && activity.gated_cycles == 0 &&
           "gating activity reported without a PG circuit");
  }
  return e;
}

std::string energy_to_string(const EnergyBreakdown& e) {
  std::ostringstream os;
  auto mj = [](double j) { return j * 1e3; };
  os << "energy breakdown (mJ):\n"
     << "  dynamic      " << mj(e.dynamic_j) << "\n"
     << "  core leak    " << mj(e.core_leak_j) << " (baseline "
     << mj(e.core_leak_baseline_j) << ", saved " << mj(e.core_leak_saved_j())
     << ")\n"
     << "  ungated leak " << mj(e.ungated_leak_j) << "\n"
     << "  idle clock   " << mj(e.idle_clock_j) << "\n"
     << "  pg overhead  " << mj(e.pg_overhead_j) << "\n"
     << "  dram         " << mj(e.dram_j) << " (background "
     << mj(e.dram_background_j) << ", low-power saved "
     << mj(e.dram_lowpower_saved_j) << ")\n"
     << "  TOTAL        " << mj(e.total_j()) << "\n";
  return os.str();
}

}  // namespace mapg

// Technology / platform power parameters (45 nm-class, 3 GHz, 1.0 V).
//
// Values are representative of a 2012-era high-performance core and are the
// substitution for the paper's foundry characterization (DESIGN.md §3).
// Every energy number in the repository derives from this struct, so
// sensitivity studies (R-Fig.5) scale these fields rather than hard-coding.
//
// The off-chip side has its own parameter struct: DRAM per-event energies
// and per-state background powers (active / precharge power-down /
// self-refresh) live in power/dram_energy.h::DramEnergyParams, with the
// DDR3 datasheet derivation in docs/MEMORY_POWER.md.  The two structs meet
// in StallEnergyRates::make (power/interval_energy.h), which converts both
// to per-core-cycle joule rates using this struct's clock.
#pragma once

#include <array>

#include "trace/instr.h"

namespace mapg {

struct TechParams {
  double freq_ghz = 3.0;
  double vdd = 1.0;

  // --- Leakage (W) ---
  /// Leakage of the power-gated region (execution core: datapath, register
  /// files, scheduler).  This is what MAPG can switch off.
  double core_leakage_w = 0.50;
  /// Fraction of core_leakage_w actually eliminated when gated (sleep
  /// transistors and always-on retention logic still leak a little).
  double gated_fraction = 0.95;
  /// Ungated leakage: L1 arrays (state must survive gating).
  double l1_leakage_w = 0.05;
  /// Ungated leakage: L2/LLC arrays.
  double l2_leakage_w = 0.25;
  /// Ungated leakage: clock spine, PG controller, wakeup logic, PLL.
  double other_leakage_w = 0.08;

  // --- Dynamic energy per committed instruction (nJ), by op class ---
  // Order must match OpClass: alu, mul, div, fp, load, store, branch.
  std::array<double, kNumOpClasses> dyn_energy_nj = {0.15, 0.30, 0.90, 0.35,
                                                     0.40, 0.35, 0.18};

  /// Dynamic power burned while the core idles ungated (residual clocking;
  /// fine-grained clock gating is assumed, hence well below active power).
  double idle_clock_w = 0.10;

  // --- Unit helpers ---
  double cycle_time_ns() const { return 1.0 / freq_ghz; }
  double cycles_to_seconds(double cycles) const {
    return cycles * 1e-9 / freq_ghz;
  }
  double ns_to_cycles(double ns) const { return ns * freq_ghz; }

  /// Leakage power removed while gated (W).
  double savable_leakage_w() const { return core_leakage_w * gated_fraction; }
};

}  // namespace mapg

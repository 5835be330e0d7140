// Analytic power-gating circuit model.
//
// Substitutes for the paper's SPICE-characterized sleep-transistor network
// (DESIGN.md §3).  The architectural policy consumes exactly four circuit
// quantities, all derived here:
//
//   entry latency   -- isolate outputs + drain the virtual rail,
//   wakeup latency  -- staged sleep-transistor turn-on + rail settle,
//   overhead energy -- virtual-rail/decap recharge (C * dV * Vdd drawn from
//                      the supply) + sleep-transistor gate drive per on/off
//                      pair,
//   break-even time -- overhead energy divided by the leakage power saved.
//
// The rush-current model captures the architecture-visible trade-off: waking
// in N stages spreads the recharge charge over N stage windows, dividing the
// peak in-rush current by ~N at the cost of N * stage_delay wakeup latency.
// R-Fig.2 sweeps this trade-off.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "power/tech_params.h"

namespace mapg {

/// Sleep depth.  Deep sleep collapses the virtual rail fully (maximum
/// leakage savings, expensive recharge); light sleep is an intermediate
/// state that droops the rail only partially — it saves a fraction of the
/// leakage but costs far less to enter/exit, so it breaks even on shorter
/// stalls (multi-mode power gating, the classic intermediate-sleep-state
/// extension).
enum class SleepMode : std::uint8_t { kLight = 0, kDeep = 1 };

struct PgCircuitConfig {
  /// Virtual rail + local decap charged on wakeup (nF).  Sized for a
  /// ~1 mm^2 execution-core gating domain; MAPG's premise is a fine-grained
  /// domain whose recharge energy keeps the break-even time well below a
  /// single DRAM round trip (~60 ns).
  double c_vrail_nf = 6.0;
  /// Rail droop fraction after a full drain (how much of Vdd is recharged).
  double rail_swing_frac = 0.9;
  /// Gate-drive energy for the whole sleep-transistor bank, one off+on pair.
  double gate_charge_nj = 2.0;
  /// Number of wakeup stages (sleep-transistor bank partitions).
  std::uint32_t wakeup_stages = 8;
  /// Turn-on window per stage (ns).
  double stage_delay_ns = 1.0;
  /// Final rail-settle margin after the last stage (ns).
  double settle_ns = 2.0;
  /// Output isolation + rail drain time on entry (ns).
  double entry_ns = 2.0;
  /// Scale factor on overhead energy for sensitivity studies (R-Fig.5).
  double overhead_scale = 1.0;

  // --- Light (intermediate) sleep mode ---
  /// Rail droop fraction in light sleep (partial collapse).
  double light_swing_frac = 0.25;
  /// Fraction of the savable leakage actually eliminated in light sleep
  /// (the partially-drooped rail still suppresses most subthreshold paths).
  double light_save_frac = 0.55;
  /// Wakeup stages needed in light mode (less charge -> fewer stages for
  /// the same rush-current budget).
  std::uint32_t light_wakeup_stages = 2;
};

class PgCircuit {
 public:
  PgCircuit(const PgCircuitConfig& config, const TechParams& tech);

  /// Cycles from the gate decision until leakage saving begins (both modes:
  /// isolation dominates the entry time, not the drain depth).
  Cycle entry_latency_cycles() const { return entry_cycles_; }

  /// Cycles from wakeup initiation until the core may issue instructions.
  /// No-argument forms refer to deep sleep (the original MAPG mode).
  Cycle wakeup_latency_cycles() const { return wakeup_cycles_; }
  Cycle wakeup_latency_cycles(SleepMode mode) const {
    return mode == SleepMode::kDeep ? wakeup_cycles_ : light_wakeup_cycles_;
  }

  /// Energy drawn per complete sleep/wake transition (J).
  double overhead_energy_j() const { return overhead_j_; }
  double overhead_energy_j(SleepMode mode) const {
    return mode == SleepMode::kDeep ? overhead_j_ : light_overhead_j_;
  }

  /// Fraction of the savable leakage eliminated while gated in `mode`.
  double save_fraction(SleepMode mode) const {
    return mode == SleepMode::kDeep ? 1.0 : config_.light_save_frac;
  }

  /// Minimum gated time for a transition to pay for itself (cycles).
  Cycle break_even_cycles() const { return break_even_cycles_; }
  Cycle break_even_cycles(SleepMode mode) const {
    return mode == SleepMode::kDeep ? break_even_cycles_
                                    : light_break_even_cycles_;
  }

  /// Peak in-rush current during staged wakeup (A).  With N stages the
  /// recharge charge Q = C * dV is delivered as N packets of Q/N, each
  /// within one stage window.
  double rush_current_peak_a() const;

  /// Same, for a hypothetical stage count (for the R-Fig.2 sweep).
  double rush_current_peak_a(std::uint32_t stages) const;

  /// Wakeup latency for a hypothetical stage count (cycles).
  Cycle wakeup_latency_cycles(std::uint32_t stages) const;

  /// Smallest stage count whose peak rush current is <= imax_a; 0 if even
  /// the maximum supported staging (4096) cannot meet it.
  std::uint32_t min_stages_for_rush_limit(double imax_a) const;

  const PgCircuitConfig& config() const { return config_; }

 private:
  PgCircuitConfig config_;
  TechParams tech_;
  Cycle entry_cycles_ = 0;
  Cycle wakeup_cycles_ = 0;
  Cycle light_wakeup_cycles_ = 0;
  double overhead_j_ = 0.0;
  double light_overhead_j_ = 0.0;
  Cycle break_even_cycles_ = 0;
  Cycle light_break_even_cycles_ = 0;
};

}  // namespace mapg

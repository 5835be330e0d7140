// Temperature-dependent leakage (extension): the feedback loop power-gating
// papers care about.
//
// Subthreshold leakage grows roughly exponentially with junction
// temperature (doubling every ~25 K), and temperature follows dissipated
// power through the package's thermal resistance.  Gating therefore pays
// twice: it removes leakage directly, AND the cooler die leaks less during
// the time it is NOT gated.  The isothermal accounting used everywhere else
// in this repository understates MAPG's savings by exactly this feedback
// term; R-Tab.7 measures it.
//
// Model: a single-node RC thermal circuit for the core hot-spot,
//   dT/dt = (P * R_th - (T - T_amb)) / tau,
// integrated per epoch with the leakage multiplier
//   m(T) = 2^((T - T_ref) / doubling),
// where TechParams' leakage numbers are characterized at T_ref.
#pragma once

#include <cstdint>

#include "power/tech_params.h"

namespace mapg {

struct ThermalConfig {
  bool enable = false;
  /// Package/board baseline at the hot-spot.  Sized so the UNGATED core
  /// settles near the 85 C leakage characterization point (the regime a
  /// worst-case-designed part actually runs in): an always-on hot-spot
  /// dissipating ~0.65 W across 30 K/W sits at ~90 C; gating then cools it
  /// 10-15 K below T_ref, where the exponential pays out.
  double t_ambient_c = 70.0;
  double r_th_k_per_w = 30.0;     ///< junction-to-ambient, small-domain scale
  double tau_ms = 1.0;            ///< thermal time constant
  double t_ref_c = 85.0;          ///< leakage characterization temperature
  double leak_doubling_c = 25.0;  ///< leakage doubles every this many kelvin
  std::uint64_t epoch_instructions = 20'000;  ///< integration granularity
};

class ThermalModel {
 public:
  ThermalModel(const ThermalConfig& config, const TechParams& tech);

  /// Advance the node by `dt_s` seconds under average power `p_watts`.
  /// Returns the temperature at the end of the step (exact exponential
  /// integration of the linear RC node, stable for any dt).
  double step(double p_watts, double dt_s);

  double temperature_c() const { return t_c_; }

  /// Leakage scale factor at the current temperature (1.0 at t_ref_c).
  double leakage_multiplier() const;
  double leakage_multiplier(double t_c) const;

  /// Steady-state temperature under constant power (for tests/sizing).
  double steady_state_c(double p_watts) const {
    return config_.t_ambient_c + p_watts * config_.r_th_k_per_w;
  }

  const ThermalConfig& config() const { return config_; }

 private:
  ThermalConfig config_;
  double t_c_;
};

}  // namespace mapg

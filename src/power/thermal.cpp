#include "power/thermal.h"

#include <cmath>

namespace mapg {

ThermalModel::ThermalModel(const ThermalConfig& config, const TechParams& tech)
    : config_(config), t_c_(config.t_ambient_c) {
  (void)tech;
}

double ThermalModel::step(double p_watts, double dt_s) {
  // Exact solution of dT/dt = (T_target - T) / tau over dt:
  //   T(dt) = T_target + (T - T_target) * exp(-dt / tau).
  const double t_target = steady_state_c(p_watts);
  const double tau_s = config_.tau_ms * 1e-3;
  const double decay = std::exp(-dt_s / tau_s);
  t_c_ = t_target + (t_c_ - t_target) * decay;
  return t_c_;
}

double ThermalModel::leakage_multiplier(double t_c) const {
  return std::exp2((t_c - config_.t_ref_c) / config_.leak_doubling_c);
}

double ThermalModel::leakage_multiplier() const {
  return leakage_multiplier(t_c_);
}

}  // namespace mapg

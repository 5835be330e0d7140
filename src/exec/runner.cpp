#include "exec/runner.h"

namespace mapg {

Comparison score_against(const SimResult& base, SimResult result) {
  Comparison c;
  const double e_base = base.energy.total_j();
  const double e_run = result.energy.total_j();
  if (e_base > 0) c.total_energy_savings = 1.0 - e_run / e_base;

  const double ec_base = base.energy.core_domain_j();
  const double ec_run = result.energy.core_domain_j();
  if (ec_base > 0) c.core_energy_savings = 1.0 - ec_run / ec_base;

  const double leak_base = base.energy.core_leak_baseline_j;
  if (leak_base > 0) {
    c.net_leakage_savings =
        (result.energy.core_leak_saved_j() - result.energy.pg_overhead_j) /
        leak_base;
  }

  if (base.core.cycles > 0) {
    c.runtime_overhead = static_cast<double>(result.core.cycles) /
                             static_cast<double>(base.core.cycles) -
                         1.0;
  }
  c.result = std::move(result);
  return c;
}

ReplicatedComparison replicate(const SweepResult& sweep, std::size_t vi,
                               std::size_t wi, std::size_t pi) {
  ReplicatedComparison rep;
  for (std::size_t si = 0; si < sweep.n_seeds; ++si) {
    Comparison c = score_against(sweep.baseline(vi, wi, si),
                                 SimResult(sweep.result(vi, wi, pi, si)));
    rep.workload = c.result.workload;
    rep.policy = c.result.policy;
    rep.core_energy_savings.add(c.core_energy_savings);
    rep.total_energy_savings.add(c.total_energy_savings);
    rep.net_leakage_savings.add(c.net_leakage_savings);
    rep.runtime_overhead.add(c.runtime_overhead);
    rep.mpki.add(c.result.mpki());
    rep.ipc.add(c.result.ipc());
  }
  return rep;
}

}  // namespace mapg

// R-Tab.7 (extension) — Leakage-temperature feedback: how much extra saving
// the cooler gated die provides beyond isothermal accounting.
//
// Expected shape: two competing effects.  (a) Gating cools the die, so the
// awake-time leakage shrinks too — amplification.  (b) A workload whose
// UNGATED hot-spot never reaches the leakage characterization temperature
// runs with a multiplier below 1 for both policies, shrinking leakage's
// share of the total and thus the relative savings.  Amplification
// therefore shows on the hottest (most stall-heavy, always-leaking)
// workloads — mcf's ungated hot-spot sits at ~T_ref and gains ~2 points —
// while lukewarm workloads lose a fraction of a point.  Honest net: the
// feedback helps exactly where MAPG already helps most.
#include <exception>
#include <iostream>

#include "bench_util.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Tab.7", "leakage-temperature feedback", env);

  SimConfig cfg = env.sim;
  cfg.thermal.enable = true;
  const Simulator sim(cfg);
  std::cout << "thermal node: ambient " << cfg.thermal.t_ambient_c
            << " C, R_th " << cfg.thermal.r_th_k_per_w << " K/W, tau "
            << cfg.thermal.tau_ms << " ms; leakage ref "
            << cfg.thermal.t_ref_c << " C, doubling every "
            << cfg.thermal.leak_doubling_c << " K\n\n";

  Table t({"workload", "T_avg_none", "T_avg_mapg", "delta_T",
           "iso_savings", "thermal_savings", "amplification"});

  // Thermal runs are not cache-keyed: each (workload, policy) cell is one
  // parallel_for task, emitted in grid order afterwards.
  const std::vector<std::string> names = {
      "mcf-like",     "lbm-like", "libquantum-like",
      "omnetpp-like", "gcc-like", "gamess-like"};
  const std::vector<std::string> specs = {"none", "mapg"};
  std::vector<ThermalResult> results(names.size() * specs.size());
  try {
    env.engine->parallel_for(results.size(), [&](std::size_t i) {
      results[i] = sim.run_thermal(*find_profile(names[i / specs.size()]),
                                   specs[i % specs.size()]);
    });
  } catch (const std::exception& e) {
    std::cerr << "R-Tab.7: cell failed: " << e.what() << "\n";
    return 1;
  }

  for (std::size_t wi = 0; wi < names.size(); ++wi) {
    const ThermalResult& none = results[wi * specs.size()];
    const ThermalResult& mapg = results[wi * specs.size() + 1];

    const double iso =
        1.0 - mapg.sim.energy.total_j() / none.sim.energy.total_j();
    const double thermal =
        1.0 - mapg.thermal_total_j() / none.thermal_total_j();
    t.begin_row()
        .cell(names[wi])
        .cell(none.avg_temperature_c, 1)
        .cell(mapg.avg_temperature_c, 1)
        .cell(none.avg_temperature_c - mapg.avg_temperature_c, 1)
        .cell(format_percent(iso))
        .cell(format_percent(thermal))
        .cell(format_percent(thermal - iso));
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

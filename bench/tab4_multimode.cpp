// R-Tab.4 (extension) — Multi-mode sleep: deep-only MAPG vs per-stall
// light/deep selection across memory speeds.
//
// Expected shape: with slow memory every stall clears the deep horizon and
// the two policies coincide; as memory gets faster the stall distribution
// slides into the band where only the light (intermediate) state profits,
// so multi-mode keeps harvesting savings after deep-only MAPG has fallen
// off.  Overhead stays ~0 for both (early wakeup is mode-independent).
#include <iostream>

#include "bench_util.h"
#include "power/pg_circuit.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Tab.4", "multi-mode (light/deep) sleep selection", env);

  {
    const PgCircuit pg(env.sim.pg, env.sim.tech);
    std::cout << "deep:  wake=" << pg.wakeup_latency_cycles(SleepMode::kDeep)
              << "cyc BET=" << pg.break_even_cycles(SleepMode::kDeep)
              << "cyc saves=100%\n"
              << "light: wake=" << pg.wakeup_latency_cycles(SleepMode::kLight)
              << "cyc BET=" << pg.break_even_cycles(SleepMode::kLight)
              << "cyc saves="
              << format_percent(pg.save_fraction(SleepMode::kLight), 0)
              << "\n\n";
  }

  const std::vector<double> scales = {0.25, 0.5, 0.75, 1.0, 2.0};
  SweepSpec sweep;
  sweep.base = env.sim;
  for (const double scale : scales) {
    SimConfig cfg = env.sim;
    auto scaled = [&](Cycle c) {
      const auto v = static_cast<Cycle>(static_cast<double>(c) * scale);
      return v > 0 ? v : 1;
    };
    cfg.mem.dram.t_rcd = scaled(env.sim.mem.dram.t_rcd);
    cfg.mem.dram.t_rp = scaled(env.sim.mem.dram.t_rp);
    cfg.mem.dram.t_cl = scaled(env.sim.mem.dram.t_cl);
    cfg.mem.dram.t_ras = scaled(env.sim.mem.dram.t_ras);
    sweep.variants.emplace_back("dram=" + std::to_string(scale), cfg);
  }
  for (const char* workload : {"libquantum-like", "mcf-like"})
    sweep.workloads.push_back(*find_profile(workload));
  sweep.policy_specs = {"none", "mapg", "mapg-multimode", "oracle"};
  const SweepResult grid = env.engine->run_sweep(sweep);

  Table t({"dram_scale", "workload", "policy", "core_energy_savings",
           "runtime_overhead", "deep_events", "light_events",
           "mean_stall_len"});

  for (std::size_t vi = 0; vi < scales.size(); ++vi) {
    for (std::size_t wi = 0; wi < sweep.workloads.size(); ++wi) {
      for (std::size_t pi = 1; pi < sweep.policy_specs.size(); ++pi) {
        const Comparison c = score_against(
            grid.baseline(vi, wi), SimResult(grid.result(vi, wi, pi)));
        const SimResult& r = c.result;
        const double mean_stall =
            r.core.stalls_dram
                ? static_cast<double>(r.core.stall_cycles_dram) /
                      static_cast<double>(r.core.stalls_dram)
                : 0.0;
        t.begin_row()
            .cell(scales[vi], 2)
            .cell(sweep.workloads[wi].name)
            .cell(r.policy)
            .cell(format_percent(c.core_energy_savings))
            .cell(format_percent(c.runtime_overhead, 2))
            .cell(r.gating.activity.deep_transitions)
            .cell(r.gating.activity.light_transitions)
            .cell(mean_stall, 1);
      }
    }
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

// R-Fig.3 — Sensitivity to memory latency: core-domain energy savings as
// DRAM core timing (tRCD/tRP/tCL/tRAS) scales from 0.5x to 4x.
//
// Expected shape: longer memory latency -> longer stalls -> more gateable
// time -> higher savings for both MAPG and Oracle, with MAPG tracking the
// oracle across the sweep.  (The burst time and bus are left at 1x: this
// models a slower DRAM core behind the same interface.)
#include <iostream>

#include "bench_util.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Fig.3", "energy savings vs DRAM latency scaling", env);

  const std::vector<double> scales = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0};
  SweepSpec sweep;
  sweep.base = env.sim;
  for (const double scale : scales) {
    SimConfig cfg = env.sim;
    auto scaled = [&](Cycle c) {
      return static_cast<Cycle>(static_cast<double>(c) * scale);
    };
    cfg.mem.dram.t_rcd = scaled(env.sim.mem.dram.t_rcd);
    cfg.mem.dram.t_rp = scaled(env.sim.mem.dram.t_rp);
    cfg.mem.dram.t_cl = scaled(env.sim.mem.dram.t_cl);
    cfg.mem.dram.t_ras = scaled(env.sim.mem.dram.t_ras);
    sweep.variants.emplace_back("latency=" + std::to_string(scale), cfg);
  }
  sweep.workloads = representative_profiles();
  sweep.policy_specs = {"none", "mapg", "oracle"};
  const SweepResult grid = env.engine->run_sweep(sweep);

  Table t({"latency_scale", "workload", "policy", "core_energy_savings",
           "runtime_overhead", "gated_time", "mean_stall_len"});

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
            .cell(format_percent(r.gated_time_fraction()))
            .cell(mean_stall, 1);
      }
    }
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

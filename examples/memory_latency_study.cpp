// Memory-latency study: how MAPG's value scales with the memory technology
// behind the controller — from fast on-package DRAM (0.5x) to slow
// commodity or far-memory parts (4x).  Demonstrates programmatic SimConfig
// modification through the public API (the scenario the paper's
// introduction motivates: the slower the memory, the more leakage a stalled
// core wastes, and the more MAPG recovers).
//
//   ./memory_latency_study [--workload=mcf-like] [--instructions=1000000]
#include <iostream>

#include "common/config.h"
#include "common/table.h"
#include "exec/engine.h"
#include "exec/runner.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  KvConfig cfg;
  cfg.parse_args(argc, argv);
  const std::string workload = cfg.get_or("workload", "mcf-like");
  const WorkloadProfile* profile = find_profile(workload);
  if (profile == nullptr) {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 1;
  }

  SimConfig base;
  base.instructions = cfg.get_uint("instructions", 1'000'000);

  std::cout << "MAPG vs memory technology speed on " << profile->name
            << "\n(latency scale 1.0 = DDR3-1600-class timings seen from a "
               "3 GHz core)\n\n";

  Table t({"latency_scale", "read_latency_avg", "IPC", "stall_time",
           "mapg_core_savings", "mapg_overhead", "gated_time"});

  // One sweep: each latency scale is a config variant with its own
  // baseline.
  const std::vector<double> scales = {0.5, 1.0, 2.0, 4.0};
  SweepSpec sweep;
  for (const double scale : scales) {
    SimConfig sim_cfg = base;
    auto scaled = [&](Cycle c) {
      return static_cast<Cycle>(static_cast<double>(c) * scale);
    };
    sim_cfg.mem.dram.t_rcd = scaled(base.mem.dram.t_rcd);
    sim_cfg.mem.dram.t_rp = scaled(base.mem.dram.t_rp);
    sim_cfg.mem.dram.t_cl = scaled(base.mem.dram.t_cl);
    sim_cfg.mem.dram.t_ras = scaled(base.mem.dram.t_ras);
    sweep.variants.emplace_back("latency=" + std::to_string(scale), sim_cfg);
  }
  sweep.workloads = {*profile};
  sweep.policy_specs = {"none", "mapg"};
  ExperimentEngine engine;
  const SweepResult grid = engine.run_sweep(sweep);

  for (std::size_t vi = 0; vi < scales.size(); ++vi) {
    const Comparison c = score_against(grid.baseline(vi, 0),
                                       SimResult(grid.result(vi, 0, 1)));
    const SimResult& r = c.result;
    const double stall_frac =
        r.core.cycles ? static_cast<double>(r.core.stall_cycles_dram) /
                            static_cast<double>(r.core.cycles)
                      : 0.0;
    t.begin_row()
        .cell(scales[vi], 2)
        .cell(r.dram.read_latency.mean(), 1)
        .cell(r.ipc(), 3)
        .cell(format_percent(stall_frac))
        .cell(format_percent(c.core_energy_savings))
        .cell(format_percent(c.runtime_overhead, 2))
        .cell(format_percent(r.gated_time_fraction()));
  }
  t.print(std::cout);
  std::cout << "\nReading: slower memory -> more stall time -> more of the "
               "core's leakage\nis recoverable, while early wakeup keeps the "
               "overhead near zero throughout.\n";
  return 0;
}

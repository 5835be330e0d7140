// Quickstart: simulate one memory-bound workload under MAPG and compare it
// against the no-gating baseline and the clairvoyant oracle.
//
//   ./quickstart [--workload=mcf-like] [--instructions=2000000]
#include <iostream>

#include "common/config.h"
#include "common/table.h"
#include "core/sim.h"
#include "exec/engine.h"
#include "exec/runner.h"
#include "power/energy_model.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  KvConfig cfg;
  cfg.parse_args(argc, argv);
  const std::string workload = cfg.get_or("workload", "mcf-like");

  const WorkloadProfile* profile = find_profile(workload);
  if (profile == nullptr) {
    std::cerr << "unknown workload '" << workload << "'; available:\n";
    for (const auto& p : builtin_profiles())
      std::cerr << "  " << p.name << " — " << p.description << "\n";
    return 1;
  }

  SimConfig sim_cfg;
  sim_cfg.instructions = cfg.get_uint("instructions", 2'000'000);

  std::cout << "MAPG quickstart on " << profile->name << " ("
            << profile->description << ")\n";
  const PolicyContext ctx = Simulator(sim_cfg).policy_context();
  std::cout << "circuit: entry=" << ctx.entry_latency
            << "cyc, wakeup=" << ctx.wakeup_latency
            << "cyc, break-even=" << ctx.break_even << "cyc\n\n";

  // One sweep: the "none" baseline and both policies on the same trace.
  SweepSpec sweep;
  sweep.base = sim_cfg;
  sweep.workloads = {*profile};
  sweep.policy_specs = {"none", "mapg", "oracle"};
  ExperimentEngine engine;
  const SweepResult grid = engine.run_sweep(sweep);

  for (std::size_t pi = 0; pi < sweep.policy_specs.size(); ++pi) {
    const Comparison c =
        score_against(grid.baseline(0, 0), SimResult(grid.result(0, 0, pi)));
    const SimResult& r = c.result;
    std::cout << "policy " << r.policy << ":\n"
              << "  cycles " << r.core.cycles << "  IPC "
              << format_fixed(r.ipc(), 3) << "  MPKI "
              << format_fixed(r.mpki(), 1) << "\n"
              << "  gated " << format_percent(r.gated_time_fraction())
              << " of time across " << r.gating.gated_events
              << " gating events\n"
              << "  core-domain energy savings "
              << format_percent(c.core_energy_savings)
              << ", runtime overhead "
              << format_percent(c.runtime_overhead, 2) << "\n"
              << energy_to_string(r.energy) << "\n";
  }
  return 0;
}

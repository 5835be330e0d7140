// R-Fig.6 — The conventional-baseline design space: IdleTimeout savings and
// overhead across timeout thresholds, with MAPG as the reference line.
//
// Expected shape: small timeouts gate more but still pay the reactive
// wakeup on every stall (high overhead); large timeouts miss the stalls
// entirely.  No point on the timeout curve reaches MAPG's corner
// (high savings AND ~zero overhead) — the motivation for memory-access-
// driven gating.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Fig.6", "idle-timeout sweep vs MAPG reference", env);

  const std::vector<Cycle> timeouts = {0, 8, 16, 32, 64, 128, 256, 512};
  SweepSpec sweep;
  sweep.base = env.sim;
  sweep.workloads = representative_profiles();
  sweep.policy_specs = {"none"};
  for (const Cycle timeout : timeouts)
    sweep.policy_specs.push_back("idle-timeout:" + std::to_string(timeout));
  sweep.policy_specs.push_back("mapg");
  const std::size_t mapg_pi = sweep.policy_specs.size() - 1;
  const SweepResult grid = env.engine->run_sweep(sweep);

  Table t({"workload", "policy", "core_energy_savings", "net_leak_savings",
           "runtime_overhead", "gate_events", "timeout_missed"});

  for (std::size_t wi = 0; wi < sweep.workloads.size(); ++wi) {
    const std::string& name = sweep.workloads[wi].name;
    for (std::size_t pi = 1; pi < mapg_pi; ++pi) {
      const Comparison c = score_against(grid.baseline(0, wi),
                                         SimResult(grid.result(0, wi, pi)));
      t.begin_row()
          .cell(name)
          .cell(c.result.policy)
          .cell(format_percent(c.core_energy_savings))
          .cell(format_percent(c.net_leakage_savings))
          .cell(format_percent(c.runtime_overhead, 2))
          .cell(c.result.gating.gated_events)
          .cell(c.result.gating.timeout_missed);
    }
    const Comparison mapg = score_against(
        grid.baseline(0, wi), SimResult(grid.result(0, wi, mapg_pi)));
    t.begin_row()
        .cell(name)
        .cell("mapg (reference)")
        .cell(format_percent(mapg.core_energy_savings))
        .cell(format_percent(mapg.net_leakage_savings))
        .cell(format_percent(mapg.runtime_overhead, 2))
        .cell(mapg.result.gating.gated_events)
        .cell(std::uint64_t{0});
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

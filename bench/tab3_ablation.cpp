// R-Tab.3 — MAPG design-choice ablations across all workloads:
//   mapg                   full mechanism (threshold + filter + early wake)
//   mapg-aggressive        no profitability threshold (every DRAM stall)
//   mapg-noearly           no MC-initiated wakeup (reactive wake)
//   mapg-unfiltered        gate every full-core stall, even L1/L2 ones
//   idle-timeout:64        neither mechanism (conventional baseline)
//   idle-timeout-early:64  blind timeout entry + MAPG's early wakeup only
//
// The two idle-timeout rows decompose MAPG's advantage: early wakeup alone
// removes the runtime overhead; cause-driven immediate entry alone recovers
// the timeout's truncated savings; MAPG needs both.
//
// Expected shape: removing the threshold barely matters on memory-bound
// workloads (nearly all DRAM stalls are profitable) but adds unprofitable
// transitions on mixed ones; removing early wake converts the wakeup
// latency into runtime overhead; removing the DRAM filter changes nothing
// as long as the threshold stays (it already rejects short cache stalls).
#include <iostream>

#include "bench_util.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Tab.3", "MAPG mechanism ablations", env);

  const std::vector<std::string> specs = {
      "none",         "mapg",            "mapg-aggressive",
      "mapg-noearly", "mapg-unfiltered", "idle-timeout:64",
      "idle-timeout-early:64"};
  SweepSpec sweep;
  sweep.base = env.sim;
  sweep.workloads = builtin_profiles();
  sweep.policy_specs = specs;
  const SweepResult grid = env.engine->run_sweep(sweep);

  Table t({"workload", "variant", "core_energy_savings", "net_leak_savings",
           "runtime_overhead", "gate_events", "unprofitable",
           "aborted_entries"});

  for (std::size_t wi = 0; wi < sweep.workloads.size(); ++wi) {
    for (std::size_t pi = 1; pi < specs.size(); ++pi) {
      const Comparison c = score_against(grid.baseline(0, wi),
                                         SimResult(grid.result(0, wi, pi)));
      const SimResult& r = c.result;
      t.begin_row()
          .cell(sweep.workloads[wi].name)
          .cell(r.policy)
          .cell(format_percent(c.core_energy_savings))
          .cell(format_percent(c.net_leakage_savings))
          .cell(format_percent(c.runtime_overhead, 2))
          .cell(r.gating.gated_events)
          .cell(r.gating.unprofitable_events)
          .cell(r.gating.aborted_entries);
    }
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

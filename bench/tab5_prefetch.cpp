// R-Tab.5 (extension) — Interaction with latency hiding: MAPG savings as an
// L2 stream prefetcher of increasing degree removes the DRAM stalls it
// feeds on.
//
// Expected shape: on streaming workloads the prefetcher both speeds up the
// run (IPC up) and shrinks MAPG's harvest (gated time down) — total energy
// still improves because runtime shrinks.  On pointer-chasing workloads the
// prefetcher trains on nothing and MAPG's savings are untouched.  MAPG
// remains overhead-free throughout: the two techniques compose.
#include <iostream>

#include "bench_util.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Tab.5", "MAPG vs stream-prefetch degree", env);

  const std::vector<std::uint32_t> degrees = {0, 1, 2, 4, 8};
  SweepSpec sweep;
  sweep.base = env.sim;
  for (const std::uint32_t degree : degrees) {
    SimConfig cfg = env.sim;
    cfg.mem.prefetch.enable = degree > 0;
    cfg.mem.prefetch.degree = degree == 0 ? 1 : degree;
    sweep.variants.emplace_back("pf=" + std::to_string(degree), cfg);
  }
  for (const char* workload :
       {"libquantum-like", "lbm-like", "mcf-like", "omnetpp-like"})
    sweep.workloads.push_back(*find_profile(workload));
  sweep.policy_specs = {"none", "mapg"};
  const SweepResult grid = env.engine->run_sweep(sweep);

  Table t({"workload", "pf_degree", "IPC", "MPKI", "pf_issued/kinstr",
           "gated_time", "core_energy_savings", "runtime_overhead"});

  for (std::size_t wi = 0; wi < sweep.workloads.size(); ++wi) {
    for (std::size_t vi = 0; vi < degrees.size(); ++vi) {
      const Comparison c = score_against(grid.baseline(vi, wi),
                                         SimResult(grid.result(vi, wi, 1)));
      const SimResult& r = c.result;
      t.begin_row()
          .cell(sweep.workloads[wi].name)
          .cell(std::uint64_t{degrees[vi]})
          .cell(r.ipc(), 3)
          .cell(r.mpki(), 1)
          .cell(1000.0 * static_cast<double>(r.hier.prefetch_issued) /
                    static_cast<double>(r.core.instrs),
                1)
          .cell(format_percent(r.gated_time_fraction()))
          .cell(format_percent(c.core_energy_savings))
          .cell(format_percent(c.runtime_overhead, 2));
    }
  }
  bench::emit(t, env);
  std::cout << "note: savings/overhead are relative to the no-gating "
               "baseline WITH the same\nprefetcher, isolating the gating "
               "policy's contribution at each design point.\n";
  bench::report_engine(env);
  return 0;
}

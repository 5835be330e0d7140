// R-Fig.1 — Motivation: distribution of full-core memory-stall durations.
//
// Reproduces the argument that memory stalls are (a) frequent, (b) mostly
// 100-400 cycles long — above MAPG's effective break-even horizon but far
// too short for conventional idle-timeout gating once its timeout, entry
// and reactive-wakeup costs are paid.
//
// Output: one row per workload with stall statistics, then the per-workload
// stall-length histogram series (bucket midpoints x stall share).
#include <iostream>

#include "bench_util.h"
#include "power/pg_circuit.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 2'000'000);
  bench::banner("R-Fig.1", "full-core memory-stall duration distribution",
                env);

  const PgCircuit circuit(env.sim.pg, env.sim.tech);
  std::cout << "PG circuit horizon: entry=" << circuit.entry_latency_cycles()
            << "cyc wakeup=" << circuit.wakeup_latency_cycles()
            << "cyc break-even=" << circuit.break_even_cycles() << "cyc\n\n";

  Table summary({"workload", "MPKI", "IPC", "stalls/Minstr",
                 "stall_frac_of_time", "mean_len", "p50", "p90"});
  struct Series {
    std::string name;
    Histogram hist{0.0, 1024.0, 64};
  };
  std::vector<Series> series;

  SweepSpec sweep;
  sweep.base = env.sim;
  sweep.workloads = builtin_profiles();
  sweep.policy_specs = {"none"};
  const SweepResult grid = env.engine->run_sweep(sweep);

  for (std::size_t wi = 0; wi < sweep.workloads.size(); ++wi) {
    const SimResult& r = grid.result(0, wi, 0);
    const auto& h = r.core.dram_stall_hist;
    const double stall_frac =
        r.core.cycles
            ? static_cast<double>(r.core.stall_cycles_dram) /
                  static_cast<double>(r.core.cycles)
            : 0.0;
    const double mean_len =
        r.core.stalls_dram
            ? static_cast<double>(r.core.stall_cycles_dram) /
                  static_cast<double>(r.core.stalls_dram)
            : 0.0;
    summary.begin_row()
        .cell(r.workload)
        .cell(r.mpki(), 2)
        .cell(r.ipc(), 3)
        .cell(1e6 * static_cast<double>(r.core.stalls_dram) /
                  static_cast<double>(r.core.instrs),
              1)
        .cell(format_percent(stall_frac))
        .cell(mean_len, 1)
        .cell(h.quantile(0.5), 0)
        .cell(h.quantile(0.9), 0);
    series.push_back({r.workload, h});
  }
  bench::emit(summary, env);

  // Histogram series for the figure: share of stalls per 16-cycle bucket.
  Table fig({"stall_len_bucket", "workload", "share_of_stalls"});
  for (const auto& s : series) {
    if (s.hist.total() == 0) continue;
    for (std::size_t b = 0; b < s.hist.buckets(); ++b) {
      if (s.hist.bucket_count(b) == 0) continue;
      fig.begin_row()
          .cell(format_fixed((s.hist.bucket_lo(b) + s.hist.bucket_hi(b)) / 2,
                             0))
          .cell(s.name)
          .cell(static_cast<double>(s.hist.bucket_count(b)) /
                    static_cast<double>(s.hist.total()),
                4);
    }
  }
  bench::emit(fig, env);
  bench::report_engine(env);
  return 0;
}

// R-Fig.8 (extension) — Shared di/dt budget: per-core MAPG on 8 cores as
// the number of concurrent wakeup slots shrinks from unlimited to 1.
//
// Expected shape: with a generous budget nothing changes (wakeups rarely
// collide).  As slots shrink, colliding wakeups queue: cores stay gated
// slightly longer (marginally MORE leakage saved) but resume later, so
// runtime overhead appears — the multicore analogue of the single-core
// rush-current/staging trade-off in R-Fig.2.
#include <exception>
#include <iostream>

#include "bench_util.h"
#include "multicore/multicore.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 300'000, 100'000);
  bench::banner("R-Fig.8", "wakeup-slot budget on an 8-core package", env);

  const std::vector<WorkloadProfile> mix = {*find_profile("mcf-like"),
                                            *find_profile("libquantum-like")};

  MulticoreConfig base;
  base.num_cores = 8;
  base.instructions_per_core = env.sim.instructions;
  base.warmup_instructions = env.sim.warmup_instructions;
  base.run_seed = env.sim.run_seed;

  // Multicore runs are not cache-keyed: the no-gating reference (unlimited
  // slots) and each budget's MAPG run are parallel_for tasks.
  const std::vector<std::uint32_t> budgets = {0, 8, 4, 2, 1};
  std::vector<MulticoreResult> results(budgets.size() + 1);
  try {
    env.engine->parallel_for(results.size(), [&](std::size_t i) {
      MulticoreConfig cfg = base;
      cfg.wake_arbiter_slots = i == 0 ? 0 : budgets[i - 1];
      results[i] = MulticoreSim(cfg).run(mix, i == 0 ? "none" : "mapg");
    });
  } catch (const std::exception& e) {
    std::cerr << "R-Fig.8: cell failed: " << e.what() << "\n";
    return 1;
  }
  const MulticoreResult& none = results[0];

  Table t({"wake_slots", "delayed_wakeups", "avg_delay", "makespan_overhead",
           "avg_gated_time", "energy_savings"});

  for (std::size_t bi = 0; bi < budgets.size(); ++bi) {
    const std::uint32_t arb_slots = budgets[bi];
    const MulticoreResult& r = results[bi + 1];

    const double overhead = static_cast<double>(r.makespan) /
                                static_cast<double>(none.makespan) -
                            1.0;
    const double avg_delay =
        r.wake_delayed_grants
            ? static_cast<double>(r.wake_delay_cycles) /
                  static_cast<double>(r.wake_delayed_grants)
            : 0.0;
    t.begin_row()
        .cell(arb_slots == 0 ? std::string("unlimited")
                             : std::to_string(arb_slots))
        .cell(r.wake_delayed_grants)
        .cell(avg_delay, 1)
        .cell(format_percent(overhead, 2))
        .cell(format_percent(r.avg_gated_fraction()))
        .cell(format_percent(1.0 - r.total_j() / none.total_j()));
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

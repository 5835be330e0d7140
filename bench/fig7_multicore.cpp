// R-Fig.7 (extension) — Multicore scaling: per-core MAPG under shared-L2 +
// shared-DRAM contention, 1-8 cores.
//
// Expected shape: contention lengthens memory stalls (queueing) and lowers
// the DRAM row-hit rate, so the gateable fraction of time GROWS with core
// count on memory-bound mixes — MAPG's savings scale up with integration
// density, while the commit-point early wakeup keeps overhead near zero.
//
// Multicore runs can't go through the single-core result cache (their
// identity spans a whole workload mix), but they parallelize the same way:
// each (mix, cores, policy) cell executes on the engine's --jobs threads via
// parallel_for, and rows are emitted in fixed grid order afterwards.
#include <exception>
#include <iostream>

#include "bench_util.h"
#include "multicore/multicore.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 500'000, 100'000);
  bench::banner("R-Fig.7", "multicore scaling of per-core MAPG", env);

  // Homogeneous memory-bound mix and a mixed bag.
  const std::vector<WorkloadProfile> mem_mix = {*find_profile("mcf-like")};
  const std::vector<WorkloadProfile> mixed = representative_profiles();

  const std::vector<std::string> mix_names = {"mcf-only", "mixed"};
  const std::vector<std::uint32_t> core_counts = {1, 2, 4, 8};
  const std::vector<std::string> policies = {"none", "mapg", "oracle"};

  struct Cell {
    std::string mix_name;
    std::uint32_t cores = 0;
    std::string policy;
  };
  std::vector<Cell> cells;
  for (const auto& mix_name : mix_names)
    for (const std::uint32_t cores : core_counts)
      for (const auto& policy : policies)
        cells.push_back({mix_name, cores, policy});

  std::vector<MulticoreResult> results(cells.size());
  try {
    env.engine->parallel_for(cells.size(), [&](std::size_t i) {
      const Cell& cell = cells[i];
      const auto& mix = cell.mix_name == "mcf-only" ? mem_mix : mixed;
      MulticoreConfig cfg;
      cfg.num_cores = cell.cores;
      cfg.instructions_per_core = env.sim.instructions;
      cfg.warmup_instructions = env.sim.warmup_instructions;
      cfg.run_seed = env.sim.run_seed;
      results[i] = MulticoreSim(cfg).run(mix, cell.policy);
    });
  } catch (const std::exception& e) {
    std::cerr << "R-Fig.7: cell failed: " << e.what() << "\n";
    return 1;
  }

  Table t({"mix", "cores", "policy", "dram_read_lat", "row_hit_rate",
           "avg_MPKI", "avg_gated_time", "pkg_energy_savings",
           "runtime_overhead"});

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].policy == "none") continue;  // the per-cell reference
    // The matching baseline is the "none" cell of the same (mix, cores)
    // group; groups are contiguous runs of `policies.size()` cells.
    const MulticoreResult& none =
        results[i - i % policies.size()];
    const MulticoreResult& r = results[i];

    double avg_mpki = 0;
    for (const auto& c : r.cores) avg_mpki += c.mpki();
    avg_mpki /= static_cast<double>(r.cores.size());

    const double savings = 1.0 - r.total_j() / none.total_j();
    const double overhead = static_cast<double>(r.makespan) /
                                static_cast<double>(none.makespan) -
                            1.0;
    t.begin_row()
        .cell(cells[i].mix_name)
        .cell(std::uint64_t{cells[i].cores})
        .cell(r.policy)
        .cell(r.dram.read_latency.mean(), 1)
        .cell(format_percent(r.dram.row_hit_rate()))
        .cell(avg_mpki, 1)
        .cell(format_percent(r.avg_gated_fraction()))
        .cell(format_percent(savings))
        .cell(format_percent(overhead, 2));
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

// R-Tab.8 (extension) — DRAM low-power states: timeout-parked channels vs
// coordinated CPU–DRAM gating (docs/MEMORY_POWER.md).
//
// Three platforms per workload, all running the same MAPG core policy:
//   off          no DRAM low-power states (the Tab.1 baseline platform)
//   timeout      idle channels enter precharge power-down on a per-channel
//                192-cycle timer (DRAM-side, policy-oblivious)
//   coordinated  the PG controller parks the idle channels for exactly the
//                window it gates the core, exits tXP early so the wakeup is
//                latency-hidden ("mapg-dram" spec + kCoordinated mode)
//
// Expected shape: timeout mode wins on DRAM energy wherever inter-access
// gaps beat the timer; cache-resident workloads (gamess) barely touch DRAM,
// the timer parks the channels almost permanently, and the saving
// approaches the PD/background power ratio.  Two second-order effects make
// the timing column interesting: PD entry precharges the banks, so on
// row-conflict-heavy pointer chasers (mcf, omnetpp) the timer acts as an
// accidental closed-page policy and RUNTIME IMPROVES (negative overhead) —
// while on streaming row-hit workloads (libquantum) the same precharge
// destroys row locality and the extra ACTIVATE energy can exceed the tiny
// residency saving (negative to_save).  Coordinated mode only parks during
// gated stalls with the exit scheduled tXP before data return: smaller but
// never-negative savings, and no timing perturbation at all.
#include <iostream>

#include "bench_util.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Tab.8", "DRAM low-power states", env);

  SimConfig off_cfg = env.sim;
  off_cfg.mem.dram.power.mode = DramPowerMode::kOff;
  SimConfig to_cfg = env.sim;
  to_cfg.mem.dram.power.mode = DramPowerMode::kTimeout;
  SimConfig co_cfg = env.sim;
  co_cfg.mem.dram.power.mode = DramPowerMode::kCoordinated;

  std::cout << "timings: tPD " << to_cfg.mem.dram.power.t_pd << ", tXP "
            << to_cfg.mem.dram.power.t_xp << ", tCKE "
            << to_cfg.mem.dram.power.t_cke << ", pd_timeout "
            << to_cfg.mem.dram.power.powerdown_timeout
            << " core cycles; background "
            << env.sim.dram_energy.background_w_per_channel * 1e3
            << " mW/ch, power-down "
            << env.sim.dram_energy.powerdown_w_per_channel * 1e3
            << " mW/ch\n\n";

  // Each platform fixes its own policy, so the cells are an explicit job
  // list rather than a sweep: (off, timeout, coordinated) per workload.
  const std::vector<std::string> names = {
      "mcf-like",     "lbm-like", "libquantum-like",
      "omnetpp-like", "gcc-like", "gamess-like"};
  std::vector<ExperimentJob> jobs;
  for (const std::string& name : names) {
    const WorkloadProfile& p = *find_profile(name);
    jobs.push_back({off_cfg, p, "mapg"});
    jobs.push_back({to_cfg, p, "mapg"});
    jobs.push_back({co_cfg, p, "mapg-dram"});
  }
  const std::vector<JobOutcome> cells = env.engine->run(jobs);
  for (const JobOutcome& o : cells)
    if (!o.ok) {
      std::cerr << "R-Tab.8: cell failed: " << o.error << "\n";
      return 1;
    }

  Table t({"workload", "dram_off_mJ", "dram_to_mJ", "dram_co_mJ", "to_save",
           "co_save", "to_overhead", "pd_resid", "co_windows"});

  for (std::size_t i = 0; i < names.size(); ++i) {
    const SimResult& off = *cells[3 * i].result;
    const SimResult& to = *cells[3 * i + 1].result;
    const SimResult& co = *cells[3 * i + 2].result;

    // Timeout mode perturbs timing (tXP on the critical path); coordinated
    // mode does not, so its runtime matches `off` and needs no column.
    const double to_overhead =
        static_cast<double>(to.core.cycles) / off.core.cycles - 1.0;
    const double pd_resid =
        static_cast<double>(to.dram.powerdown_cycles +
                            to.dram.selfrefresh_cycles) /
        (static_cast<double>(to.core.cycles) * to_cfg.mem.dram.channels);

    t.begin_row()
        .cell(names[i])
        .cell(off.energy.dram_j * 1e3, 3)
        .cell(to.energy.dram_j * 1e3, 3)
        .cell(co.energy.dram_j * 1e3, 3)
        .cell(format_percent(1.0 - to.energy.dram_j / off.energy.dram_j))
        .cell(format_percent(1.0 - co.energy.dram_j / off.energy.dram_j))
        .cell(format_percent(to_overhead, 2))
        .cell(format_percent(pd_resid))
        .cell(co.gating.dram_pd_windows);
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

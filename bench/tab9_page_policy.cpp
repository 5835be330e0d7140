// R-Tab.9 (extension) — the page-policy x DRAM-standard x gating-mode grid
// (docs/DRAM.md).
//
// Every cell runs the same MAPG core policy on one of the named DRAM timing
// standards (DDR3-1600 / DDR4-2400 / LPDDR4-3200, each with its IDD-class
// energy set) under one of the three page-management policies (open /
// closed / hybrid), with the FR-FCFS posted-write queue enabled — and is
// evaluated under two gating modes: DRAM low-power off, and coordinated
// CPU-DRAM gating ("mapg-dram" + DramPowerMode::kCoordinated).
//
// Expected shape: on streaming row-hit workloads (libquantum) the closed
// policy destroys row locality — every access pays a fresh ACT, runtime and
// DRAM energy both lose; on row-conflict pointer chasers (mcf, omnetpp) the
// closed policy converts conflicts (PRE+ACT on the critical path) into
// pre-hidden closed-bank opens and WINS on runtime.  The hybrid policy
// splits the difference by address.  Across standards, LPDDR4's small 2 KiB
// pages cut row locality but its mobile-class background power makes the
// coordinated saving fraction the largest of the three — which is what moves
// MAPG's coordinated-gating crossover.
//
// Every cell is additionally re-run with the cycle-stepped reference kernel
// (--fast-forward=0 path) and the two canonical result encodings are
// compared: the closed-form coordinated math must be bit-identical to the
// stepped PowerDownMeter on the full grid, not just at the DDR3 defaults.
// A mismatching cell prints "DIFF" in the ff_ok column and the bench exits
// nonzero.  Both kernels' cells are engine jobs (fast_forward is part of the
// cache key), so a warm --cache-dir compares the stored encodings; the CI
// smoke runs the gate cold.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "exec/serialize.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 250'000);
  bench::banner("R-Tab.9", "DRAM page policy x standard x gating grid", env);

  const DramStandard kStandards[] = {DramStandard::kDdr3_1600,
                                     DramStandard::kDdr4_2400,
                                     DramStandard::kLpddr4_3200};
  const PagePolicy kPolicies[] = {PagePolicy::kOpen, PagePolicy::kClosed,
                                  PagePolicy::kHybrid};

  // Four cells per grid point, each fixing its own platform and policy:
  // (off, coordinated) x (closed form, stepped reference), one job list.
  const std::vector<std::string> names = {"libquantum-like", "mcf-like"};
  constexpr std::size_t kCellJobs = 4;
  std::vector<ExperimentJob> jobs;
  for (const std::string& name : names) {
    const WorkloadProfile& p = *find_profile(name);
    for (const DramStandard standard : kStandards) {
      for (const PagePolicy policy : kPolicies) {
        SimConfig cell = env.sim;
        apply_dram_standard(cell.mem.dram, standard);
        cell.dram_energy = dram_energy_for_standard(standard);
        cell.mem.dram.page_policy = policy;
        if (cell.mem.dram.queue_depth == 0) cell.mem.dram.queue_depth = 8;

        SimConfig off_cfg = cell;
        off_cfg.mem.dram.power.mode = DramPowerMode::kOff;
        SimConfig co_cfg = cell;
        co_cfg.mem.dram.power.mode = DramPowerMode::kCoordinated;
        SimConfig off_step = off_cfg;
        off_step.fast_forward = false;
        SimConfig co_step = co_cfg;
        co_step.fast_forward = false;
        jobs.push_back({off_cfg, p, "mapg"});
        jobs.push_back({co_cfg, p, "mapg-dram"});
        jobs.push_back({off_step, p, "mapg"});
        jobs.push_back({co_step, p, "mapg-dram"});
      }
    }
  }
  const std::vector<JobOutcome> cells = env.engine->run(jobs);
  for (const JobOutcome& o : cells)
    if (!o.ok) {
      std::cerr << "R-Tab.9: cell failed: " << o.error << "\n";
      return 1;
    }

  int bad_cells = 0;
  std::size_t next = 0;
  for (const std::string& name : names) {
    std::cout << "--- " << name << " ---\n";
    Table t({"standard", "policy", "cycles", "row_hit", "wq_wait",
             "dram_off_mJ", "dram_co_mJ", "co_save", "ff_ok"});

    for (const DramStandard standard : kStandards) {
      for (const PagePolicy policy : kPolicies) {
        const SimResult& off = *cells[next].result;
        const SimResult& co = *cells[next + 1].result;

        // The acceptance gate: the fast-forward closed form must match the
        // cycle-stepped reference bit-for-bit in BOTH gating modes of this
        // cell.  Canonical JSON covers every counter, histogram and energy
        // double, so nothing can drift silently.
        const bool ok =
            result_to_json(off).dump() ==
                result_to_json(*cells[next + 2].result).dump() &&
            result_to_json(co).dump() ==
                result_to_json(*cells[next + 3].result).dump();
        if (!ok) ++bad_cells;
        next += kCellJobs;

        const double wq_wait =
            off.dram.writes_queued
                ? static_cast<double>(off.dram.write_wait_cycles) /
                      static_cast<double>(off.dram.writes_queued)
                : 0.0;
        t.begin_row()
            .cell(to_string(standard))
            .cell(to_string(policy))
            .cell(off.core.cycles)
            .cell(format_percent(off.dram.row_hit_rate()))
            .cell(wq_wait, 1)
            .cell(off.energy.dram_j * 1e3, 3)
            .cell(co.energy.dram_j * 1e3, 3)
            .cell(format_percent(1.0 - co.energy.dram_j / off.energy.dram_j))
            .cell(ok ? "ok" : "DIFF");
      }
    }
    bench::emit(t, env);
  }
  bench::report_engine(env);

  if (bad_cells > 0) {
    std::cerr << "FAIL: " << bad_cells
              << " grid cell(s) diverged between the closed-form and "
                 "cycle-stepped kernels\n";
    return 1;
  }
  std::cout << "all grid cells: closed form == stepped reference "
               "(bit-identical canonical encodings)\n";
  return 0;
}

// Policy explorer: run any set of policies against any workload and print a
// full comparison, including per-policy gating diagnostics.  Demonstrates
// an ExperimentEngine sweep scored with score_against, and the policy-spec
// mini-language.
//
//   ./policy_explorer --workload=libquantum-like
//       --policies=none,idle-timeout:32,mapg,mapg-history,oracle
//       [--instructions=2000000] [--list]        (one command line)
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "exec/engine.h"
#include "exec/runner.h"
#include "pg/factory.h"
#include "trace/profile.h"

using namespace mapg;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  KvConfig cfg;
  cfg.parse_args(argc, argv);

  if (cfg.contains("list")) {
    std::cout << "workloads:\n";
    for (const auto& p : builtin_profiles())
      std::cout << "  " << p.name << " — " << p.description << "\n";
    std::cout << "\npolicy specs: none, idle-timeout:<N>, oracle, mapg,\n"
                 "  mapg:alpha=<f>, mapg-aggressive, mapg-noearly,\n"
                 "  mapg-unfiltered, mapg-history[:ewma=<f>]\n";
    return 0;
  }

  const std::string workload = cfg.get_or("workload", "libquantum-like");
  const WorkloadProfile* profile = find_profile(workload);
  if (profile == nullptr) {
    std::cerr << "unknown workload '" << workload
              << "' (use --list to see options)\n";
    return 1;
  }

  std::vector<std::string> specs =
      split_csv(cfg.get_or("policies", ""));
  if (specs.empty()) specs = standard_policy_specs();

  SimConfig sim_cfg;
  sim_cfg.instructions = cfg.get_uint("instructions", 2'000'000);
  sim_cfg.warmup_instructions = cfg.get_uint("warmup", 250'000);
  sim_cfg.run_seed = cfg.get_uint("seed", 42);

  std::cout << "exploring " << profile->name << " (" << profile->description
            << ") over " << sim_cfg.instructions << " instructions\n\n";

  // One sweep over the "none" baseline and every spec; a bad spec fails
  // only its own cell.
  SweepSpec sweep;
  sweep.base = sim_cfg;
  sweep.workloads = {*profile};
  sweep.policy_specs = specs;
  sweep.policy_specs.insert(sweep.policy_specs.begin(), "none");
  ExperimentEngine engine;
  const SweepResult grid = engine.run_sweep(sweep);

  Table t({"policy", "IPC", "core_savings", "total_savings", "overhead",
           "gated_time", "events", "skipped", "unprofitable", "aborted",
           "avg_gated_len"});
  const JobOutcome& base = grid.at(0, 0, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobOutcome& cell = base.ok ? grid.at(0, 0, i + 1) : base;
    if (!cell.ok) {
      std::cerr << "skipping '" << specs[i] << "': " << cell.error << "\n";
      continue;
    }
    const Comparison c = score_against(*base.result, SimResult(*cell.result));
    const SimResult& r = c.result;
    const double avg_gated =
        r.gating.gated_events
            ? static_cast<double>(r.gating.activity.gated_cycles) /
                  static_cast<double>(r.gating.gated_events)
            : 0.0;
    t.begin_row()
        .cell(r.policy)
        .cell(r.ipc(), 3)
        .cell(format_percent(c.core_energy_savings))
        .cell(format_percent(c.total_energy_savings))
        .cell(format_percent(c.runtime_overhead, 2))
        .cell(format_percent(r.gated_time_fraction()))
        .cell(r.gating.gated_events)
        .cell(r.gating.skipped_events)
        .cell(r.gating.unprofitable_events)
        .cell(r.gating.aborted_entries)
        .cell(avg_gated, 1);
  }
  t.print(std::cout);
  return 0;
}

// R-Fig.4 — The early-wakeup mechanism: runtime overhead vs wakeup latency,
// with and without memory-controller-initiated wakeup.
//
// Expected shape: with early wakeup the overhead stays ~0 until the wakeup
// latency exceeds the controller's notice window (tCL + burst + fill return
// ~= 71 cycles at the default config), then grows with the excess.  Without
// it (reactive wake on data arrival), overhead grows linearly with wakeup
// latency from the start.  This is MAPG's key mechanism ablation.
#include <iostream>

#include "bench_util.h"
#include "power/pg_circuit.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000);
  bench::banner("R-Fig.4",
                "overhead vs wakeup latency, early vs reactive wake", env);

  const WorkloadProfile* profile = find_profile("mcf-like");
  const DramConfig& d = env.sim.mem.dram;
  std::cout << "controller notice window = tCL + tBL + fill_return = "
            << d.t_cl + d.t_bl + env.sim.mem.fill_return_latency
            << " cycles\n\n";

  // The baseline is independent of the PG circuit: compute it once, then
  // the (wakeup stages x policy) grid.
  SweepSpec base_sweep;
  base_sweep.base = env.sim;
  base_sweep.workloads = {*profile};
  base_sweep.policy_specs = {"none"};
  const SweepResult bases = env.engine->run_sweep(base_sweep);

  // The threshold rule makes plain MAPG decline all gating once
  // entry + wakeup + BET exceeds the residual estimate (~78-cycle wakeup at
  // the defaults) — savings drop to zero rather than overhead growing.  The
  // aggressive pair forces gating regardless, isolating the pure
  // wake-mechanism cost across the whole sweep.
  const std::vector<std::uint32_t> stages = {1,  4,  8,  12, 16, 20,
                                             24, 30, 36, 44, 56};
  SweepSpec sweep;
  sweep.base = env.sim;
  for (const std::uint32_t n : stages) {
    SimConfig cfg = env.sim;
    cfg.pg.wakeup_stages = n;
    sweep.variants.emplace_back("stages=" + std::to_string(n), cfg);
  }
  sweep.workloads = {*profile};
  sweep.policy_specs = {"mapg", "mapg-noearly", "mapg-aggressive",
                        "mapg-aggressive-noearly"};
  const SweepResult grid = env.engine->run_sweep(sweep);

  Table t({"wakeup_cycles", "policy", "runtime_overhead",
           "core_energy_savings", "gated_time", "penalty_per_event"});

  for (std::size_t vi = 0; vi < stages.size(); ++vi) {
    const SimConfig& cfg = sweep.variants[vi].second;
    const PgCircuit circuit(cfg.pg, cfg.tech);
    for (std::size_t pi = 0; pi < sweep.policy_specs.size(); ++pi) {
      const Comparison c = score_against(bases.result(0, 0, 0),
                                         SimResult(grid.result(vi, 0, pi)));
      const SimResult& r = c.result;
      const double penalty_per_event =
          r.gating.gated_events
              ? static_cast<double>(r.gating.penalty_cycles) /
                    static_cast<double>(r.gating.gated_events)
              : 0.0;
      t.begin_row()
          .cell(circuit.wakeup_latency_cycles())
          .cell(r.policy)
          .cell(format_percent(c.runtime_overhead, 2))
          .cell(format_percent(c.core_energy_savings))
          .cell(format_percent(r.gated_time_fraction()))
          .cell(penalty_per_event, 1);
    }
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

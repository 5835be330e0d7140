// R-Tab.6 (extension) — Non-stationary workloads: estimate-driven MAPG vs
// the history-driven predictor when the stall distribution keeps changing.
//
// Setup: transition overhead is scaled 2x (BET 94, gating horizon 130
// cycles) so the profitability boundary cuts through the stall
// distribution, and the trace alternates between a long-stall phase
// (mcf-like, ~180-cycle stalls: gate) and a short-stall phase (a
// loose-dependency streaming profile, ~100-cycle stalls: don't).  Plain
// MAPG is stateless — it reads the controller's residual estimate per
// stall, so phase switches cost it nothing — but that estimate is the
// no-contention CLOSED-ROW latency, which overestimates the row-hit-heavy
// short-stall phase and makes MAPG gate unprofitably there.  The history
// policy has the opposite failure mode: unbiased in steady state, but it
// must relearn across every switch.  The sweep shows which error dominates
// at each phase length (measured: the estimate's bias costs more than the
// predictor's staleness except at the very shortest phases — an argument
// for hybrid estimate+history policies as future work).
#include <exception>
#include <iostream>

#include "bench_util.h"
#include "pg/factory.h"
#include "trace/generator.h"
#include "trace/profile.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 1'000'000, 0);
  bench::banner("R-Tab.6", "phased workloads: estimate vs history", env);

  SimConfig cfg = env.sim;
  cfg.pg.overhead_scale = 2.0;  // BET 94: short stalls become unprofitable
  const WorkloadProfile mem_phase = *find_profile("mcf-like");
  WorkloadProfile short_phase = *find_profile("libquantum-like");
  short_phase.name = "stream-loose";
  short_phase.dep_dist_mean = 24;  // consumers trail: residuals shrink
  const Simulator sim(cfg);
  const PolicyContext ctx = sim.policy_context();
  std::cout << "gating horizon: entry+wakeup+BET = "
            << ctx.entry_latency + ctx.wakeup_latency + ctx.break_even
            << " cycles\n\n";

  Table t({"phase_len_instrs", "policy", "core_energy_savings",
           "runtime_overhead", "gate_events", "unprofitable"});

  // The phased trace has no profile identity for the result cache, so the
  // cells run through parallel_for: per phase length, the no-gating
  // baseline and every spec, each over its own generator of the same trace.
  const std::vector<std::uint64_t> phase_lens = {2'000, 10'000, 50'000,
                                                 250'000, 1'000'000};
  const std::vector<std::string> specs = {"none", "mapg", "mapg-history",
                                          "mapg-hybrid", "oracle"};
  std::vector<SimResult> results(phase_lens.size() * specs.size());
  try {
    env.engine->parallel_for(results.size(), [&](std::size_t i) {
      PhasedTraceGenerator trace(mem_phase, short_phase,
                                 phase_lens[i / specs.size()],
                                 env.sim.run_seed);
      const auto policy = make_policy(specs[i % specs.size()], ctx);
      results[i] = sim.run(trace, "phased", *policy);
    });
  } catch (const std::exception& e) {
    std::cerr << "R-Tab.6: cell failed: " << e.what() << "\n";
    return 1;
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % specs.size() == 0) continue;  // the phase length's baseline
    const Comparison c =
        score_against(results[i - i % specs.size()], SimResult(results[i]));
    const SimResult& r = c.result;
    t.begin_row()
        .cell(phase_lens[i / specs.size()])
        .cell(r.policy)
        .cell(format_percent(c.core_energy_savings))
        .cell(format_percent(c.runtime_overhead, 2))
        .cell(r.gating.gated_events)
        .cell(r.gating.unprofitable_events);
  }
  bench::emit(t, env);
  bench::report_engine(env);
  return 0;
}

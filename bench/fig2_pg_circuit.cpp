// R-Fig.2 — PG circuit design space: staged wakeup trades peak rush current
// against wakeup latency; overhead energy sets the break-even time.
//
// Series 1: stage count -> wakeup latency, peak in-rush current.
// Series 2: rush-current budget -> minimum stage count and resulting wakeup.
// Series 3: overhead-energy scale -> break-even time (input to R-Fig.5).
#include <iostream>

#include "bench_util.h"
#include "power/pg_circuit.h"

using namespace mapg;

int main(int argc, char** argv) {
  bench::BenchEnv env = bench::parse_env(argc, argv, 0, 0);
  bench::banner("R-Fig.2", "PG circuit: staging vs rush current vs wakeup",
                env);

  const TechParams tech = env.sim.tech;

  Table stages({"stages", "wakeup_ns", "wakeup_cycles", "rush_peak_A",
                "overhead_nJ", "break_even_cycles"});
  for (std::uint32_t n : {1u, 2u, 4u, 6u, 8u, 12u, 16u, 24u, 32u}) {
    PgCircuitConfig cfg = env.sim.pg;
    cfg.wakeup_stages = n;
    const PgCircuit pg(cfg, tech);
    stages.begin_row()
        .cell(std::uint64_t{n})
        .cell(static_cast<double>(n) * cfg.stage_delay_ns + cfg.settle_ns, 1)
        .cell(pg.wakeup_latency_cycles())
        .cell(pg.rush_current_peak_a(), 3)
        .cell(pg.overhead_energy_j() * 1e9, 2)
        .cell(pg.break_even_cycles());
  }
  bench::emit(stages, env);

  Table budget({"imax_A", "min_stages", "wakeup_cycles_at_min"});
  const PgCircuit pg(env.sim.pg, tech);
  for (double imax : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const std::uint32_t n = pg.min_stages_for_rush_limit(imax);
    budget.begin_row().cell(imax, 2).cell(std::uint64_t{n});
    if (n > 0)
      budget.cell(pg.wakeup_latency_cycles(n));
    else
      budget.cell("unreachable");
  }
  bench::emit(budget, env);

  Table bet({"overhead_scale", "overhead_nJ", "break_even_cycles",
             "break_even_ns"});
  for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    PgCircuitConfig cfg = env.sim.pg;
    cfg.overhead_scale = scale;
    const PgCircuit c(cfg, tech);
    bet.begin_row()
        .cell(scale, 2)
        .cell(c.overhead_energy_j() * 1e9, 2)
        .cell(c.break_even_cycles())
        .cell(static_cast<double>(c.break_even_cycles()) *
                  tech.cycle_time_ns(),
              1);
  }
  bench::emit(bet, env);
  bench::report_engine(env);
  return 0;
}

#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "multicore/config_apply.h"
#include "obs/obs.h"
#include "obs/report.h"

namespace mapg::bench {

BenchEnv parse_env(int argc, char** argv, std::uint64_t default_instructions,
                   std::uint64_t default_warmup) {
  KvConfig cfg;
  for (const std::string& word : cfg.parse_args(argc, argv))
    if (word == "--no-cache") cfg.set("no-cache", "1");

  BenchEnv env;
  SimConfig base;
  base.instructions = default_instructions;
  base.warmup_instructions = default_warmup;
  env.sim = apply_sim_config(cfg, base);
  try {
    // Every cell the bench runs is built on this platform.
    check_platform(env.sim);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(1);
  }
  // apply_sim_config keeps the current setting for a name it does not
  // recognize; say so for the two named presets.  --dram-standard=ddr3-1600
  // is bit-identical to the default (the preset IS the default timing set).
  if (const auto name = cfg.get("dram-standard")) {
    DramStandard standard;
    if (!parse_dram_standard(*name, standard))
      std::cerr << "warning: unknown --dram-standard '" << *name
                << "' (want ddr3-1600 | ddr4-2400 | lpddr4-3200 | custom)\n";
  }
  if (const auto name = cfg.get("page-policy")) {
    PagePolicy policy;
    if (!parse_page_policy(*name, policy))
      std::cerr << "warning: unknown --page-policy '" << *name
                << "' (want open | closed | hybrid)\n";
  }
  env.csv = cfg.get_bool("csv", false);
  env.exec = exec_options_from(cfg);

  // --- Observability flags (docs/OBSERVABILITY.md) ---
  env.metrics_out = cfg.get_or("metrics-out", "");
  env.trace_out = cfg.get_or("trace-out", "");
  if (!env.trace_out.empty())
    obs::EventTracer::instance().start(static_cast<std::size_t>(cfg.get_uint(
        "trace-buf", obs::EventTracer::kDefaultCapacity)));

  env.engine = std::make_shared<ExperimentEngine>(env.exec);
  return env;
}

void banner(const std::string& experiment_id, const std::string& title,
            const BenchEnv& env) {
  std::cout << "==== " << experiment_id << ": " << title << " ====\n"
            << "(reconstructed experiment, see DESIGN.md; instructions="
            << env.sim.instructions << ", warmup="
            << env.sim.warmup_instructions << ", seed=" << env.sim.run_seed
            << ")\n\n";
}

void emit(const Table& table, const BenchEnv& env) {
  if (env.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::cout << "\n";
}

void report_engine(const BenchEnv& env) {
  if (!env.engine) return;
  const EngineStats s = env.engine->stats();
  const CacheStatsSnapshot c = env.engine->cache().stats();
  std::fprintf(stderr,
               "[exec] %llu simulated, %llu replayed (%llu timelines, "
               "%llu full fallbacks), "
               "%llu cached (mem %llu / disk %llu), "
               "%llu failed, %.0f ms sim time across %u worker(s)\n",
               static_cast<unsigned long long>(s.jobs_run),
               static_cast<unsigned long long>(s.jobs_replayed),
               static_cast<unsigned long long>(s.timelines_recorded),
               static_cast<unsigned long long>(s.replay_fallbacks),
               static_cast<unsigned long long>(s.jobs_cached),
               static_cast<unsigned long long>(c.memory_hits),
               static_cast<unsigned long long>(c.disk_hits),
               static_cast<unsigned long long>(s.jobs_failed), s.busy_ms,
               env.engine->options().jobs);

  if (!env.metrics_out.empty() && obs::write_metrics_file(env.metrics_out))
    std::fprintf(stderr, "[obs] metrics -> %s\n", env.metrics_out.c_str());
  if (!env.trace_out.empty()) {
    obs::EventTracer& tracer = obs::EventTracer::instance();
    if (obs::finalize_and_write_trace(env.trace_out))
      std::fprintf(stderr,
                   "[obs] trace: %zu events (%llu dropped) -> %s\n",
                   tracer.size(),
                   static_cast<unsigned long long>(tracer.dropped()),
                   env.trace_out.c_str());
  }
}

}  // namespace mapg::bench

#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "obs/obs.h"
#include "obs/report.h"

namespace mapg::bench {

BenchEnv parse_env(int argc, char** argv, std::uint64_t default_instructions,
                   std::uint64_t default_warmup) {
  KvConfig cfg;
  const std::vector<std::string> leftovers = cfg.parse_args(argc, argv);

  BenchEnv env;
  env.sim.instructions = cfg.get_uint("instructions", default_instructions);
  env.sim.warmup_instructions = cfg.get_uint("warmup", default_warmup);
  env.sim.run_seed = cfg.get_uint("seed", 42);
  env.sim.fast_forward = cfg.get_bool("fast-forward", true);
  env.sim.checkpoint_stride =
      cfg.get_uint("checkpoint-stride", env.sim.checkpoint_stride);
  const std::string dram_power = cfg.get_or("dram-power", "off");
  if (dram_power == "timeout")
    env.sim.mem.dram.power.mode = DramPowerMode::kTimeout;
  else if (dram_power == "coordinated")
    env.sim.mem.dram.power.mode = DramPowerMode::kCoordinated;
  // Named timing standard: applied before any later per-key override a bench
  // may layer on, and paired with the standard's IDD-class energy set
  // (docs/DRAM.md).  --dram-standard=ddr3-1600 is bit-identical to the
  // default (the preset IS the default timing set).
  if (const auto standard_name = cfg.get("dram-standard")) {
    DramStandard standard;
    if (parse_dram_standard(*standard_name, standard)) {
      apply_dram_standard(env.sim.mem.dram, standard);
      env.sim.dram_energy = dram_energy_for_standard(standard);
    } else {
      std::cerr << "warning: unknown --dram-standard '" << *standard_name
                << "' (want ddr3-1600 | ddr4-2400 | lpddr4-3200 | custom)\n";
    }
  }
  if (const auto policy_name = cfg.get("page-policy")) {
    PagePolicy policy;
    if (parse_page_policy(*policy_name, policy))
      env.sim.mem.dram.page_policy = policy;
    else
      std::cerr << "warning: unknown --page-policy '" << *policy_name
                << "' (want open | closed | hybrid)\n";
  }
  env.sim.mem.dram.queue_depth = static_cast<std::uint32_t>(
      cfg.get_uint("dram.queue_depth", env.sim.mem.dram.queue_depth));
  env.csv = cfg.get_bool("csv", false);

  // --- Execution engine flags ---
  env.exec.jobs = static_cast<unsigned>(cfg.get_uint("jobs", 0));
  const char* env_cache = std::getenv("MAPG_CACHE_DIR");
  env.exec.cache_dir =
      cfg.get_or("cache-dir", env_cache != nullptr ? env_cache : "");
  env.exec.use_disk_cache = !cfg.get_bool("no-cache", false);
  for (const std::string& word : leftovers)
    if (word == "--no-cache") env.exec.use_disk_cache = false;
  env.exec.progress = cfg.get_bool("progress", false);
  env.exec.log_jsonl = cfg.get_or("runlog", "");
  env.exec.use_replay = cfg.get_bool("replay", true);

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
               "%llu full fallbacks, %llu prefix resumes), "
               "%llu cached (mem %llu / disk %llu), "
               "%llu failed, %.0f ms sim time across %u worker(s)\n",
               static_cast<unsigned long long>(s.jobs_run),
               static_cast<unsigned long long>(s.jobs_replayed),
               static_cast<unsigned long long>(s.timelines_recorded),
               static_cast<unsigned long long>(s.replay_fallbacks),
               static_cast<unsigned long long>(s.replay_prefix_resumes),
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

// mapg_sim — the command-line front end to the MAPG simulator.
//
// Single core:
//   mapg_sim --workload=mcf-like --policy=mapg
//   mapg_sim --workload=all --policy=std --instructions=2000000
//   mapg_sim --config=platform.cfg --workload=lbm-like --policy=oracle
//   mapg_sim --workload=mcf-like --policy=mapg --seeds=5      # replicated
// Multicore:
//   mapg_sim --cores=8 --workload=mcf-like,gamess-like --policy=mapg
// Any platform key from multicore/config_apply.h can be given either in the
// --config file or directly on the command line (e.g. --l2.size_kib=2048).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/log.h"
#include "common/table.h"
#include "exec/engine.h"
#include "exec/runner.h"
#include "multicore/config_apply.h"
#include "multicore/multicore.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "pg/factory.h"
#include "sample/runner.h"
#include "trace/profile.h"
#include "trace/trace_file.h"

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

int usage() {
  std::cout <<
      "usage: mapg_sim [options] (all key=value platform overrides accepted)\n"
      "  --workload=NAME[,NAME...]|all   workload profiles (see --list)\n"
      "  --policy=SPEC[,SPEC...]|std|abl policy specs (see --list)\n"
      "  --config=FILE                   key=value platform file\n"
      "  --cores=N                       run the multicore simulator\n"
      "  --seeds=N                       replicate over N trace seeds\n"
      "  --thermal.enable=1              leakage-temperature feedback mode\n"
      "  --dram-power=off|timeout|coordinated\n"
      "                                  DRAM low-power states (alias for\n"
      "                                  dram.power.mode; docs/MEMORY_POWER.md)\n"
      "  --dram-standard=ddr3-1600|ddr4-2400|lpddr4-3200\n"
      "                                  named DRAM timing + energy preset\n"
      "                                  (alias for dram.standard; docs/DRAM.md)\n"
      "  --page-policy=open|closed|hybrid\n"
      "                                  DRAM page-management policy (alias\n"
      "                                  for dram.page_policy; docs/DRAM.md)\n"
      "  --trace=FILE                    simulate an on-disk trace\n"
      "                                  (MAPGTRC2; docs/TRACE.md) instead\n"
      "                                  of a generated workload\n"
      "  --sample-regions=N              sampled simulation: region size in\n"
      "                                  instructions (0 = full run)\n"
      "  --sample-clusters=K             clusters / representatives (def 8)\n"
      "  --sample-warmup=N               warmup before each representative\n"
      "  --sample-seed=N                 clustering seed\n"
      "  --sample-sig-cache=FILE         signature cache (MAPGSIG1): load\n"
      "                                  when digest+slicing match, else\n"
      "                                  scan (on --jobs threads) and refresh\n"
      "  --instructions=N --warmup=N --seed=N\n"
      "  --jobs=N                        worker threads (default: all cores,\n"
      "                                  at most 256); also records sampled\n"
      "                                  representatives concurrently\n"
      "  --cache-dir=DIR                 persistent result cache\n"
      "                                  (default: $MAPG_CACHE_DIR)\n"
      "  --no-cache=1                    skip the disk cache this run\n"
      "  --progress=1                    live job meter on stderr\n"
      "  --runlog=FILE                   append per-job JSONL telemetry\n"
      "  --replay=0                      simulate every cell directly (no\n"
      "                                  timeline replay; same results)\n"
      "  --print-metrics                 metrics table on stdout after the run\n"
      "  --metrics-out=FILE              metrics snapshot as JSON\n"
      "  --trace-out=FILE                Chrome trace (Perfetto-loadable)\n"
      "  --trace-buf=N                   trace ring capacity in events\n"
      "  --csv=1                         CSV output\n"
      "  --list                          available workloads and policies\n";
  return 2;
}

void list_everything() {
  std::cout << "workloads:\n";
  for (const auto& p : builtin_profiles())
    std::cout << "  " << p.name << " — " << p.description << "\n";
  std::cout << "\npolicy specs:\n"
               "  none | idle-timeout:<N> | oracle | mapg | mapg:alpha=<f>\n"
               "  mapg-aggressive | mapg-noearly | mapg-unfiltered\n"
               "  mapg-history[:ewma=<f>] | mapg-hybrid[:ewma=<f>]\n"
               "  mapg-multimode | idle-timeout-early:<N>\n"
               "  <spec>-dram = coordinated CPU-DRAM gating decorator\n"
               "                (requires --dram-power=coordinated)\n"
               "  std = standard comparison set, abl = ablation set\n";
}

std::vector<WorkloadProfile> resolve_workloads(const std::string& arg) {
  std::vector<WorkloadProfile> out;
  if (arg == "all") return builtin_profiles();
  for (const auto& name : split_csv(arg)) {
    const WorkloadProfile* p = find_profile(name);
    if (p == nullptr) {
      std::cerr << "unknown workload '" << name << "' (try --list)\n";
      return {};
    }
    out.push_back(*p);
  }
  return out;
}

std::vector<std::string> resolve_policies(const std::string& arg) {
  if (arg == "std") return standard_policy_specs();
  if (arg == "abl") return ablation_policy_specs();
  return split_csv(arg);
}

int run_single(const KvConfig& kv, const std::vector<WorkloadProfile>& wls,
               const std::vector<std::string>& specs, bool csv,
               unsigned seeds) {
  std::vector<std::string> unknown;
  const SimConfig cfg = apply_sim_config(kv, SimConfig{}, &unknown);
  for (const auto& k : unknown)
    log_warn() << "ignoring unknown config key '" << k << "'";

  if (cfg.thermal.enable) {
    // Thermal mode: leakage-temperature feedback per run (seeds ignored).
    const Simulator sim(cfg);
    Table t({"workload", "policy", "T_avg_C", "T_peak_C", "iso_total_mJ",
             "thermal_total_mJ"});
    for (const auto& w : wls) {
      for (const auto& spec : specs) {
        ThermalResult r;
        try {
          r = sim.run_thermal(w, spec);
        } catch (const std::exception& e) {
          std::cerr << "policy '" << spec << "': " << e.what() << "\n";
          return 1;
        }
        t.begin_row()
            .cell(w.name)
            .cell(r.sim.policy)
            .cell(r.avg_temperature_c, 1)
            .cell(r.peak_temperature_c, 1)
            .cell(r.sim.energy.total_j() * 1e3, 3)
            .cell(r.thermal_total_j() * 1e3, 3);
      }
    }
    csv ? t.print_csv(std::cout) : t.print(std::cout);
    return 0;
  }

  // One sweep answers both tables: workloads x ({none} u specs) x seeds,
  // each group recording its `none` timeline once and replaying the rest.
  SweepSpec sweep;
  sweep.base = cfg;
  sweep.workloads = wls;
  sweep.policy_specs = specs;
  if (std::find(specs.begin(), specs.end(), "none") == specs.end())
    sweep.policy_specs.insert(sweep.policy_specs.begin(), "none");
  const std::size_t first = sweep.policy_specs.size() - specs.size();
  sweep.n_seeds = seeds;
  ExperimentEngine engine(exec_options_from(kv));
  const SweepResult grid = engine.run_sweep(sweep);

  // specs[i] is policy column first + i.  Report the first failed cell in
  // grid order (a spec's baseline before the spec itself), before any table
  // row prints.
  for (std::size_t wi = 0; wi < wls.size(); ++wi)
    for (std::size_t i = 0; i < specs.size(); ++i)
      for (std::size_t si = 0; si < grid.n_seeds; ++si)
        for (const std::size_t pi : {grid.baseline_policy, first + i}) {
          const JobOutcome& o = grid.at(0, wi, pi, si);
          if (!o.ok) {
            std::cerr << "policy '" << specs[i] << "': " << o.error << "\n";
            return 1;
          }
        }

  if (seeds > 1) {
    Table t({"workload", "policy", "core_savings_mean", "core_savings_stdev",
             "overhead_mean", "overhead_max", "mpki_mean", "seeds"});
    for (std::size_t wi = 0; wi < wls.size(); ++wi) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i] == "none") continue;
        const ReplicatedComparison r = replicate(grid, 0, wi, first + i);
        t.begin_row()
            .cell(r.workload)
            .cell(r.policy)
            .cell(format_percent(r.core_energy_savings.mean()))
            .cell(format_percent(r.core_energy_savings.stdev(), 2))
            .cell(format_percent(r.runtime_overhead.mean(), 2))
            .cell(format_percent(r.runtime_overhead.max(), 2))
            .cell(r.mpki.mean(), 1)
            .cell(r.replicates());
      }
    }
    csv ? t.print_csv(std::cout) : t.print(std::cout);
    return 0;
  }

  Table t({"workload", "MPKI", "IPC", "policy", "core_savings",
           "total_savings", "overhead", "gated_time", "events"});
  for (std::size_t wi = 0; wi < wls.size(); ++wi) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Comparison c =
          score_against(grid.baseline(0, wi),
                        SimResult(grid.result(0, wi, first + i)));
      const SimResult& r = c.result;
      t.begin_row()
          .cell(wls[wi].name)
          .cell(r.mpki(), 1)
          .cell(r.ipc(), 3)
          .cell(r.policy)
          .cell(format_percent(c.core_energy_savings))
          .cell(format_percent(c.total_energy_savings))
          .cell(format_percent(c.runtime_overhead, 2))
          .cell(format_percent(r.gated_time_fraction()))
          .cell(r.gating.gated_events);
    }
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  return 0;
}

/// "value±halfwidth" rendering for sampled estimates (the halfwidth is the
/// 95% CI; exact values print without the ±).
std::string pm(const MetricEstimate& e, int prec) {
  char buf[64];
  if (e.stderr_ == 0) {
    std::snprintf(buf, sizeof buf, "%.*f", prec, e.value);
  } else {
    std::snprintf(buf, sizeof buf, "%.*f±%.*f", prec, e.value, prec,
                  e.value - e.ci_lo);
  }
  return buf;
}

int run_trace(const KvConfig& kv, const std::vector<std::string>& specs,
              bool csv) {
  std::vector<std::string> unknown;
  SimConfig cfg = apply_sim_config(kv, SimConfig{}, &unknown);
  for (const auto& k : unknown)
    log_warn() << "ignoring unknown config key '" << k << "'";
  const std::string path = kv.get_or("trace", "");
  const std::string name = kv.get_or("trace-name", "trace:" + path);

  try {
    FileTraceSource trace(path);
    const std::uint64_t region = kv.get_uint("sample-regions", 0);

    if (region == 0) {
      // Full simulation of a trace window through the engine: the binding's
      // content digest keys the cache (exec schema v7).
      if (!kv.contains("warmup")) cfg.warmup_instructions = 0;
      const std::uint64_t avail =
          trace.size() > cfg.warmup_instructions
              ? trace.size() - cfg.warmup_instructions
              : 0;
      if (!kv.contains("instructions") || cfg.instructions > avail)
        cfg.instructions = avail;
      auto engine = std::make_shared<ExperimentEngine>(exec_options_from(kv));
      Table t({"workload", "instrs", "policy", "MPKI", "IPC", "gated_time",
               "total_mJ"});
      for (const auto& spec : specs) {
        ExperimentJob job;
        job.config = cfg;
        job.profile.name = name;
        job.policy_spec = spec;
        job.trace = TraceBinding{path, trace.info().digest_hex(), 0, name};
        const JobOutcome out = engine->run_one(job);
        if (!out.ok) {
          std::cerr << "policy '" << spec << "': " << out.error << "\n";
          return 1;
        }
        const SimResult& r = *out.result;
        t.begin_row()
            .cell(name)
            .cell(r.core.instrs)
            .cell(r.policy)
            .cell(r.mpki(), 1)
            .cell(r.ipc(), 3)
            .cell(format_percent(r.gated_time_fraction()))
            .cell(r.energy.total_j() * 1e3, 3);
      }
      csv ? t.print_csv(std::cout) : t.print(std::cout);
      return 0;
    }

    // Sampled simulation: plan once, project each policy (docs/TRACE.md).
    SampleConfig scfg;
    scfg.region_instructions = region;
    scfg.clusters = kv.get_uint("sample-clusters", 8);
    scfg.warmup_instructions = kv.get_uint("sample-warmup", 200'000);
    scfg.seed = kv.get_uint("sample-seed", 42);
    scfg.signature_cache = kv.get_or("sample-sig-cache", "");
    const unsigned jobs = exec_options_from(kv).jobs;
    SamplePlan plan = build_sample_plan(trace, scfg, jobs);
    std::cout << name << ": " << plan.total_instructions << " instructions, "
              << plan.regions.size() << " regions, " << plan.clusters.size()
              << " clusters"
              << (plan.exhaustive ? " (exhaustive: full run)" : "")
              << ", simulating " << plan.sampled_instructions()
              << " instructions\n";
    SampledRunner runner(cfg, trace, std::move(plan), name, jobs);
    Table t({"workload", "policy", "IPC", "MPKI", "gated_time", "total_mJ",
             "exact"});
    for (const auto& spec : specs) {
      SampledResult r;
      try {
        r = runner.run(spec);
      } catch (const std::exception& e) {
        std::cerr << "policy '" << spec << "': " << e.what() << "\n";
        return 1;
      }
      MetricEstimate energy = *r.find("energy_total_j");
      energy.value *= 1e3;
      energy.ci_lo *= 1e3;
      energy.ci_hi *= 1e3;
      energy.stderr_ *= 1e3;
      t.begin_row()
          .cell(r.workload)
          .cell(r.policy)
          .cell(pm(*r.find("ipc"), 3))
          .cell(pm(*r.find("mpki"), 1))
          .cell(pm(*r.find("gated_time_fraction"), 3))
          .cell(pm(energy, 3))
          .cell(r.exact ? "yes" : "no");
    }
    csv ? t.print_csv(std::cout) : t.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "trace run failed: " << e.what() << "\n";
    return 1;
  }
}

int run_multicore(const KvConfig& kv, const std::vector<WorkloadProfile>& wls,
                  const std::vector<std::string>& specs, bool csv) {
  std::vector<std::string> unknown;
  const MulticoreConfig cfg =
      apply_multicore_config(kv, MulticoreConfig{}, &unknown);
  for (const auto& k : unknown)
    log_warn() << "ignoring unknown config key '" << k << "'";

  const MulticoreSim sim(cfg);
  const MulticoreResult base = sim.run(wls, "none");

  Table t({"policy", "cores", "makespan", "avg_gated_time",
           "energy_savings", "dram_read_lat", "wake_delays"});
  for (const auto& spec : specs) {
    MulticoreResult r;
    try {
      r = sim.run(wls, spec);
    } catch (const std::exception& e) {
      std::cerr << "policy '" << spec << "': " << e.what() << "\n";
      return 1;
    }
    t.begin_row()
        .cell(r.policy)
        .cell(std::uint64_t{cfg.num_cores})
        .cell(r.makespan)
        .cell(format_percent(r.avg_gated_fraction()))
        .cell(format_percent(1.0 - r.total_j() / base.total_j()))
        .cell(r.dram.read_latency.mean(), 1)
        .cell(r.wake_delayed_grants);
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  KvConfig kv;
  const std::vector<std::string> leftovers = kv.parse_args(argc, argv);
  for (const auto& word : leftovers) {
    if (word == "--list" || word == "list") {
      list_everything();
      return 0;
    }
    if (word == "--help" || word == "-h") return usage();
    if (word == "--print-metrics") {
      kv.set("print-metrics", "1");
      continue;
    }
    std::cerr << "unrecognized argument '" << word << "'\n";
    return usage();
  }

  const std::string trace_out = kv.get_or("trace-out", "");
  if (!trace_out.empty())
    obs::EventTracer::instance().start(static_cast<std::size_t>(kv.get_uint(
        "trace-buf", obs::EventTracer::kDefaultCapacity)));

  if (auto cfg_path = kv.get("config")) {
    std::ifstream is(*cfg_path);
    if (!is) {
      std::cerr << "cannot open config file '" << *cfg_path << "'\n";
      return 1;
    }
    std::stringstream buf;
    buf << is.rdbuf();
    KvConfig from_file;
    std::string err;
    if (!from_file.parse_text(buf.str(), &err)) {
      std::cerr << "config file error: " << err << "\n";
      return 1;
    }
    // Command-line values win over file values.
    for (const auto& [k, v] : from_file.all())
      if (!kv.contains(k)) kv.set(k, v);
  }

  const bool csv = kv.get_bool("csv", false);
  const auto seeds = static_cast<unsigned>(kv.get_uint("seeds", 1));
  const auto specs = resolve_policies(kv.get_or("policy", "std"));
  if (specs.empty()) {
    std::cerr << "no policies given\n";
    return usage();
  }

  try {
    // Every run below builds this platform: reject it before any cell runs.
    const SimConfig platform = apply_sim_config(kv);
    check_platform(platform);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  int rc;
  if (kv.contains("trace")) {
    rc = run_trace(kv, specs, csv);
  } else {
    const auto workloads =
        resolve_workloads(kv.get_or("workload", "mcf-like"));
    if (workloads.empty()) return 1;
    rc = kv.get_uint("cores", 0) > 1
             ? run_multicore(kv, workloads, specs, csv)
             : run_single(kv, workloads, specs, csv, seeds);
  }

  // Observability sinks run even after a failed run — partial metrics are
  // exactly what one wants when debugging the failure.
  if (kv.get_bool("print-metrics", false)) {
    std::cout << "\n";
    obs::print_metrics_table(std::cout);
  }
  const std::string metrics_out = kv.get_or("metrics-out", "");
  if (!metrics_out.empty() && obs::write_metrics_file(metrics_out))
    std::cerr << "[obs] metrics -> " << metrics_out << "\n";
  if (!trace_out.empty()) {
    obs::EventTracer& tracer = obs::EventTracer::instance();
    if (obs::finalize_and_write_trace(trace_out))
      std::cerr << "[obs] trace: " << tracer.size() << " events ("
                << tracer.dropped() << " dropped) -> " << trace_out << "\n";
  }
  return rc;
}

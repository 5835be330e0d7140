// Sampled-simulation projection error + speedup vs full simulation.
//
// The sampled path (src/sample, docs/TRACE.md) slices a trace into
// fixed-size regions, k-means-clusters their memory-access-vector
// signatures, simulates one representative per cluster, and projects
// whole-trace metrics as cluster-weighted sums with model-based confidence
// intervals.  This bench measures the two numbers that decide whether that
// trade is honest on traces long enough to matter:
//
//   - projection error: |sampled - full| / full per reported metric, with
//     the full-simulation value's position relative to the 95% CI;
//   - speedup: full-simulation wall-clock over sampled wall-clock for the
//     same policy axis on the same on-disk trace, measured both COLD
//     (signature scan included) and WARM (signatures served from the
//     MAPGSIG1 cache, the steady state once a trace has been planned once).
//
// The warm run must project bit-identically to the cold run — the cache is
// a pure memoization — and the bench exits nonzero if it does not.  The
// warm pass is repeated kWarmReps times and the fastest is reported; the
// record also carries the process's peak resident set (VmHWM) and how many
// threads recorded the representatives, so an allocator climb from
// concurrent recording shows against a --jobs=1 run.
//
// The trace is written once (MAPGTRC2, generator content) and both paths
// stream it from disk, so the comparison isolates the sampling machinery.
// The error bound asserted here (kErrorBound, relative) is the one
// docs/TRACE.md documents and CI's sampling smoke enforces; run the bench
// at defaults to reproduce the EXPERIMENTS.md R-Sampling numbers.
//
// Usage: micro_sampling [--count=N] [--regions=N] [--clusters=K]
//                       [--sample-warmup=N] [--seed=N] [--workload=NAME]
//                       [--smoke=1] [--json=FILE] [--keep=1] [--jobs=N]
//   --count=N     trace length in instructions (default 50M; smoke 2M)
//   --jobs=N      threads for the cold signature scan and the
//                 representatives (default: all)
//   --smoke=1     small trace + bound assertion only (CI mode)
//   --json=FILE   machine-readable record (scripts/bench_report.sh)
//   --keep=1      keep the generated trace file
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "exec/engine.h"
#include "exec/json.h"
#include "sample/runner.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/trace_file.h"

using namespace mapg;

namespace {

/// Documented relative-error bound for the default axes (docs/TRACE.md);
/// the smoke asserts it, the full run reports the measured figure.
constexpr double kErrorBound = 0.10;

/// Warm passes timed; the fastest is reported.
constexpr int kWarmReps = 5;

/// Peak resident set of this process in MB (VmHWM), 0 when unreadable.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0;
}

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct MetricRow {
  std::string policy, metric;
  double full = 0, sampled = 0, rel_err = 0;
  bool in_ci = false;
};

double metric_from(const SimResult& r, const std::string& name) {
  if (name == "ipc") return r.ipc();
  if (name == "mpki") return r.mpki();
  if (name == "gated_time_fraction") return r.gated_time_fraction();
  if (name == "energy_total_j") return r.energy.total_j();
  if (name == "cycles") return static_cast<double>(r.core.cycles);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  KvConfig cfg;
  cfg.parse_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  const std::uint64_t count =
      cfg.get_uint("count", smoke ? 2'000'000 : 50'000'000);
  const std::uint64_t region_instrs =
      cfg.get_uint("regions", smoke ? 100'000 : 1'000'000);
  const std::uint64_t clusters = cfg.get_uint("clusters", 4);
  const std::uint64_t sample_warmup =
      cfg.get_uint("sample-warmup", smoke ? 20'000 : 100'000);
  const std::uint64_t seed = cfg.get_uint("seed", 42);
  const std::string workload = cfg.get_or("workload", "mcf-like");
  const std::string json_path = cfg.get_or("json", "");
  const unsigned jobs = exec_options_from(cfg).jobs;
  const unsigned scan_threads =
      jobs == 0 ? ThreadPool::default_threads() : jobs;
  const unsigned rep_threads = ThreadPool::workers_for(jobs, clusters);
  const std::vector<std::string> policies = {"none", "mapg"};
  const std::vector<std::string> metrics = {
      "ipc", "mpki", "gated_time_fraction", "energy_total_j", "cycles"};

  const WorkloadProfile* profile = find_profile(workload);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 1;
  }

  std::printf(
      "==== micro_sampling: phase-sampled projection vs full simulation "
      "====\n"
      "trace: %s x %llu instrs; regions of %llu, %llu clusters, warmup %llu"
      ", cold scan on %u threads, representatives on up to %u%s\n",
      workload.c_str(), static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(region_instrs),
      static_cast<unsigned long long>(clusters),
      static_cast<unsigned long long>(sample_warmup), scan_threads,
      rep_threads, smoke ? "; SMOKE" : "");

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string trace_path = std::string(tmpdir ? tmpdir : "/tmp") +
                                 "/micro_sampling_" + workload + ".trc";
  {
    TraceGenerator gen(*profile, seed);
    std::string err;
    if (!write_trace_file_v2(trace_path, gen, count, &err)) {
      std::fprintf(stderr, "trace write failed: %s\n", err.c_str());
      return 1;
    }
  }

  SimConfig sim_cfg;  // platform defaults; sampling overrides the windows
  sim_cfg.run_seed = seed;

  // Full simulation: one cold direct run over the whole trace per policy —
  // the reference the projection is judged against.
  std::vector<SimResult> full;
  const double t_full0 = now_s();
  for (const std::string& spec : policies) {
    FileTraceSource trace(trace_path);
    SimConfig fc = sim_cfg;
    fc.warmup_instructions = 0;
    fc.instructions = count;
    full.push_back(Simulator(fc).run(trace, "trace:" + workload, spec));
  }
  const double full_s = now_s() - t_full0;

  // Sampled, cold: signature scan + clustering + simulation, priming the
  // signature cache.  Then warm: same thing with the cache hitting, the
  // steady state for a trace that has been planned before.
  SampleConfig scfg;
  scfg.region_instructions = region_instrs;
  scfg.clusters = clusters;
  scfg.warmup_instructions = sample_warmup;
  scfg.seed = seed;
  scfg.signature_cache = trace_path + ".sigs";
  std::remove(scfg.signature_cache.c_str());

  std::uint64_t plan_regions = 0, plan_clusters = 0, plan_sampled = 0;
  auto sampled_pass = [&](std::vector<SampledResult>& out) {
    FileTraceSource trace(trace_path);
    SamplePlan plan = build_sample_plan(trace, scfg, jobs);
    SampledRunner runner(sim_cfg, trace, std::move(plan),
                         "trace:" + workload, jobs);
    for (const std::string& spec : policies) out.push_back(runner.run(spec));
    plan_regions = out[0].regions;
    plan_clusters = out[0].clusters;
    plan_sampled = runner.plan().sampled_instructions();
  };

  std::vector<SampledResult> sampled;
  const double t_cold0 = now_s();
  sampled_pass(sampled);
  const double cold_s = now_s() - t_cold0;

  // The cache is pure memoization: the warm plan and therefore every warm
  // estimate must be bit-identical to the cold run, on every repetition.
  double warm_s = 0;
  for (int rep = 0; rep < kWarmReps; ++rep) {
    std::vector<SampledResult> warm;
    const double t_warm0 = now_s();
    sampled_pass(warm);
    const double s = now_s() - t_warm0;
    warm_s = rep == 0 ? s : std::min(warm_s, s);
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (std::size_t m = 0; m < sampled[p].metrics.size(); ++m) {
        if (warm[p].metrics[m].value != sampled[p].metrics[m].value ||
            warm[p].metrics[m].stderr_ != sampled[p].metrics[m].stderr_) {
          std::fprintf(stderr,
                       "error: warm (cached-signature) projection diverged "
                       "from cold on %s/%s\n",
                       policies[p].c_str(),
                       sampled[p].metrics[m].name.c_str());
          return 1;
        }
      }
    }
  }
  const double peak_mb = peak_rss_mb();

  std::printf("plan: %llu regions -> %llu representatives (%llu of %llu "
              "instrs simulated)\n",
              static_cast<unsigned long long>(plan_regions),
              static_cast<unsigned long long>(plan_clusters),
              static_cast<unsigned long long>(plan_sampled),
              static_cast<unsigned long long>(count));

  Table t({"policy", "metric", "full", "sampled", "rel_err", "in_95ci"});
  std::vector<MetricRow> rows;
  double max_err = 0;
  std::size_t ci_hits = 0, ci_total = 0;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    for (const std::string& m : metrics) {
      const MetricEstimate* e = sampled[p].find(m);
      if (e == nullptr) continue;
      MetricRow row;
      row.policy = policies[p];
      row.metric = m;
      row.full = metric_from(full[p], m);
      row.sampled = e->value;
      row.rel_err = row.full != 0
                        ? std::abs(row.sampled - row.full) /
                              std::abs(row.full)
                        : std::abs(row.sampled);
      row.in_ci = row.full >= e->ci_lo && row.full <= e->ci_hi;
      if (row.full != 0 || row.sampled != 0) {
        max_err = std::max(max_err, row.rel_err);
        ++ci_total;
        if (row.in_ci) ++ci_hits;
      }
      rows.push_back(row);
      t.begin_row()
          .cell(row.policy)
          .cell(row.metric)
          .cell(row.full, 4)
          .cell(row.sampled, 4)
          .cell(format_percent(row.rel_err, 2))
          .cell(row.in_ci ? "yes" : "no");
    }
  }
  t.print(std::cout);

  const double speedup_cold = cold_s > 0 ? full_s / cold_s : 0;
  const double speedup = warm_s > 0 ? full_s / warm_s : 0;
  std::printf("\nfull: %.2fs   sampled cold: %.2fs (%.2fx)   sampled warm "
              "(best of %d): %.2fs (%.2fx)\n"
              "max relative error: %.3f%% (bound %.0f%%)   CI coverage: "
              "%zu/%zu   peak RSS: %.1f MB\n",
              full_s, cold_s, speedup_cold, kWarmReps, warm_s, speedup,
              100 * max_err, 100 * kErrorBound, ci_hits, ci_total, peak_mb);

  if (!json_path.empty()) {
    Json j = Json::object();
    j["bench"] = Json::string("micro_sampling");
    j["workload"] = Json::string(workload);
    j["count"] = Json::number(count);
    j["region_instructions"] = Json::number(region_instrs);
    j["clusters"] = Json::number(clusters);
    j["regions"] = Json::number(sampled[0].regions);
    j["sampled_instructions"] = Json::number(plan_sampled);
    j["full_s"] = Json::number(full_s);
    j["sample_cold_s"] = Json::number(cold_s);
    j["scan_threads"] = Json::number(scan_threads);
    j["representative_threads"] = Json::number(rep_threads);
    j["sample_warm_s"] = Json::number(warm_s);
    j["warm_reps"] = Json::number(kWarmReps);
    j["peak_rss_mb"] = Json::number(peak_mb);
    j["speedup_cold"] = Json::number(speedup_cold);
    j["speedup"] = Json::number(speedup);
    j["max_rel_err"] = Json::number(max_err);
    j["ci_covered"] = Json::number(ci_hits);
    j["ci_total"] = Json::number(ci_total);
    j["smoke"] = Json::boolean(smoke);
    Json arr = Json::array();
    for (const MetricRow& r : rows) {
      Json e = Json::object();
      e["policy"] = Json::string(r.policy);
      e["metric"] = Json::string(r.metric);
      e["full"] = Json::number(r.full);
      e["sampled"] = Json::number(r.sampled);
      e["rel_err"] = Json::number(r.rel_err);
      e["in_ci"] = Json::boolean(r.in_ci);
      arr.push(std::move(e));
    }
    j["metrics"] = std::move(arr);
    std::ofstream out(json_path);
    out << j.dump() << "\n";
    std::fprintf(stderr, "[bench] json -> %s\n", json_path.c_str());
  }

  if (!cfg.get_bool("keep", false)) {
    std::remove(trace_path.c_str());
    std::remove(scfg.signature_cache.c_str());
  }

  if (max_err > kErrorBound) {
    std::fprintf(stderr, "error: max relative error %.3f exceeds %.2f\n",
                 max_err, kErrorBound);
    return 1;
  }
  if (!smoke && speedup < 10.0) {
    std::fprintf(stderr, "warning: speedup %.2fx below the 10x target\n",
                 speedup);
  }
  return 0;
}

#include "sample/runner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "trace/staged_source.h"

namespace mapg {
namespace {

#if MAPG_OBS_ENABLED
/// One 'X' span per representative recording or cell, on the worker's
/// track, so a Chrome trace shows the workers overlapping and which tier
/// answered each representative.
std::uint64_t span_begin() {
  const obs::EventTracer& tracer = obs::EventTracer::instance();
  return tracer.enabled() ? tracer.now_ns() : 0;
}

void span_end(const char* name, std::uint64_t ts, std::size_t cluster,
              std::uint64_t instructions, TimelineTier tier) {
  obs::EventTracer& tracer = obs::EventTracer::instance();
  if (!tracer.enabled()) return;
  tracer.complete(name, "sample", ts, tracer.now_ns() - ts,
                  obs::TraceArgs()
                      .add("cluster", std::uint64_t{cluster})
                      .add("instructions", instructions)
                      .add("tier", timeline_tier_name(tier))
                      .json());
}
#endif

/// 95% normal quantile used for every reported interval.
constexpr double kZ95 = 1.96;

struct Extensive {
  const char* name;
  double (*get)(const SimResult&);
};

double get_cycles(const SimResult& r) {
  return static_cast<double>(r.core.cycles);
}
double get_gated(const SimResult& r) {
  return static_cast<double>(r.gating.activity.gated_cycles);
}
double get_dram_loads(const SimResult& r) {
  return static_cast<double>(r.hier.served_dram);
}
double get_energy_total(const SimResult& r) { return r.energy.total_j(); }
double get_energy_core_leak(const SimResult& r) {
  return r.energy.core_leak_j;
}

/// Extensive metrics scale with instruction count and project as weighted
/// sums; the intensive metrics users actually read (ipc, mpki, gated time
/// fraction) are derived as ratios of these below.
constexpr Extensive kExtensive[] = {
    {"cycles", get_cycles},
    {"gated_cycles", get_gated},
    {"dram_loads", get_dram_loads},
    {"energy_total_j", get_energy_total},
    {"energy_core_leak_j", get_energy_core_leak},
};

MetricEstimate make_estimate(std::string name, double value, double se) {
  MetricEstimate e;
  e.name = std::move(name);
  e.value = value;
  e.stderr_ = se;
  e.ci_lo = value - kZ95 * se;
  e.ci_hi = value + kZ95 * se;
  return e;
}

/// Ratio estimate a/b with first-order error propagation (independent
/// numerator/denominator approximation).
MetricEstimate make_ratio(std::string name, const MetricEstimate& a,
                          const MetricEstimate& b, double scale = 1.0) {
  if (b.value == 0) return make_estimate(std::move(name), 0, 0);
  const double value = scale * a.value / b.value;
  const double ra = a.value != 0 ? a.stderr_ / std::abs(a.value) : 0;
  const double rb = b.stderr_ / std::abs(b.value);
  return make_estimate(std::move(name), value,
                       std::abs(value) * std::sqrt(ra * ra + rb * rb));
}

}  // namespace

const MetricEstimate* SampledResult::find(const std::string& name) const {
  for (const MetricEstimate& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

SampledRunner::SampledRunner(const SimConfig& base, FileTraceSource& trace,
                             SamplePlan plan, std::string workload_name,
                             unsigned jobs)
    : base_(base),
      trace_(trace),
      plan_(std::move(plan)),
      workload_(std::move(workload_name)),
      jobs_(jobs),
      budget_(ThreadPool::workers_for(jobs, ThreadPool::kMaxThreads)) {
  timelines_.resize(plan_.exhaustive ? 1 : plan_.clusters.size());
}

void SampledRunner::for_each_task(
    std::size_t items,
    const std::function<void(std::size_t item, unsigned worker)>& body) {
  // Every item is one task of budget_ from here until it ends, so a window
  // helper starts only once fewer items than --jobs are left.
  ThreadBudget::Slots tasks(budget_, items);
  for_each_claimed(items, ThreadPool::workers_for(jobs_, items),
                   [&](std::size_t item, unsigned worker) {
                     tasks.run([&] { body(item, worker); });
                   });
}

SampledRunner::Window SampledRunner::window_for(std::size_t cluster) const {
  Window w;
  w.config = base_;
  if (plan_.exhaustive) {
    // One continuous cold run over the whole trace: the reference
    // semantics full simulation is compared against (warmup 0, every
    // instruction measured).
    w.config.warmup_instructions = 0;
    w.config.instructions = plan_.total_instructions;
    return w;
  }
  const RegionSignature& rep =
      plan_.regions[plan_.clusters[cluster].representative];
  const std::uint64_t warmup =
      std::min<std::uint64_t>(plan_.config.warmup_instructions, rep.start);
  w.config.warmup_instructions = warmup;
  w.config.instructions = rep.length;
  w.start = rep.start - warmup;
  return w;
}

void SampledRunner::record_timelines() {
  std::vector<std::size_t> missing;
  for (std::size_t c = 0; c < timelines_.size(); ++c)
    if (!timelines_[c].has_value()) missing.push_back(c);
  if (missing.empty()) return;

  // When launched workers record, everything they fill is built here, on
  // the calling thread (exec/thread_pool.h): the readers and every window's
  // trace buffer and stall series.  A serial recording (one worker, which
  // includes the exhaustive plan's whole-trace window) grows its own.
  const unsigned workers = ThreadPool::workers_for(jobs_, missing.size());
  TraceReaders readers(trace_, workers);
  std::vector<Window> windows;
  std::vector<RunRecord> records(missing.size());
  for (std::size_t i = 0; i < missing.size(); ++i) {
    windows.push_back(window_for(missing[i]));
    if (workers > 1)
      records[i].reserve(windows[i].config.warmup_instructions,
                         windows[i].config.instructions);
  }
  for_each_task(missing.size(), [&](std::size_t i, unsigned w) {
    [[maybe_unused]] std::uint64_t ts = 0;
    MAPG_OBS_ONLY(ts = span_begin();)
    const Window& win = windows[i];
    readers[w].seek(win.start);
    const std::uint64_t count =
        win.config.warmup_instructions + win.config.instructions;
    LimitedTraceSource window(readers[w], count);
    TraceFrontEnd front = stage_if_free(window, count);
    timelines_[missing[i]] = record_timeline_traced(
        win.config, front.source(), workload_, std::move(records[i]));
    MAPG_OBS_COUNTER_ADD("sim.sample.simulated", win.config.instructions);
    MAPG_OBS_ONLY(span_end("sample.record", ts, missing[i],
                           win.config.instructions,
                           TimelineTier::kReference);)
  });
}

std::vector<SimResult> SampledRunner::simulate_cells(
    const std::string& policy_spec) {
  record_timelines();
  std::vector<SimResult> reps(timelines_.size());
  for_each_task(reps.size(), [&](std::size_t c, unsigned) {
    [[maybe_unused]] std::uint64_t ts = 0;
    MAPG_OBS_ONLY(ts = span_begin();)
    // The shared tier ladder; what no exact tier answers is simulated
    // directly over the materialized window.  Every tier is bit-identical
    // to direct.
    const StallTimeline& timeline = *timelines_[c];
    TimelineOutcome cell = resolve_on_timeline(timeline, policy_spec);
    if (cell.tier == TimelineTier::kDirect) {
      SharedTraceView view(timeline.record.trace);
      cell.result = Simulator(timeline.config)
                        .run(view, timeline.profile.name, policy_spec);
    }
    reps[c] = std::move(cell.result);
    MAPG_OBS_ONLY(span_end("sample.cell", ts, c,
                           timeline.config.instructions, cell.tier);)
  });
  return reps;
}

SampledResult SampledRunner::run(const std::string& policy_spec) {
  SampledResult out;
  out.workload = workload_;
  out.regions = plan_.regions.size();
  out.clusters = plan_.exhaustive ? plan_.regions.size()
                                  : plan_.clusters.size();
  out.instructions_projected = plan_.total_instructions;

  std::vector<SimResult> reps = simulate_cells(policy_spec);
  if (plan_.exhaustive) {
    const SimResult& full = reps.front();
    out.policy = full.policy;
    out.exact = true;
    out.full = full;
    out.instructions_simulated = plan_.total_instructions;
    for (const Extensive& m : kExtensive)
      out.metrics.push_back(make_estimate(m.name, m.get(full), 0));
    out.metrics.push_back(
        make_estimate("instructions",
                      static_cast<double>(plan_.total_instructions), 0));
    out.metrics.push_back(make_estimate("ipc", full.ipc(), 0));
    out.metrics.push_back(make_estimate("mpki", full.mpki(), 0));
    out.metrics.push_back(make_estimate("gated_time_fraction",
                                        full.gated_time_fraction(), 0));
    MAPG_OBS_COUNTER_ADD("sim.sample.projected", plan_.total_instructions);
    return out;
  }

  // Per-cluster representative results (each bit-identical to directly
  // simulating its window), summed in cluster order.
  for (const SampleCluster& cl : plan_.clusters)
    out.instructions_simulated += plan_.regions[cl.representative].length;
  out.policy = reps.empty() ? policy_spec : reps.front().policy;
  out.representative_results = reps;

  // Projection + model-based dispersion.  For metric m with representative
  // value m_k: every member region r of cluster k contributes a predicted
  // share m_k * len_r / len_rep and an error term proportional to that
  // share times the region's distance from its representative (signature
  // L1 plus relative auxiliary work-intensity deviation).  The
  // representative itself contributes zero, so a plan whose clusters are
  // singletons — or whose members are signature-identical — reports a
  // zero-width interval.
  constexpr double kDispersion = 0.5;  ///< calibrated: see docs/TRACE.md
  for (const Extensive& m : kExtensive) {
    double value = 0, var = 0;
    for (std::size_t c = 0; c < plan_.clusters.size(); ++c) {
      const SampleCluster& cl = plan_.clusters[c];
      const RegionSignature& rep = plan_.regions[cl.representative];
      const double m_k = m.get(reps[c]);
      const double rep_len = static_cast<double>(rep.length);
      value += cl.weight * m_k;
      for (std::size_t r : cl.members) {
        if (r == cl.representative) continue;
        const RegionSignature& reg = plan_.regions[r];
        const double share =
            m_k * static_cast<double>(reg.length) / rep_len;
        const double aux_rep = std::max(rep.aux_intensity(), 1e-12);
        const double delta =
            std::abs(reg.aux_intensity() - aux_rep) / aux_rep +
            0.5 * signature_l1(reg.v, rep.v);
        const double err = kDispersion * share * delta;
        var += err * err;
      }
    }
    out.metrics.push_back(make_estimate(m.name, value, std::sqrt(var)));
  }
  const MetricEstimate instrs = make_estimate(
      "instructions", static_cast<double>(plan_.total_instructions), 0);
  const MetricEstimate cycles = *out.find("cycles");
  const MetricEstimate dram = *out.find("dram_loads");
  const MetricEstimate gated = *out.find("gated_cycles");
  out.metrics.push_back(instrs);
  out.metrics.push_back(make_ratio("ipc", instrs, cycles));
  out.metrics.push_back(make_ratio("mpki", dram, instrs, 1000.0));
  out.metrics.push_back(make_ratio("gated_time_fraction", gated, cycles));
  MAPG_OBS_COUNTER_ADD("sim.sample.projected", plan_.total_instructions);
  return out;
}

}  // namespace mapg

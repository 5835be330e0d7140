#include "serve/tiered.h"

#include <chrono>
#include <utility>

#include "exec/serialize.h"
#include "obs/obs.h"

namespace mapg::serve {

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kHot: return "hot";
    case Tier::kCache: return "cache";
    case Tier::kReplay: return "replay";
    case Tier::kCompute: return "compute";
    case Tier::kCoalesced: return "coalesced";
    case Tier::kError: return "error";
  }
  return "unknown";
}

TieredExecutor::TieredExecutor(ExperimentEngine& engine,
                               TieredOptions options)
    : engine_(engine),
      hot_(options.hot_entries),
      timelines_(options.timeline_entries) {
  // Pre-register the serve counter set (same rationale as the engine's:
  // every snapshot carries the full set, zeros included).
  MAPG_OBS_ONLY({
    auto& reg = obs::MetricsRegistry::instance();
    for (const char* name :
         {"serve.cells", "serve.coalesced", "serve.hit.hot",
          "serve.hit.cache", "serve.hit.replay", "serve.compute",
          "serve.errors", "serve.timeline.recorded",
          "serve.timeline.reused", "serve.replay.fallbacks"})
      reg.counter(name);
  })
}

ServeStats TieredExecutor::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

TieredExecutor::TimelinePtr TieredExecutor::ensure_timeline(
    const ExperimentJob& group_job, const std::string& ref_key) {
  if (!engine_.options().use_replay) return nullptr;
  if (TimelinePtr cached = timelines_.get(ref_key)) return cached;
  TimelinePtr timeline;
  try {
    timeline = std::make_shared<const StallTimeline>(
        record_timeline(group_job.config, group_job.profile));
  } catch (...) {
    // A config the simulator rejects: per-cell direct execution reproduces
    // the exact error, so recording failure is silent here.
    return nullptr;
  }
  // The recording run IS the group's `none` cell; publish it so that cell
  // (and any later request for it) is a cache hit, exactly like
  // ExperimentEngine::run_group does.
  engine_.cache().store(ref_key, SimResult(*timeline->reference));
  timelines_.put(ref_key, timeline);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.timelines_recorded;
  }
  MAPG_OBS_COUNTER_INC("serve.timeline.recorded");
  return timeline;
}

ServeOutcome TieredExecutor::resolve(const ExperimentJob& job,
                                     const std::string& key) {
  ServeOutcome out;
  if (std::shared_ptr<const SimResult> hit = engine_.cache().get(key)) {
    out.job.result = std::move(hit);
    out.job.ok = true;
    out.job.from_cache = true;
    out.tier = Tier::kCache;
    return out;
  }

  // Between the engine cache and a fresh simulation: a reference timeline
  // for this cell's (config, workload, seed) group may already be cached
  // from an earlier request.
  if (engine_.options().use_replay) {
    const std::string ref_key =
        cache_key(job.config, job.profile, "none");
    if (TimelinePtr timeline = timelines_.get(ref_key)) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.timelines_reused;
      }
      MAPG_OBS_COUNTER_INC("serve.timeline.reused");
      const double t0 = now_ms();
      TimelineOutcome exact;
      bool spec_error = false;
      try {
        exact = resolve_on_timeline(*timeline, job.policy_spec);
      } catch (...) {
        spec_error = true;  // bad spec — the direct path reports it
      }
      if (exact.tier != TimelineTier::kDirect) {
        out.job.result = engine_.cache().store(key, std::move(exact.result));
        out.job.ok = true;
        out.job.from_replay = true;
        out.job.wall_ms = now_ms() - t0;
        out.tier = Tier::kReplay;
        return out;
      }
      if (!spec_error) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++stats_.replay_fallbacks;
        }
        MAPG_OBS_COUNTER_INC("serve.replay.fallbacks");
      }
    }
  }

  // A fallback, a bad spec and a cell with no timeline all take the
  // engine's compute path; the probe above just missed, so it does not
  // probe again.
  out.job = engine_.run_one(job, /*probe=*/false);
  out.tier = out.job.ok ? Tier::kCompute : Tier::kError;
  return out;
}

ServeOutcome TieredExecutor::run_cell(const ExperimentJob& job) {
  const std::string key =
      cache_key(job.config, job.profile, job.policy_spec);

  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.cells;
  }
  MAPG_OBS_COUNTER_INC("serve.cells");

  if (std::shared_ptr<const SimResult> hit = hot_.get(key)) {
    ServeOutcome out;
    out.job.result = std::move(hit);
    out.job.ok = true;
    out.job.from_cache = true;
    out.tier = Tier::kHot;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.hot_hits;
    }
    MAPG_OBS_COUNTER_INC("serve.hit.hot");
    return out;
  }

  ServeOutcome leader_out;
  bool coalesced = false;
  JobOutcome job_out = coalescer_.run(
      key, [&] {
        leader_out = resolve(job, key);
        return leader_out.job;
      },
      &coalesced);

  ServeOutcome out;
  out.job = std::move(job_out);
  if (!out.job.ok)
    out.tier = Tier::kError;
  else if (coalesced)
    out.tier = Tier::kCoalesced;
  else
    out.tier = leader_out.tier;

  if (out.job.ok) hot_.put(key, out.job.result);

  {
    std::lock_guard<std::mutex> lk(mu_);
    switch (out.tier) {
      case Tier::kCache: ++stats_.cache_hits; break;
      case Tier::kReplay: ++stats_.replayed; break;
      case Tier::kCompute: ++stats_.computed; break;
      case Tier::kCoalesced: ++stats_.coalesced; break;
      case Tier::kError: ++stats_.errors; break;
      case Tier::kHot: break;  // handled above
    }
  }
  MAPG_OBS_ONLY(switch (out.tier) {
    case Tier::kCache: MAPG_OBS_COUNTER_INC("serve.hit.cache"); break;
    case Tier::kReplay: MAPG_OBS_COUNTER_INC("serve.hit.replay"); break;
    case Tier::kCompute: MAPG_OBS_COUNTER_INC("serve.compute"); break;
    case Tier::kCoalesced: MAPG_OBS_COUNTER_INC("serve.coalesced"); break;
    case Tier::kError: MAPG_OBS_COUNTER_INC("serve.errors"); break;
    case Tier::kHot: break;
  })
  return out;
}

std::vector<ServeOutcome> TieredExecutor::run_cells(
    const std::vector<ExperimentJob>& jobs, std::size_t n_workloads,
    std::size_t n_policies, std::size_t n_seeds) {
  std::vector<ServeOutcome> outcomes(jobs.size());
  if (jobs.size() != n_workloads * n_policies * n_seeds) {
    // Shape mismatch is a server-side programming error; resolve cells
    // individually rather than guessing at groups.
    for (std::size_t i = 0; i < jobs.size(); ++i)
      outcomes[i] = run_cell(jobs[i]);
    return outcomes;
  }

  for (std::size_t wi = 0; wi < n_workloads; ++wi) {
    for (std::size_t si = 0; si < n_seeds; ++si) {
      // The (workload, seed) group shares one reference timeline across
      // its policy axis (expansion index (wi * n_policies + pi) * n_seeds
      // + si).  Recording costs one full `none` simulation, so it only
      // happens when >= 2 group cells would otherwise simulate.
      if (n_policies >= 2 && engine_.options().use_replay) {
        std::size_t would_compute = 0;
        for (std::size_t pi = 0; pi < n_policies; ++pi) {
          const ExperimentJob& job =
              jobs[(wi * n_policies + pi) * n_seeds + si];
          const std::string key =
              cache_key(job.config, job.profile, job.policy_spec);
          // Planning looks without counting: run_cell probes each cell
          // once.
          if (hot_.peek(key) == nullptr && !engine_.cache().contains(key))
            ++would_compute;
        }
        if (would_compute >= 2) {
          const ExperimentJob& first = jobs[(wi * n_policies) * n_seeds + si];
          ensure_timeline(first,
                          cache_key(first.config, first.profile, "none"));
        }
      }
      for (std::size_t pi = 0; pi < n_policies; ++pi) {
        const std::size_t i = (wi * n_policies + pi) * n_seeds + si;
        outcomes[i] = run_cell(jobs[i]);
      }
    }
  }
  return outcomes;
}

}  // namespace mapg::serve

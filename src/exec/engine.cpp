#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common/log.h"
#include "exec/serialize.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "replay/replay.h"
#include "trace/staged_source.h"
#include "trace/trace_file.h"
#include "trace/trace_io.h"

namespace mapg {

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

ExecOptions with_jobs_resolved(ExecOptions options) {
  if (options.jobs == 0) options.jobs = ThreadPool::default_threads();
  return options;
}

}  // namespace

ExecOptions exec_options_from(const KvConfig& kv) {
  ExecOptions opts;
  const std::uint64_t jobs = kv.get_uint("jobs", 0);
  if (jobs > ThreadPool::kMaxThreads)
    log_warn() << "--jobs=" << jobs << " exceeds the ceiling of "
               << ThreadPool::kMaxThreads << " threads; using "
               << ThreadPool::kMaxThreads;
  opts.jobs = static_cast<unsigned>(
      std::min<std::uint64_t>(jobs, ThreadPool::kMaxThreads));
  const char* env_cache = std::getenv("MAPG_CACHE_DIR");
  opts.cache_dir =
      kv.get_or("cache-dir", env_cache != nullptr ? env_cache : "");
  opts.use_disk_cache = !kv.get_bool("no-cache", false);
  opts.progress = kv.get_bool("progress", false);
  opts.log_jsonl = kv.get_or("runlog", "");
  opts.use_replay = kv.get_bool("replay", true);
  return opts;
}

const SimResult& SweepResult::result(std::size_t vi, std::size_t wi,
                                     std::size_t pi, std::size_t si) const {
  const JobOutcome& o = at(vi, wi, pi, si);
  if (!o.ok)
    throw std::runtime_error("sweep cell failed: " + o.error);
  return *o.result;
}

const SimResult& SweepResult::baseline(std::size_t vi, std::size_t wi,
                                       std::size_t si) const {
  if (baseline_policy == npos)
    throw std::runtime_error(
        "sweep has no 'none' policy to use as a baseline");
  return result(vi, wi, baseline_policy, si);
}

ExperimentEngine::ExperimentEngine(ExecOptions options)
    : options_(with_jobs_resolved(std::move(options))),
      cache_(std::make_unique<ResultCache>(
          options_.use_disk_cache ? options_.cache_dir : std::string{})),
      budget_(options_.jobs) {
  // Pre-register the engine's counter set so snapshots and traces carry the
  // same metrics every run (zeros included), not just the ones a particular
  // run happened to touch.
  MAPG_OBS_ONLY({
    auto& reg = obs::MetricsRegistry::instance();
    for (const char* name :
         {"exec.jobs.run", "exec.jobs.cached", "exec.jobs.failed",
          "exec.jobs.replayed", "exec.cache.mem_hit", "exec.cache.disk_hit",
          "exec.cache.miss", "exec.cache.store", "sim.replay.timelines",
          "sim.replay.windows", "sim.replay.cells",
          "sim.replay.full_fallbacks", "sim.sample.regions",
          "sim.sample.clusters", "sim.sample.simulated",
          "sim.sample.projected"})
      reg.counter(name);
  })
  if (!options_.log_jsonl.empty()) {
    log_ = std::make_unique<std::ofstream>(options_.log_jsonl,
                                           std::ios::app);
  }
}

ExperimentEngine::~ExperimentEngine() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    drained_.wait(lk, [this] { return drainers_ == 0; });
  }
  // Close the run log with a metrics snapshot line (docs/OBSERVABILITY.md):
  // distinguishable from per-job lines by its "event" field.
  MAPG_OBS_ONLY(if (log_ && log_->is_open()) {
    *log_ << "{\"event\":\"metrics\",\"metrics\":"
          << obs::metrics_json_string() << "}\n";
  })
}

EngineStats ExperimentEngine::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::optional<JobOutcome> ExperimentEngine::lookup(const ExperimentJob& job,
                                                   const std::string& key) {
  const double t0 = now_ms();
  [[maybe_unused]] std::uint64_t trace_ts = 0;
  MAPG_OBS_ONLY(if (obs::EventTracer::instance().enabled()) trace_ts =
                    obs::EventTracer::instance().now_ns();)
  std::shared_ptr<const SimResult> hit = cache_->get(key);
  if (!hit) return std::nullopt;
  JobOutcome out;
  out.result = std::move(hit);
  out.ok = true;
  out.from_cache = true;
  out.wall_ms = now_ms() - t0;
  account(job, key, out, trace_ts);
  return out;
}

JobOutcome ExperimentEngine::execute(
    const ExperimentJob& job,
    std::shared_ptr<const std::vector<Instr>> trace, bool probe) {
  const std::string key =
      cache_key(job.config, job.profile, job.policy_spec,
                job.trace ? &*job.trace : nullptr);
  if (std::optional<JobOutcome> hit = probe ? lookup(job, key) : std::nullopt)
    return std::move(*hit);
  const double t0 = now_ms();
  [[maybe_unused]] std::uint64_t trace_ts = 0;
  MAPG_OBS_ONLY(if (obs::EventTracer::instance().enabled()) trace_ts =
                    obs::EventTracer::instance().now_ns();)
  JobOutcome out;
  try {
    const Simulator sim(job.config);
    if (job.trace.has_value()) {
      // Trace-bound cell: stream the window from disk.  The digest check
      // keeps the cache honest — the key claims this content, so a file
      // swapped behind the binding must fail, not silently mis-key.
      FileTraceSource file(job.trace->path);
      if (!job.trace->digest_hex.empty() &&
          file.info().digest_hex() != job.trace->digest_hex)
        throw std::runtime_error(
            job.trace->path + ": content digest " +
            file.info().digest_hex() + " does not match binding " +
            job.trace->digest_hex);
      file.seek(job.trace->offset);
      const std::uint64_t count =
          job.config.warmup_instructions + job.config.instructions;
      LimitedTraceSource window(file, count);
      // Read and digest-checked ahead of the core where a thread is free.
      TraceFrontEnd front = stage_if_free(window, count);
      out.result = cache_->store(
          key, sim.run(front.source(), job.trace->name, job.policy_spec));
    } else if (trace != nullptr) {
      // Shared materialized trace (replay-group fallback): the stream is
      // what a fresh generator would produce, so this is bit-identical to
      // the generator path.
      SharedTraceView view(std::move(trace));
      out.result = cache_->store(
          key, sim.run(view, job.profile.name, job.policy_spec));
    } else {
      out.result =
          cache_->store(key, sim.run(job.profile, job.policy_spec));
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.wall_ms = now_ms() - t0;

  account(job, key, out, trace_ts);
  return out;
}

void ExperimentEngine::account(const ExperimentJob& job,
                               const std::string& key,
                               const JobOutcome& out,
                               [[maybe_unused]] std::uint64_t trace_ts) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!out.ok)
      ++stats_.jobs_failed;
    else if (out.from_cache)
      ++stats_.jobs_cached;
    else if (out.from_replay)
      ++stats_.jobs_replayed;
    else
      ++stats_.jobs_run;
    stats_.busy_ms += out.wall_ms;
  }
  MAPG_OBS_ONLY(
    if (!out.ok) MAPG_OBS_COUNTER_INC("exec.jobs.failed");
    else if (out.from_cache) MAPG_OBS_COUNTER_INC("exec.jobs.cached");
    else if (out.from_replay) MAPG_OBS_COUNTER_INC("exec.jobs.replayed");
    else MAPG_OBS_COUNTER_INC("exec.jobs.run");
    MAPG_OBS_HIST_RECORD("exec.job.wall_ns",
                         static_cast<std::uint64_t>(out.wall_ms * 1e6));
    obs::EventTracer& tracer = obs::EventTracer::instance();
    if (tracer.enabled()) {
      tracer.complete("job", "exec", trace_ts, tracer.now_ns() - trace_ts,
                      obs::TraceArgs()
                          .add("workload", job.profile.name)
                          .add("policy", job.policy_spec)
                          .add("seed", job.config.run_seed)
                          .add("cached", out.from_cache)
                          .add("replayed", out.from_replay)
                          .add("ok", out.ok)
                          .json());
      const CacheStatsSnapshot cs = cache_->stats();
      tracer.counter("exec.cache",
                     obs::TraceArgs()
                         .add("hit", cs.memory_hits + cs.disk_hits)
                         .add("miss", cs.misses)
                         .json());
      const EngineStats es = stats();
      tracer.counter("exec.jobs", obs::TraceArgs()
                                      .add("run", es.jobs_run)
                                      .add("cached", es.jobs_cached)
                                      .add("replayed", es.jobs_replayed)
                                      .add("failed", es.jobs_failed)
                                      .json());
    })
  log_job(job, key, out);
}

void ExperimentEngine::log_job(const ExperimentJob& job,
                               const std::string& key,
                               const JobOutcome& outcome) {
  if (!log_) return;
  Json line = Json::object();
  line["key"] = Json::string(key);
  line["workload"] = Json::string(job.profile.name);
  line["policy"] = Json::string(job.policy_spec);
  line["seed"] = Json::number(job.config.run_seed);
  line["instructions"] = Json::number(job.config.instructions);
  line["ok"] = Json::boolean(outcome.ok);
  line["cached"] = Json::boolean(outcome.from_cache);
  line["replayed"] = Json::boolean(outcome.from_replay);
  line["wall_ms"] = Json::number(outcome.wall_ms);
  if (!outcome.ok) line["error"] = Json::string(outcome.error);
  std::lock_guard<std::mutex> lk(mu_);
  *log_ << line.dump() << "\n";
  log_->flush();
}

void ExperimentEngine::progress_tick(std::size_t done, std::size_t total) {
  if (!options_.progress) return;
  std::lock_guard<std::mutex> lk(mu_);
  const double elapsed_s = (now_ms() - run_started_ms_) / 1e3;
  const double rate = elapsed_s > 0 ? static_cast<double>(done) / elapsed_s
                                    : 0.0;
  std::fprintf(stderr, "\r[exec] %zu/%zu jobs  %.1f sims/s   ", done, total,
               rate);
  if (done == total) std::fprintf(stderr, "\n");
  std::fflush(stderr);
}

JobOutcome ExperimentEngine::run_one(const ExperimentJob& job) {
  // A served request already runs as one of this engine's tasks.
  if (ThreadBudget::current() == &budget_) return execute(job);
  JobOutcome out;
  dispatch(1, [&](std::size_t) { out = execute(job); });
  return out;
}

JobOutcome ExperimentEngine::run_one_traced(
    const ExperimentJob& job,
    std::shared_ptr<const std::vector<Instr>> trace) {
  return execute(job, std::move(trace));
}

void ExperimentEngine::dispatch(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  // Every task holds its slot from here until it ends, so trace front-end
  // helpers start only once fewer tasks than --jobs are left.
  ThreadBudget::Slots tasks(budget_, n);
  for_each_claimed(n, ThreadPool::workers_for(options_.jobs, n),
                   [&](std::size_t i, unsigned) {
                     tasks.run([&] { body(i); });
                   });
}

void ExperimentEngine::submit_detached(std::function<void()> task) {
  if (options_.jobs <= 1) {
    dispatch(1, [&task](std::size_t) { task(); });
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    // Held from hand-out to the task's end, as dispatch() holds its tasks'.
    detached_.emplace_back(ThreadBudget::Slots(budget_, 1), std::move(task));
    if (drainers_ == options_.jobs) return;
    ++drainers_;
  }
  // A drainer runs queued tasks until none is left.  Its last touch of the
  // engine is under mu_, so the destructor may run once that is released.
  const auto drain = [this] {
    std::unique_lock<std::mutex> lk(mu_);
    while (!detached_.empty()) {
      {
        auto next = std::move(detached_.front());
        detached_.pop_front();
        lk.unlock();
        try {
          next.first.run(next.second);
        } catch (const std::exception& e) {
          // The task's owner tracks its completion; the queue goes on.
          log_warn() << "exec: a detached task threw: " << e.what();
        } catch (...) {
          log_warn() << "exec: a detached task threw";
        }
      }
      lk.lock();
    }
    --drainers_;
    drained_.notify_all();
  };
  try {
    ThreadPool::launch(drain);
  } catch (...) {
    drain();  // no thread to be had: this one drains the queue
  }
}

std::vector<JobOutcome> ExperimentEngine::run(
    const std::vector<ExperimentJob>& jobs) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    run_started_ms_ = now_ms();
  }
  std::vector<JobOutcome> outcomes(jobs.size());
  std::mutex done_mu;
  std::size_t done = 0;
  dispatch(jobs.size(), [&](std::size_t i) {
    // Slot i is exclusively ours; outcome order == submission order.
    outcomes[i] = execute(jobs[i]);
    std::size_t d;
    {
      std::lock_guard<std::mutex> lk(done_mu);
      d = ++done;
    }
    progress_tick(d, jobs.size());
  });
  return outcomes;
}

std::vector<ExperimentJob> ExperimentEngine::expand(const SweepSpec& spec) {
  std::vector<std::pair<std::string, SimConfig>> variants = spec.variants;
  if (variants.empty()) variants.emplace_back("", spec.base);

  std::vector<ExperimentJob> jobs;
  jobs.reserve(variants.size() * spec.workloads.size() *
               spec.policy_specs.size() * std::max(1u, spec.n_seeds));
  for (const auto& [vname, vcfg] : variants) {
    (void)vname;
    for (const WorkloadProfile& w : spec.workloads) {
      for (const std::string& p : spec.policy_specs) {
        for (unsigned s = 0; s < std::max(1u, spec.n_seeds); ++s) {
          ExperimentJob job;
          job.config = vcfg;
          job.config.run_seed += s;
          job.profile = w;
          job.policy_spec = p;
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

SweepResult ExperimentEngine::run_sweep(const SweepSpec& spec) {
  SweepResult r;
  r.n_variants = spec.variants.empty() ? 1 : spec.variants.size();
  r.n_workloads = spec.workloads.size();
  r.n_policies = spec.policy_specs.size();
  r.n_seeds = std::max(1u, spec.n_seeds);
  for (std::size_t i = 0; i < spec.policy_specs.size(); ++i)
    if (spec.policy_specs[i] == "none") {
      r.baseline_policy = i;
      break;
    }
  const std::vector<ExperimentJob> jobs = expand(spec);
  // Recording pays for itself only when a group amortizes it across several
  // policies; single-policy sweeps take the direct path unchanged.
  if (!options_.use_replay || r.n_policies < 2) {
    r.outcomes = run(jobs);
    return r;
  }
  r.outcomes = run_replayed(jobs, r);
  return r;
}

void ExperimentEngine::run_group(const std::vector<ExperimentJob>& jobs,
                                 const std::vector<std::size_t>& cell_indices,
                                 std::vector<JobOutcome>& outcomes) {
  // 1. Serve whatever the cache already has; collect the misses.
  std::vector<std::size_t> missing;
  for (const std::size_t c : cell_indices) {
    const ExperimentJob& job = jobs[c];
    if (std::optional<JobOutcome> hit = lookup(
            job, cache_key(job.config, job.profile, job.policy_spec)))
      outcomes[c] = std::move(*hit);
    else
      missing.push_back(c);
  }
  // 2. A recording (one full `none` simulation) only amortizes across >= 2
  // would-be simulations.  Cells found missing are not probed again.
  if (missing.empty()) return;
  if (missing.size() == 1) {
    outcomes[missing.front()] = execute(jobs[missing.front()], {}, false);
    return;
  }

  // 3. Record the reference timeline once for the whole group.
  const ExperimentJob& first = jobs[missing.front()];
  const double t_rec = now_ms();
  StallTimeline timeline;
  bool recorded = false;
  try {
    timeline = record_timeline(first.config, first.profile);
    recorded = true;
  } catch (...) {
    // A platform config the simulator rejects outright: fall through — the
    // per-cell direct path below reproduces the exact error per cell.
  }
  const double record_ms = now_ms() - t_rec;
  if (recorded) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.timelines_recorded;
  }

  // 4. Resolve each missing cell on the timeline (resolve_on_timeline:
  // reference, then replay); what no exact tier answers is simulated
  // directly over the shared trace buffer.
  for (const std::size_t c : missing) {
    const ExperimentJob& job = jobs[c];
    if (!recorded) {
      outcomes[c] = execute(job, {}, false);
      continue;
    }
    const double t0 = now_ms();
    TimelineOutcome exact;
    try {
      exact = resolve_on_timeline(timeline, job.policy_spec);
    } catch (...) {
      // A bad spec: the direct path reports the exact error.
      outcomes[c] = execute(job, timeline.record.trace, false);
      continue;
    }
    if (exact.tier == TimelineTier::kDirect) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.replay_fallbacks;
      }
      MAPG_OBS_COUNTER_INC("sim.replay.full_fallbacks");
      outcomes[c] = execute(job, timeline.record.trace, false);
      continue;
    }
    const std::string key =
        cache_key(job.config, job.profile, job.policy_spec);
    JobOutcome out;
    out.result = cache_->store(key, std::move(exact.result));
    out.ok = true;
    out.from_replay = exact.tier == TimelineTier::kReplay;
    // The recording run WAS the `none` cell.
    out.wall_ms =
        exact.tier == TimelineTier::kReference ? record_ms : now_ms() - t0;
    account(job, key, out, 0);
    outcomes[c] = std::move(out);
  }
}

std::vector<JobOutcome> ExperimentEngine::run_replayed(
    const std::vector<ExperimentJob>& jobs, const SweepResult& shape) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    run_started_ms_ = now_ms();
  }
  std::vector<JobOutcome> outcomes(jobs.size());

  // One task per (variant, workload, seed) group; each group owns exactly
  // the cells at its expansion indices, so parallel groups write disjoint
  // slots and outcome order matches submission order for any jobs count.
  std::vector<std::vector<std::size_t>> groups;
  groups.reserve(shape.n_variants * shape.n_workloads * shape.n_seeds);
  for (std::size_t vi = 0; vi < shape.n_variants; ++vi)
    for (std::size_t wi = 0; wi < shape.n_workloads; ++wi)
      for (std::size_t si = 0; si < shape.n_seeds; ++si) {
        std::vector<std::size_t> cells;
        cells.reserve(shape.n_policies);
        for (std::size_t pi = 0; pi < shape.n_policies; ++pi)
          cells.push_back(shape.index(vi, wi, pi, si));
        groups.push_back(std::move(cells));
      }

  std::mutex done_mu;
  std::size_t done = 0;
  dispatch(groups.size(), [&](std::size_t g) {
    run_group(jobs, groups[g], outcomes);
    std::size_t d;
    {
      std::lock_guard<std::mutex> lk(done_mu);
      done += groups[g].size();
      d = done;
    }
    progress_tick(d, jobs.size());
  });
  return outcomes;
}

namespace {

/// parallel_for bodies are opaque (multicore cells, custom sweeps), so the
/// per-task span carries only the index.
void run_body_traced(const std::function<void(std::size_t)>& body,
                     std::size_t i) {
  [[maybe_unused]] std::uint64_t ts = 0;
  MAPG_OBS_ONLY(obs::EventTracer& tracer = obs::EventTracer::instance();
                if (tracer.enabled()) ts = tracer.now_ns();)
  body(i);
  MAPG_OBS_ONLY(if (tracer.enabled()) {
    tracer.complete("task", "exec", ts, tracer.now_ns() - ts,
                    obs::TraceArgs().add("index", std::uint64_t{i}).json());
  })
}

}  // namespace

void ExperimentEngine::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  dispatch(n, [&body](std::size_t i) { run_body_traced(body, i); });
}

}  // namespace mapg

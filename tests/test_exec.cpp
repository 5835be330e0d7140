// Unit tests for src/exec: canonical JSON, exact SimResult serialization,
// the content-addressed result cache, the process executor, and the
// determinism contract of ExperimentEngine (parallel == serial, bit for
// bit; per-job failures never tear down a sweep).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/sim.h"
#include "exec/engine.h"
#include "exec/json.h"
#include "exec/result_cache.h"
#include "exec/runner.h"
#include "exec/serialize.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/staged_source.h"

namespace mapg {
namespace {

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.instructions = 20'000;
  cfg.warmup_instructions = 5'000;
  return cfg;
}

SimResult run_tiny(const std::string& workload = "mcf-like",
                   const std::string& spec = "mapg") {
  return Simulator(tiny_config()).run(*find_profile(workload), spec);
}

// --- Json ---

TEST(Json, CanonicalDumpSortsKeysAndPreservesNumberTokens) {
  Json obj = Json::object();
  obj["zeta"] = Json::number(std::uint64_t{18446744073709551615ULL});
  obj["alpha"] = Json::number(0.1);
  obj["mid"] = Json::array();
  obj["mid"].push(Json::string("a\"b\n"));
  const std::string text = obj.dump();
  // Keys come out sorted regardless of insertion order.
  EXPECT_LT(text.find("\"alpha\""), text.find("\"mid\""));
  EXPECT_LT(text.find("\"mid\""), text.find("\"zeta\""));
  // Max u64 survives (would be destroyed by a double round-trip).
  EXPECT_NE(text.find("18446744073709551615"), std::string::npos);
}

TEST(Json, ParseRoundTripsCanonicalForm) {
  const std::string text =
      "{\"a\":[1,2.5,-3],\"b\":{\"x\":true,\"y\":null},\"s\":\"q\\\"\\n\"}";
  std::string err;
  const std::optional<Json> parsed = Json::parse(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  const Json& j = *parsed;
  EXPECT_EQ(j.dump(), text);
  EXPECT_EQ(j.get("a").at(0).as_u64(), 1u);
  EXPECT_DOUBLE_EQ(j.get("a").at(1).as_double(), 2.5);
  EXPECT_EQ(j.get("a").at(2).as_i64(), -3);
  EXPECT_TRUE(j.get("b").get("x").as_bool());
  EXPECT_EQ(j.get("s").as_string(), "q\"\n");
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing"}) {
    std::string err;
    EXPECT_FALSE(Json::parse(bad, &err).has_value()) << "accepted: " << bad;
  }
}

// --- Serialization ---

TEST(Serialize, ResultRoundTripIsBitExact) {
  const SimResult r = run_tiny();
  const SimResult back = result_from_json(result_to_json(r));
  EXPECT_TRUE(results_equal(r, back));
  // Spot-check a few fields the dump comparison already covers, for a
  // readable failure if the canonical form ever drifts.
  EXPECT_EQ(back.core.cycles, r.core.cycles);
  EXPECT_EQ(back.gating.gated_events, r.gating.gated_events);
  EXPECT_DOUBLE_EQ(back.energy.dynamic_j, r.energy.dynamic_j);
  EXPECT_EQ(back.core.dram_stall_hist.total(),
            r.core.dram_stall_hist.total());
}

TEST(Serialize, RoundTripSurvivesTextReparse) {
  const SimResult r = run_tiny("libquantum-like", "oracle");
  std::string err;
  const std::optional<Json> parsed =
      Json::parse(result_to_json(r).dump(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_TRUE(results_equal(r, result_from_json(*parsed)));
}

TEST(Serialize, CacheKeyIsStableAndWellFormed) {
  const SimConfig cfg = tiny_config();
  const WorkloadProfile& p = *find_profile("mcf-like");
  const std::string key = cache_key(cfg, p, "mapg");
  EXPECT_EQ(key.size(), 32u);
  EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(cache_key(cfg, p, "mapg"), key);  // deterministic
}

TEST(Serialize, CacheKeySensitiveToEveryIdentityComponent) {
  const SimConfig cfg = tiny_config();
  const WorkloadProfile& p = *find_profile("mcf-like");
  const std::string base = cache_key(cfg, p, "mapg");

  // Config change.
  SimConfig cfg2 = cfg;
  cfg2.core.mlp_window += 1;
  EXPECT_NE(cache_key(cfg2, p, "mapg"), base);
  SimConfig cfg3 = cfg;
  cfg3.pg.overhead_scale *= 2.0;
  EXPECT_NE(cache_key(cfg3, p, "mapg"), base);

  // Profile change (behavioural field and a different builtin).
  WorkloadProfile p2 = p;
  p2.p_pointer_chase += 0.01;
  EXPECT_NE(cache_key(cfg, p2, "mapg"), base);
  EXPECT_NE(cache_key(cfg, *find_profile("lbm-like"), "mapg"), base);

  // Policy change.
  EXPECT_NE(cache_key(cfg, p, "mapg:alpha=0.5"), base);
  EXPECT_NE(cache_key(cfg, p, "none"), base);

  // Seed change.
  SimConfig cfg4 = cfg;
  cfg4.run_seed += 1;
  EXPECT_NE(cache_key(cfg4, p, "mapg"), base);
}

TEST(Serialize, CacheKeyIgnoresCosmeticDescription) {
  const SimConfig cfg = tiny_config();
  WorkloadProfile p = *find_profile("mcf-like");
  const std::string base = cache_key(cfg, p, "mapg");
  p.description = "reworded";
  EXPECT_EQ(cache_key(cfg, p, "mapg"), base);
}

// --- ResultCache ---

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("mapg_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(ResultCache, MemoryRoundTripReturnsEqualResult) {
  ResultCache cache;  // memory-only
  const SimResult r = run_tiny();
  cache.store("k1", r);
  const auto hit = cache.get("k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(results_equal(*hit, r));
  EXPECT_EQ(cache.get("absent"), nullptr);
  const CacheStatsSnapshot s = cache.stats();
  EXPECT_EQ(s.memory_hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
}

TEST(ResultCache, DiskRoundTripReturnsEqualResult) {
  TempDir dir("cache_rt");
  const SimResult r = run_tiny("lbm-like", "idle-timeout:64");
  {
    ResultCache cache(dir.str());
    cache.store("deadbeef", r);
    EXPECT_TRUE(std::filesystem::exists(dir.path() / "deadbeef.json"));
  }
  // A fresh cache object (fresh process, morally) must reload it from disk.
  ResultCache cache(dir.str());
  const auto hit = cache.get("deadbeef");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(results_equal(*hit, r));
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  // The disk hit was promoted into memory.
  cache.get("deadbeef");
  EXPECT_EQ(cache.stats().memory_hits, 1u);
}

TEST(ResultCache, CorruptDiskEntryIsAMissNotACrash) {
  TempDir dir("cache_corrupt");
  ResultCache cache(dir.str());
  cache.store("good", run_tiny());
  std::filesystem::create_directories(dir.path());
  std::ofstream(dir.path() / "bad.json") << "{not json";
  cache.clear_memory();
  EXPECT_EQ(cache.get("bad"), nullptr);
  EXPECT_GE(cache.stats().disk_errors, 1u);
  ASSERT_NE(cache.get("good"), nullptr);  // disk tier still healthy
}

// --- ThreadPool ---

/// Counts the bodies that ran.  Shared with them, so a body still
/// returning when a test ends touches nothing freed.
struct Tally {
  std::atomic<int> n{0};
  void add() {
    n.fetch_add(1);
    n.notify_all();
  }
  void wait_for(int want) {
    for (int v = n.load(); v < want; v = n.load()) n.wait(v);
  }
};

TEST(ThreadPool, RunsEverySubmittedTask) {
  auto tally = std::make_shared<Tally>();
  for (int i = 0; i < 500; ++i) ThreadPool::launch([tally] { tally->add(); });
  tally->wait_for(500);
  EXPECT_EQ(tally->n.load(), 500);
}

TEST(ThreadPool, SurvivesThrowingTasks) {
  // An executor body owns its errors; the engine's detached queue, which
  // runs other people's tasks on it, drops what they throw and goes on.
  std::atomic<int> count{0};
  {
    ExecOptions opts;
    opts.jobs = 2;
    ExperimentEngine engine(opts);
    for (int i = 0; i < 50; ++i)
      engine.submit_detached([&count, i] {
        if (i % 2 == 0) throw std::runtime_error("boom");
        ++count;
      });
  }  // the destructor waits for every queued task
  EXPECT_EQ(count.load(), 25);
  auto tally = std::make_shared<Tally>();
  ThreadPool::launch([tally] { tally->add(); });
  tally->wait_for(1);
}

TEST(ThreadPool, ForEachClaimedAttemptsEveryItemAndRethrowsTheLowestError) {
  // Items 3 and 7 fail; whichever fails first in time, every item runs and
  // item 3's error is the one raised, for any worker count.
  for (const unsigned workers : {1u, 2u, 5u}) {
    std::vector<int> ran(12, 0);
    try {
      for_each_claimed(ran.size(), workers, [&](std::size_t i, unsigned w) {
        ASSERT_LT(w, workers);
        ran[i] = 1;
        if (i == 3 || i == 7)
          throw std::runtime_error("item " + std::to_string(i));
      });
      ADD_FAILURE() << "workers=" << workers << ": no error raised";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 3") << "workers=" << workers;
    }
    EXPECT_EQ(ran, std::vector<int>(12, 1)) << "workers=" << workers;
  }
  EXPECT_EQ(ThreadPool::workers_for(8, 3), 3u);
  EXPECT_EQ(ThreadPool::workers_for(2, 0), 1u);
  EXPECT_EQ(ThreadPool::workers_for(100000, 100000), ThreadPool::kMaxThreads);
}

TEST(ThreadPool, SubmitsRacingIdleWorkersAreNeverSleptThrough) {
  // Back-to-back rounds that each hand the executor one body, or a claim
  // loop, and wait for it.  Parked threads sleep without a timeout, so a
  // body lost between a thread's parking and its wait would hang a round;
  // run it under TSan (the tsan CI job) for the ordering.
  auto tally = std::make_shared<Tally>();
  for (int round = 0; round < 4000; ++round) {
    ThreadPool::launch([tally] { tally->add(); });
    tally->wait_for(round + 1);
  }
  EXPECT_EQ(tally->n.load(), 4000);
  std::vector<int> items(4, 0);
  for (int round = 0; round < 4000; ++round)
    for_each_claimed(items.size(), 4,
                     [&items](std::size_t i, unsigned) { ++items[i]; });
  EXPECT_EQ(items, std::vector<int>(4, 4000));
  // Bodies launched from other threads race the same parked threads.
  std::vector<std::thread> launchers;
  for (int t = 0; t < 3; ++t)
    launchers.emplace_back([tally] {
      for (int i = 0; i < 1000; ++i)
        ThreadPool::launch([tally] { tally->add(); });
    });
  for (std::thread& t : launchers) t.join();
  tally->wait_for(7000);
  EXPECT_EQ(tally->n.load(), 7000);
}

TEST(ThreadPool, AForkedChildStartsThreadsOfItsOwn) {
  // The parent parks threads, then forks.  The child has none of them: it
  // must start its own for a fan-out and a staged trace, not hand its
  // bodies to parked threads that exist only in the parent.  An alarm in
  // the child turns a hang into a failure.
  std::vector<int> parked(8, 0);
  for_each_claimed(parked.size(), 4,
                   [&parked](std::size_t i, unsigned) { parked[i] = 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(60);
    std::vector<int> items(8, 0);
    for_each_claimed(items.size(), 4,
                     [&items](std::size_t i, unsigned) { items[i] = 1; });
    if (items != std::vector<int>(8, 1)) std::_Exit(2);
    const WorkloadProfile& p = *find_profile("mcf-like");
    TraceGenerator ref(p, 3);
    TraceGenerator gen(p, 3);
    StagedTraceSource stage(gen, 50'000);
    Instr want, got;
    for (int i = 0; i < 50'000; ++i)
      if (!ref.next(want) || !stage.next(got) || want.op != got.op ||
          want.dep_dist != got.dep_dist || want.addr != got.addr)
        std::_Exit(3);
    std::_Exit(stage.next(got) ? 4 : 0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// --- ExperimentEngine ---

SweepSpec test_sweep(unsigned n_seeds = 4) {
  SweepSpec spec;
  spec.base = tiny_config();
  spec.workloads = {*find_profile("mcf-like"), *find_profile("lbm-like"),
                    *find_profile("gamess-like")};
  spec.policy_specs = {"none", "mapg", "idle-timeout:64"};
  spec.n_seeds = n_seeds;
  return spec;
}

TEST(ExecOptions, NegativeJobsIsUnparsableAndMeansAllThreads) {
  // Parsed only: "-1" must not wrap to 4294967295 threads.
  KvConfig kv;
  kv.set("jobs", "-1");
  EXPECT_EQ(exec_options_from(kv).jobs, 0u);
  kv.set("jobs", "3");
  EXPECT_EQ(exec_options_from(kv).jobs, 3u);
}

TEST(ExecOptions, JobsAboveTheCeilingClampToIt) {
  // Parsed only, never handed to an engine: 100000 must not ask for 100000
  // threads, and 2^32 + 1 must not truncate to 1.
  KvConfig kv;
  for (const char* jobs : {"100000", "4294967297"}) {
    kv.set("jobs", jobs);
    EXPECT_EQ(exec_options_from(kv).jobs, ThreadPool::kMaxThreads) << jobs;
  }
  kv.set("jobs", std::to_string(ThreadPool::kMaxThreads));
  EXPECT_EQ(exec_options_from(kv).jobs, ThreadPool::kMaxThreads);
}

TEST(ExperimentEngine, ExpansionOrderAndShape) {
  const SweepSpec spec = test_sweep(2);
  const auto jobs = ExperimentEngine::expand(spec);
  ASSERT_EQ(jobs.size(), 3u * 3u * 2u);
  // Seed is innermost, then policy, then workload.
  EXPECT_EQ(jobs[0].profile.name, "mcf-like");
  EXPECT_EQ(jobs[0].policy_spec, "none");
  EXPECT_EQ(jobs[0].config.run_seed, spec.base.run_seed);
  EXPECT_EQ(jobs[1].config.run_seed, spec.base.run_seed + 1);
  EXPECT_EQ(jobs[2].policy_spec, "mapg");
  EXPECT_EQ(jobs[6].profile.name, "lbm-like");
}

TEST(ExperimentEngine, ParallelSweepBitIdenticalToSerial) {
  const SweepSpec spec = test_sweep(4);  // 3 workloads x 3 policies x 4 seeds

  ExecOptions serial_opts;
  serial_opts.jobs = 1;
  ExperimentEngine serial(serial_opts);
  const SweepResult a = serial.run_sweep(spec);

  ExecOptions parallel_opts;
  parallel_opts.jobs = 8;
  ExperimentEngine parallel(parallel_opts);
  const SweepResult b = parallel.run_sweep(spec);

  ASSERT_EQ(a.outcomes.size(), 36u);
  ASSERT_EQ(b.outcomes.size(), a.outcomes.size());
  EXPECT_EQ(a.baseline_policy, 0u);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_TRUE(a.outcomes[i].ok) << "serial job " << i << ": "
                                  << a.outcomes[i].error;
    ASSERT_TRUE(b.outcomes[i].ok) << "parallel job " << i << ": "
                                  << b.outcomes[i].error;
    EXPECT_TRUE(results_equal(*a.outcomes[i].result, *b.outcomes[i].result))
        << "job " << i << " diverged between --jobs=1 and --jobs=8";
  }
}

TEST(ExperimentEngine, MemoizesRepeatedCellsWithinProcess) {
  ExperimentEngine engine;
  const ExperimentJob job{tiny_config(), *find_profile("mcf-like"), "mapg"};
  const JobOutcome first = engine.run_one(job);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.from_cache);
  const JobOutcome again = engine.run_one(job);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.result.get(), first.result.get());  // shared, not copied
  EXPECT_EQ(engine.stats().jobs_run, 1u);
  EXPECT_EQ(engine.stats().jobs_cached, 1u);
}

TEST(ExperimentEngine, WarmDiskCacheRunsZeroSimulations) {
  TempDir dir("engine_warm");
  const SweepSpec spec = test_sweep(1);

  ExecOptions opts;
  opts.jobs = 4;
  opts.cache_dir = dir.str();
  {
    ExperimentEngine cold(opts);
    cold.run_sweep(spec);
    // With replay on (the default), part of the policy axis reconstitutes
    // from each group's recorded timeline instead of simulating; every cell
    // is still produced exactly once.
    EXPECT_EQ(cold.stats().jobs_run + cold.stats().jobs_replayed, 9u);
    EXPECT_GT(cold.stats().jobs_replayed, 0u);
    EXPECT_EQ(cold.stats().timelines_recorded, 3u);  // one per workload group
  }
  // Fresh engine, same directory: everything must come off disk.
  ExperimentEngine warm(opts);
  const SweepResult r = warm.run_sweep(spec);
  EXPECT_EQ(warm.stats().jobs_run, 0u);
  EXPECT_EQ(warm.stats().jobs_replayed, 0u);
  EXPECT_EQ(warm.stats().jobs_cached, 9u);
  // One probe per cell: each hit is read off disk once, never again from
  // memory.
  EXPECT_EQ(warm.cache().stats().disk_hits, 9u);
  EXPECT_EQ(warm.cache().stats().memory_hits, 0u);
  for (const auto& o : r.outcomes) {
    EXPECT_TRUE(o.ok);
    EXPECT_TRUE(o.from_cache);
  }
}

TEST(ExperimentEngine, NoCacheOptionSkipsDiskTier) {
  TempDir dir("engine_nocache");
  ExecOptions opts;
  opts.cache_dir = dir.str();
  opts.use_disk_cache = false;
  ExperimentEngine engine(opts);
  engine.run_one({tiny_config(), *find_profile("mcf-like"), "mapg"});
  EXPECT_FALSE(std::filesystem::exists(dir.path()));
}

TEST(ExperimentEngine, ThrowingJobReportedWithoutTearingDownSweep) {
  SweepSpec spec = test_sweep(1);
  spec.policy_specs = {"none", "mapg", "definitely-not-a-policy"};

  ExecOptions opts;
  opts.jobs = 4;
  ExperimentEngine engine(opts);
  const SweepResult r = engine.run_sweep(spec);

  ASSERT_EQ(r.outcomes.size(), 9u);
  for (std::size_t wi = 0; wi < 3; ++wi) {
    EXPECT_TRUE(r.at(0, wi, 0).ok);   // none
    EXPECT_TRUE(r.at(0, wi, 1).ok);   // mapg
    const JobOutcome& bad = r.at(0, wi, 2);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.result, nullptr);
    EXPECT_FALSE(bad.error.empty());
  }
  EXPECT_EQ(engine.stats().jobs_failed, 3u);
  // result() surfaces the stored error as an exception on demand.
  EXPECT_THROW(r.result(0, 0, 2), std::runtime_error);
  EXPECT_NO_THROW(r.baseline(0, 0));
}

TEST(ExperimentEngine, FrontEndHelpersStayWithinJobs) {
  // sim.frontend.{staged,inline} count one run each.  --jobs=1 never
  // starts a helper, and neither do tasks that fill --jobs while they all
  // run; a single cell with a thread over does, with the same bytes.
  auto& reg = obs::MetricsRegistry::instance();
  const auto staged = [&reg] {
    return reg.counter("sim.frontend.staged").value();
  };
  const auto inline_runs = [&reg] {
    return reg.counter("sim.frontend.inline").value();
  };
  const std::uint64_t counted = obs::kCompiledIn ? 1 : 0;
  ExecOptions opts;
  opts.use_disk_cache = false;

  opts.jobs = 1;
  std::vector<ExperimentJob> jobs;
  for (const char* w : {"mcf-like", "lbm-like", "gamess-like"})
    jobs.push_back({tiny_config(), *find_profile(w), "mapg"});
  std::uint64_t s0 = staged(), i0 = inline_runs();
  const std::vector<JobOutcome> serial = ExperimentEngine(opts).run(jobs);
  EXPECT_EQ(staged(), s0);
  EXPECT_EQ(inline_runs(), i0 + 3 * counted);

  opts.jobs = 2;
  SweepSpec sweep = test_sweep(1);
  sweep.workloads.resize(2);  // two groups for two workers
  s0 = staged();
  i0 = inline_runs();
  ExperimentEngine sweeper(opts);
  const SweepResult swept = sweeper.run_sweep(sweep);
  for (const JobOutcome& o : swept.outcomes) EXPECT_TRUE(o.ok) << o.error;
  // One front-end per group recording, and one per replay fallback, which
  // runs as a task of its own once the groups are done.  In each of the
  // two dispatches the first task reads inline (both slots are held when
  // it starts); a later one stages only if a worker finished the first
  // before the other worker took it, since one task left is fewer than
  // --jobs.
  const std::uint64_t fallbacks = sweeper.stats().replay_fallbacks;
  EXPECT_EQ(fallbacks, 2u);  // idle-timeout:64 in each group
  EXPECT_EQ(staged() + inline_runs(), s0 + i0 + (2 + fallbacks) * counted);
  EXPECT_LE(staged(), s0 + 2 * counted);

  // Two tasks that wait for each other before and after their runs hold
  // both slots throughout, so neither run may take a helper.
  ExperimentEngine two(opts);
  std::mutex meet_mu;
  std::condition_variable meet_cv;
  int arrived = 0;
  const auto meet = [&](int everyone) {
    std::unique_lock<std::mutex> lk(meet_mu);
    ++arrived;
    meet_cv.notify_all();
    return meet_cv.wait_for(lk, std::chrono::seconds(30),
                            [&] { return arrived >= everyone; });
  };
  JobOutcome pair[2];
  bool met[2] = {false, false};
  s0 = staged();
  i0 = inline_runs();
  two.parallel_for(2, [&](std::size_t i) {
    met[i] = meet(2);
    pair[i] = two.run_one(jobs[i]);
    met[i] = meet(4) && met[i];
  });
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(met[i]) << "task " << i << " never overlapped the other";
    ASSERT_TRUE(pair[i].ok) << pair[i].error;
    EXPECT_EQ(result_to_json(*pair[i].result).dump(),
              result_to_json(*serial[i].result).dump());
  }
  EXPECT_EQ(staged(), s0);
  EXPECT_EQ(inline_runs(), i0 + 2 * counted);

  s0 = staged();
  const JobOutcome one = two.run_one(jobs[2]);
  ASSERT_TRUE(one.ok);
  EXPECT_EQ(result_to_json(*one.result).dump(),
            result_to_json(*serial[2].result).dump());
  if (ThreadBudget::process().limit() - ThreadBudget::process().in_use() >= 2) {
    EXPECT_EQ(staged(), s0 + counted);
  }
}

TEST(ExperimentEngine, ParallelForRunsEveryIndexAndRethrowsTheLowestError) {
  // Indices 2 and 5 throw: every index still runs, and index 2's error is
  // the one raised, at every --jobs.
  for (const unsigned jobs : {1u, 2u, 4u}) {
    ExecOptions opts;
    opts.jobs = jobs;
    ExperimentEngine engine(opts);
    std::vector<std::atomic<int>> ran(8);
    try {
      engine.parallel_for(ran.size(), [&](std::size_t i) {
        ++ran[i];
        if (i == 2 || i == 5)
          throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "jobs=" << jobs << ": no error raised";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 2") << "jobs=" << jobs;
    }
    for (std::size_t i = 0; i < ran.size(); ++i)
      EXPECT_EQ(ran[i].load(), 1) << "jobs=" << jobs << " index " << i;
  }
}

TEST(ExperimentEngine, ParallelForCoversRangeOnce) {
  ExecOptions opts;
  opts.jobs = 4;
  ExperimentEngine engine(opts);
  std::vector<int> hits(1000, 0);
  engine.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "index " << i;
}

// --- Baseline scoring over sweeps ---

TEST(ExperimentEngine, SweepsShareBaselinesThroughCache) {
  ExperimentEngine engine;
  SweepSpec sweep;
  sweep.base = tiny_config();
  sweep.workloads = {*find_profile("mcf-like")};
  sweep.policy_specs = {"none", "mapg"};
  engine.run_sweep(sweep);
  const std::uint64_t runs_after_first = engine.stats().jobs_run;
  sweep.policy_specs = {"none", "idle-timeout:64"};
  engine.run_sweep(sweep);
  // The second sweep reuses the memoized "none" baseline: exactly one new
  // simulation, not two.
  EXPECT_EQ(engine.stats().jobs_run, runs_after_first + 1);
}

TEST(Replicate, MatchesDirectSeedRuns) {
  ExperimentEngine engine;
  SimConfig cfg = tiny_config();
  const WorkloadProfile& p = *find_profile("lbm-like");
  SweepSpec sweep;
  sweep.base = cfg;
  sweep.workloads = {p};
  sweep.policy_specs = {"none", "mapg"};
  sweep.n_seeds = 3;
  const ReplicatedComparison rep = replicate(engine.run_sweep(sweep), 0, 0, 1);
  EXPECT_EQ(rep.replicates(), 3u);

  // Recompute one replicate by hand and check it is inside the observed
  // min/max (it is literally one of the three samples).
  SimConfig c1 = cfg;
  c1.run_seed += 1;
  const Simulator sim(c1);
  const SimResult base = sim.run(p, "none");
  const SimResult gated = sim.run(p, "mapg");
  const double savings =
      1.0 - gated.energy.core_domain_j() / base.energy.core_domain_j();
  EXPECT_LE(rep.core_energy_savings.min(), savings + 1e-12);
  EXPECT_GE(rep.core_energy_savings.max(), savings - 1e-12);
}

void expect_same_stat(const RunningStat& a, const RunningStat& b,
                      const char* field) {
  EXPECT_EQ(a.count(), b.count()) << field;
  EXPECT_EQ(a.mean(), b.mean()) << field;
  EXPECT_EQ(a.m2(), b.m2()) << field;
  EXPECT_EQ(a.min(), b.min()) << field;
  EXPECT_EQ(a.max(), b.max()) << field;
}

TEST(Replicate, ReplayedColumnsEqualDirectColumns) {
  SweepSpec sweep;
  sweep.base = tiny_config();
  sweep.workloads = {*find_profile("mcf-like")};
  sweep.policy_specs = {"none", "oracle", "mapg", "idle-timeout:64"};
  sweep.n_seeds = 3;

  ExperimentEngine replayed;
  const SweepResult fast = replayed.run_sweep(sweep);
  // Per seed, `none` is the recording and oracle and mapg replay.
  EXPECT_GE(replayed.stats().jobs_replayed, 6u);

  ExecOptions direct_opts;
  direct_opts.use_replay = false;
  ExperimentEngine direct(direct_opts);
  const SweepResult slow = direct.run_sweep(sweep);
  EXPECT_EQ(direct.stats().jobs_replayed, 0u);

  for (std::size_t pi = 0; pi < sweep.policy_specs.size(); ++pi) {
    const ReplicatedComparison a = replicate(fast, 0, 0, pi);
    const ReplicatedComparison b = replicate(slow, 0, 0, pi);
    SCOPED_TRACE(sweep.policy_specs[pi]);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.replicates(), 3u);
    expect_same_stat(a.core_energy_savings, b.core_energy_savings, "core");
    expect_same_stat(a.total_energy_savings, b.total_energy_savings,
                     "total");
    expect_same_stat(a.net_leakage_savings, b.net_leakage_savings, "leak");
    expect_same_stat(a.runtime_overhead, b.runtime_overhead, "overhead");
    expect_same_stat(a.mpki, b.mpki, "mpki");
    expect_same_stat(a.ipc, b.ipc, "ipc");
  }
}

}  // namespace
}  // namespace mapg

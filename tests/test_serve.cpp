// Serve subsystem tests: request coalescing (exactly-one-compute, proven
// deterministically with a barrier inside the leader's compute), the hot
// LRU tier, tiered resolution's byte-identity contract against a direct
// ExperimentEngine run, cross-request timeline reuse, and the full server
// over real sockets — including N concurrent identical requests causing
// exactly one simulation.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netdb.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "exec/serialize.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/coalescer.h"
#include "serve/hot_cache.h"
#include "serve/server.h"
#include "serve/tiered.h"
#include "trace/profile.h"

namespace mapg::serve {
namespace {

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

 private:
  std::filesystem::path path_;
};

ExperimentJob tiny_job(const std::string& workload = "mcf-like",
                       const std::string& policy = "mapg",
                       std::uint64_t seed = 1) {
  ExperimentJob job;
  job.config.instructions = 40000;
  job.config.warmup_instructions = 5000;
  job.config.run_seed = seed;
  job.profile = *find_profile(workload);
  job.policy_spec = policy;
  return job;
}

/// The reference bytes: a direct, replay-free, cache-free engine run.
std::string direct_dump(const ExperimentJob& job) {
  ExecOptions opts;
  opts.jobs = 1;
  opts.use_replay = false;
  ExperimentEngine engine(opts);
  const JobOutcome out = engine.run_one(job);
  EXPECT_TRUE(out.ok) << out.error;
  return result_to_json(*out.result).dump();
}

// --- RequestCoalescer ----------------------------------------------------

TEST(Coalescer, NConcurrentIdenticalKeysComputeExactlyOnce) {
  constexpr int kThreads = 8;
  RequestCoalescer coalescer;
  std::atomic<int> computes{0};
  std::atomic<bool> timed_out{false};

  // The leader's compute blocks until every other thread has registered as
  // a follower (coalesced_ is counted under the coalescer lock BEFORE the
  // follower waits), making "exactly one compute" deterministic, not a
  // race we usually win.
  const auto compute = [&] {
    computes.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (coalescer.coalesced_total() <
           static_cast<std::uint64_t>(kThreads - 1)) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        break;
      }
      std::this_thread::yield();
    }
    JobOutcome out;
    out.ok = true;
    out.result = std::make_shared<const SimResult>();
    return out;
  };

  std::vector<std::thread> threads;
  std::vector<JobOutcome> outcomes(kThreads);
  std::vector<char> waited(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      bool coalesced = false;
      outcomes[i] = coalescer.run("the-key", compute, &coalesced);
      waited[i] = coalesced ? 1 : 0;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(coalescer.coalesced_total(),
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(coalescer.inflight(), 0u);
  int leaders = 0;
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(outcomes[i].ok);
    // Followers share the leader's result object, not a copy.
    EXPECT_EQ(outcomes[i].result, outcomes[0].result);
    leaders += waited[i] ? 0 : 1;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Coalescer, DistinctKeysDoNotBlockEachOther) {
  RequestCoalescer coalescer;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  const auto compute = [&] {
    const int now = running.fetch_add(1) + 1;
    int old = peak.load();
    while (now > old && !peak.compare_exchange_weak(old, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    running.fetch_sub(1);
    JobOutcome out;
    out.ok = true;
    out.result = std::make_shared<const SimResult>();
    return out;
  };
  std::thread a([&] { coalescer.run("key-a", compute); });
  std::thread b([&] { coalescer.run("key-b", compute); });
  a.join();
  b.join();
  EXPECT_EQ(peak.load(), 2);  // both computes overlapped
  EXPECT_EQ(coalescer.coalesced_total(), 0u);
}

TEST(Coalescer, ThrowingLeaderReleasesFollowersAndRetriesFresh) {
  RequestCoalescer coalescer;
  std::atomic<int> calls{0};
  const auto failing = [&]() -> JobOutcome {
    calls.fetch_add(1);
    throw std::runtime_error("boom");
  };
  const JobOutcome out = coalescer.run("k", failing);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("boom"), std::string::npos);
  EXPECT_EQ(coalescer.inflight(), 0u);  // key unpublished after failure
  coalescer.run("k", failing);
  EXPECT_EQ(calls.load(), 2);  // a later retry computes afresh
}

// --- HotCache ------------------------------------------------------------

std::shared_ptr<const SimResult> dummy_result() {
  return std::make_shared<const SimResult>();
}

TEST(HotCache, LruEvictsLeastRecentlyUsed) {
  HotCache cache(2);
  cache.put("a", dummy_result());
  cache.put("b", dummy_result());
  EXPECT_NE(cache.get("a"), nullptr);  // touch: b is now LRU
  cache.put("c", dummy_result());      // evicts b
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(HotCache, PeekIsStatsAndRecencyNeutral) {
  HotCache cache(2);
  cache.put("a", dummy_result());
  cache.put("b", dummy_result());
  const HotCacheStats before = cache.stats();
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("zz"), nullptr);
  const HotCacheStats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  cache.put("c", dummy_result());  // peek("a") must NOT have protected a
  EXPECT_EQ(cache.get("a"), nullptr);
}

TEST(HotCache, ZeroCapacityDisablesTheTier) {
  HotCache cache(0);
  cache.put("a", dummy_result());
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// --- TieredExecutor ------------------------------------------------------

TEST(Tiered, EveryTierReturnsByteIdenticalResults) {
  const ExperimentJob job = tiny_job();
  const std::string reference = direct_dump(job);

  ExecOptions opts;
  opts.jobs = 1;
  ExperimentEngine engine(opts);
  TieredExecutor tiered(engine);

  const ServeOutcome computed = tiered.run_cell(job);
  ASSERT_TRUE(computed.job.ok) << computed.job.error;
  EXPECT_EQ(computed.tier, Tier::kCompute);
  EXPECT_EQ(result_to_json(*computed.job.result).dump(), reference);

  const ServeOutcome hot = tiered.run_cell(job);
  EXPECT_EQ(hot.tier, Tier::kHot);
  EXPECT_EQ(result_to_json(*hot.job.result).dump(), reference);

  // A fresh tiered executor over the same engine: hot tier cold, engine
  // cache warm.
  TieredExecutor fresh(engine);
  const ServeOutcome cached = fresh.run_cell(job);
  EXPECT_EQ(cached.tier, Tier::kCache);
  EXPECT_EQ(result_to_json(*cached.job.result).dump(), reference);

  EXPECT_EQ(engine.stats().jobs_run, 1u);  // one simulation total
}

TEST(Tiered, SweepRecordsTimelineOnceAndLaterRequestsReuseIt) {
  ExecOptions opts;
  opts.jobs = 1;
  ExperimentEngine engine(opts);
  TieredExecutor tiered(engine);

  const std::vector<std::string> policies = {"none", "mapg",
                                             "idle-timeout:64"};
  std::vector<ExperimentJob> jobs;
  for (const std::string& p : policies) jobs.push_back(tiny_job("mcf-like", p));

  const std::vector<ServeOutcome> outcomes =
      tiered.run_cells(jobs, 1, policies.size(), 1);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(outcomes[i].job.ok) << outcomes[i].job.error;
    EXPECT_EQ(result_to_json(*outcomes[i].job.result).dump(),
              direct_dump(jobs[i]))
        << "policy " << policies[i];
  }
  const ServeStats after_sweep = tiered.stats();
  EXPECT_EQ(after_sweep.timelines_recorded, 1u);
  // The recording run IS the `none` cell, so it comes back as a cache hit.
  EXPECT_EQ(outcomes[0].tier, Tier::kCache);

  // A LATER, separate request in the same (config, workload, seed) group:
  // replays the cached timeline instead of simulating from scratch.
  const ExperimentJob late = tiny_job("mcf-like", "oracle");
  const ServeOutcome out = tiered.run_cell(late);
  ASSERT_TRUE(out.job.ok) << out.job.error;
  EXPECT_EQ(result_to_json(*out.job.result).dump(), direct_dump(late));
  EXPECT_GT(tiered.stats().timelines_reused, after_sweep.timelines_reused);
}

// --- ServeServer end-to-end over real sockets ----------------------------

class ServeServerTest : public ::testing::Test {
 protected:
  void start_server(unsigned jobs = 2, const std::string& cache_dir = {}) {
    ServerOptions opts;
    opts.port = 0;  // ephemeral
    opts.exec.jobs = jobs;
    opts.exec.cache_dir = cache_dir;
    server_ = std::make_unique<ServeServer>(opts);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  std::unique_ptr<ServeClient> connect() {
    auto client = std::make_unique<ServeClient>();
    std::string error;
    EXPECT_TRUE(client->connect("127.0.0.1", server_->port(), &error))
        << error;
    return client;
  }

  static CellRequest tiny_cell(const std::string& policy = "mapg",
                               const std::string& seed = "1") {
    CellRequest req;
    req.config = {{"instructions", "40000"},
                  {"warmup", "5000"},
                  {"seed", seed}};
    req.workload = "mcf-like";
    req.policy = policy;
    return req;
  }

  std::unique_ptr<ServeServer> server_;
};

TEST_F(ServeServerTest, PingCellAndStats) {
  start_server();
  auto client = connect();
  std::string error;
  EXPECT_TRUE(client->ping(&error)) << error;

  const std::optional<Json> doc = client->cell(tiny_cell(), &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_TRUE(doc->get("ok").as_bool());
  EXPECT_EQ(doc->get("tier").as_string(), "compute");
  // The wire bytes of the embedded result are exactly what a local engine
  // serializes for the same cell — the byte-identity contract.
  EXPECT_EQ(doc->get("result").dump(),
            direct_dump(tiny_job("mcf-like", "mapg", 1)));

  const std::optional<Json> stats = client->stats(&error);
  ASSERT_TRUE(stats) << error;
  EXPECT_EQ(stats->get("serve").get("cells").as_u64(), 1u);
  EXPECT_EQ(stats->get("engine").get("jobs_run").as_u64(), 1u);
}

TEST_F(ServeServerTest, UnbuildablePlatformIsAnErrorReplyAndServingGoesOn) {
  // A zero-channel platform would divide by zero inside the server: the
  // request gets an error naming the key, and the next one an answer.
  start_server(2);
  auto client = connect();
  std::string error;
  CellRequest req = tiny_cell();
  req.config["dram.channels"] = "0";
  EXPECT_FALSE(client->cell(req, &error));
  EXPECT_NE(error.find("dram.channels=0"), std::string::npos) << error;
  error.clear();
  EXPECT_TRUE(client->ping(&error)) << error;
  const std::optional<Json> doc = client->cell(tiny_cell(), &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_TRUE(doc->get("ok").as_bool());
}

TEST_F(ServeServerTest, TraceFrontEndHelpersStartOnlyWithThreadsOver) {
  // Each open connection holds one slot of --jobs and each request in
  // flight another: two clients at two jobs leave no thread for a trace
  // front-end helper, one client at four jobs does.  The bytes are the
  // same either way.
  auto& reg = obs::MetricsRegistry::instance();
  const auto staged = [&reg] {
    return reg.counter("sim.frontend.staged").value();
  };
  start_server(2);
  auto a = connect();
  auto b = connect();
  std::string error;
  const std::uint64_t s0 = staged();
  for (const char* seed : {"11", "12", "13"})
    for (ServeClient* c : {a.get(), b.get()}) {
      const std::optional<Json> doc = c->cell(tiny_cell("mapg", seed), &error);
      ASSERT_TRUE(doc) << error;
      ASSERT_TRUE(doc->get("ok").as_bool());
    }
  EXPECT_EQ(staged(), s0);
  a.reset();
  b.reset();
  server_.reset();

  start_server(4);
  auto one = connect();
  const std::uint64_t s1 = staged();
  const std::optional<Json> doc = one->cell(tiny_cell("mapg", "21"), &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_EQ(doc->get("result").dump(),
            direct_dump(tiny_job("mcf-like", "mapg", 21)));
  const ThreadBudget& process = ThreadBudget::process();
  if (obs::kCompiledIn && process.limit() >= process.in_use() + 2) {
    EXPECT_EQ(staged(), s1 + 1);
  }
}

TEST_F(ServeServerTest, SweepMatchesDirectEngineCellByCell) {
  start_server();
  auto client = connect();
  SweepRequest req;
  req.config = {{"instructions", "40000"}, {"warmup", "5000"},
                {"seed", "1"}};
  req.workloads = {"mcf-like", "gcc-like"};
  req.policies = {"none", "mapg"};
  req.seeds = 2;
  std::string error;
  const std::optional<Json> doc = client->sweep(req, &error);
  ASSERT_TRUE(doc) << error;
  const Json& cells = doc->get("cells");
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);

  // Expansion order: workload outer, policy mid, seed inner — and every
  // cell byte-identical to a direct engine run.
  std::size_t i = 0;
  for (const std::string& w : req.workloads) {
    for (const std::string& p : req.policies) {
      for (unsigned s = 0; s < req.seeds; ++s, ++i) {
        const Json& cell = cells.at(i);
        ASSERT_TRUE(cell.get("ok").as_bool());
        ExperimentJob job = tiny_job(w, p, 1 + s);
        EXPECT_EQ(cell.get("result").dump(), direct_dump(job))
            << w << "/" << p << "/seed" << s;
      }
    }
  }
}

TEST_F(ServeServerTest, EachServedCellProbesTheEngineCacheOnce) {
  // Three cells, then a sweep whose two groups each record a timeline: the
  // `none` cells are then cache hits, `mapg` replays and idle-timeout:64
  // computes.  A cell the hot tier does not answer probes the engine cache
  // once, on its way to compute too, and planning the sweep counts
  // nothing, so the probes add up to those cells.
  start_server(2);
  auto client = connect();
  std::string error;
  for (const char* seed : {"1", "2", "3"}) {
    CellRequest req;
    req.config = {{"instructions", "2000"}, {"warmup", "200"},
                  {"seed", seed}};
    req.workload = "gcc-like";
    req.policy = "mapg";
    ASSERT_TRUE(client->cell(req, &error)) << error;
  }
  SweepRequest sweep;
  sweep.config = {{"instructions", "2000"}, {"warmup", "200"}};
  sweep.workloads = {"mcf-like", "gcc-like"};
  sweep.policies = {"none", "mapg", "idle-timeout:64"};
  ASSERT_TRUE(client->sweep(sweep, &error)) << error;

  const std::optional<Json> stats = client->stats(&error);
  ASSERT_TRUE(stats) << error;
  const Json& serve = stats->get("serve");
  const Json& cache = stats->get("cache");
  EXPECT_EQ(serve.get("cells").as_u64(), 9u);
  EXPECT_EQ(cache.get("memory_hits").as_u64() +
                cache.get("disk_hits").as_u64() +
                cache.get("misses").as_u64(),
            serve.get("cells").as_u64() - serve.get("hot_hits").as_u64());
  EXPECT_EQ(cache.get("memory_hits").as_u64(), 2u);  // the `none` cells
  EXPECT_EQ(cache.get("misses").as_u64(), 7u);
}

TEST_F(ServeServerTest, ConcurrentIdenticalRequestsSimulateExactlyOnce) {
  start_server(/*jobs=*/4);
  constexpr int kClients = 6;
#if MAPG_OBS_ENABLED
  const std::uint64_t coalesced_before =
      obs::MetricsRegistry::instance().counter("serve.coalesced").value();
#endif

  std::vector<std::string> dumps(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &dumps] {
      ServeClient client;
      std::string error;
      ASSERT_TRUE(client.connect("127.0.0.1", server_->port(), &error))
          << error;
      const std::optional<Json> doc = client.cell(tiny_cell(), &error);
      ASSERT_TRUE(doc) << error;
      ASSERT_TRUE(doc->get("ok").as_bool());
      dumps[i] = doc->get("result").dump();
    });
  }
  for (auto& t : threads) t.join();

  // The hard guarantee: however the requests interleaved (coalesced while
  // in flight, hot/cache hits after), the simulation ran exactly once.
  EXPECT_EQ(server_->engine().stats().jobs_run, 1u);
  const ServeStats stats = server_->tiered().stats();
  EXPECT_EQ(stats.cells, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.coalesced + stats.hot_hits + stats.cache_hits +
                stats.replayed,
            static_cast<std::uint64_t>(kClients - 1));
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(dumps[i], dumps[0]);

#if MAPG_OBS_ENABLED
  // The serve.coalesced counter tracks the tiered stats exactly.
  EXPECT_EQ(obs::MetricsRegistry::instance()
                .counter("serve.coalesced")
                .value() -
                coalesced_before,
            stats.coalesced);
#endif
}

TEST_F(ServeServerTest, PipelinedRequestsComeBackInOrder) {
  start_server(/*jobs=*/4);
  auto client = connect();
  std::string error;
  // Mix fast (ping) and slow (cell) requests; replies must arrive in
  // request order even though workers finish out of order.
  ASSERT_TRUE(client->send(FrameType::kCell,
                           cell_request_json(tiny_cell("mapg")).dump(),
                           &error));
  ASSERT_TRUE(client->send(FrameType::kPing, {}, &error));
  ASSERT_TRUE(client->send(FrameType::kCell,
                           cell_request_json(tiny_cell("none")).dump(),
                           &error));
  ASSERT_TRUE(client->send(FrameType::kPing, {}, &error));

  Frame reply;
  ASSERT_TRUE(client->recv(&reply, &error)) << error;
  EXPECT_EQ(reply.type, FrameType::kReplyOk);
  EXPECT_FALSE(reply.payload.empty());  // cell response
  ASSERT_TRUE(client->recv(&reply, &error)) << error;
  EXPECT_TRUE(reply.payload.empty());  // ping ack
  ASSERT_TRUE(client->recv(&reply, &error)) << error;
  EXPECT_FALSE(reply.payload.empty());
  ASSERT_TRUE(client->recv(&reply, &error)) << error;
  EXPECT_TRUE(reply.payload.empty());
}

TEST_F(ServeServerTest, BadRequestsGetErrorsAndGarbageKillsOnlyThatConn) {
  start_server();
  auto client = connect();
  std::string error;

  // Unknown workload / unknown config key -> kReplyError with a message.
  CellRequest bad = tiny_cell();
  bad.workload = "no-such-workload";
  EXPECT_FALSE(client->cell(bad, &error));
  EXPECT_NE(error.find("workload"), std::string::npos);

  bad = tiny_cell();
  bad.config["definitely.not.a.key"] = "1";
  EXPECT_FALSE(client->cell(bad, &error));
  EXPECT_NE(error.find("unknown config key"), std::string::npos);

  // A connection writing garbage gets dropped...
  {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port = std::to_string(server_->port());
    ASSERT_EQ(::getaddrinfo("127.0.0.1", port.c_str(), &hints, &res), 0);
    const int fd = ::socket(res->ai_family, res->ai_socktype,
                            res->ai_protocol);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, res->ai_addr, res->ai_addrlen), 0);
    ::freeaddrinfo(res);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::write(fd, garbage, sizeof(garbage)), 0);
    char buf[16];
    // EOF or RST — either way the server dropped this connection (RST when
    // our unread garbage was still in its receive buffer at close).
    EXPECT_LE(::read(fd, buf, sizeof(buf)), 0);
    ::close(fd);
  }

  // ...but the server (and this healthy connection) survive.
  EXPECT_TRUE(client->ping(&error)) << error;
}

/// Connect a raw socket to the server on localhost and wait up to 10 s for
/// it to be closed: the read's result (0 = closed by the server), or -2
/// when the connection could not be made.
ssize_t connect_and_read(std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo("127.0.0.1", std::to_string(port).c_str(), &hints,
                    &res) != 0)
    return -2;
  const int fd = ::socket(res->ai_family, res->ai_socktype,
                          res->ai_protocol);
  const bool connected =
      fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0;
  ::freeaddrinfo(res);
  if (!connected) {
    if (fd >= 0) ::close(fd);
    return -2;
  }
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  char buf[16];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  ::close(fd);
  return n;
}

// The accept loop starts one thread per connection.  When none can be
// started, that connection is closed, its bookkeeping given back (stop()
// waits for every counted connection) and the next one accepted.  The
// child makes every thread start fail without starting any: no 64 TiB
// stack can be mapped.  Without the catch, the failed start escapes the
// accept thread and std::terminate aborts the child.
TEST(ServeServerDeathTest, FailedConnectionThreadDropsOnlyThatConnection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ServerOptions opts;
        opts.port = 0;  // ephemeral
        opts.exec.jobs = 1;
        ServeServer server(opts);
        std::string error;
        if (!server.start(&error)) std::_Exit(2);
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setstacksize(&attr, std::size_t{1} << 46);
        if (pthread_setattr_default_np(&attr) != 0) std::_Exit(3);
        // Two connections: each is closed, so the loop kept accepting.
        for (int i = 0; i < 2; ++i)
          if (connect_and_read(server.port()) != 0) std::_Exit(4);
        server.stop();
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(ServeServerTest, ShutdownRequestUnblocksWait) {
  start_server();
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    server_->wait();
    returned.store(true);
  });
  auto client = connect();
  std::string error;
  EXPECT_TRUE(client->shutdown_server(&error)) << error;
  waiter.join();
  EXPECT_TRUE(returned.load());
  server_->stop();
}

}  // namespace
}  // namespace mapg::serve

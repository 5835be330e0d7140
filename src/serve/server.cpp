#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/config.h"
#include "common/log.h"
#include "exec/serialize.h"
#include "exec/thread_pool.h"
#include "multicore/config_apply.h"
#include "obs/obs.h"
#include "trace/profile.h"

namespace mapg::serve {

namespace {

Frame ok_frame(std::string payload = {}) {
  return Frame{FrameType::kReplyOk, std::move(payload)};
}

Frame error_frame(const std::string& text) {
  return Frame{FrameType::kReplyError, error_payload(text)};
}

/// CellRequest -> ExperimentJob: apply the key=value config dialect onto
/// the platform defaults and resolve the builtin workload.  Unknown config
/// keys are request errors, not warnings — a typo must not silently serve
/// results for a different platform than the client asked about.  A
/// platform no model can be built for throws (check_platform), and
/// process() answers the request with its error.
bool job_from_cell(const CellRequest& req, ExperimentJob* job,
                   std::string* error) {
  KvConfig kv;
  for (const auto& [k, v] : req.config) kv.set(k, v);
  std::vector<std::string> unknown;
  job->config = apply_sim_config(kv, SimConfig{}, &unknown);
  if (!unknown.empty()) {
    *error = "unknown config key '" + unknown.front() + "'";
    return false;
  }
  check_platform(job->config.core, job->config.mem);
  const WorkloadProfile* profile = find_profile(req.workload);
  if (profile == nullptr) {
    *error = "unknown workload '" + req.workload + "'";
    return false;
  }
  job->profile = *profile;
  job->policy_spec = req.policy;
  return true;
}

/// SweepRequest -> jobs in ExperimentEngine::expand order (workload outer,
/// policy mid, seed inner; one variant).
bool expand_sweep(const SweepRequest& req, std::vector<ExperimentJob>* jobs,
                  std::string* error) {
  KvConfig kv;
  for (const auto& [k, v] : req.config) kv.set(k, v);
  std::vector<std::string> unknown;
  const SimConfig base = apply_sim_config(kv, SimConfig{}, &unknown);
  if (!unknown.empty()) {
    *error = "unknown config key '" + unknown.front() + "'";
    return false;
  }
  check_platform(base.core, base.mem);
  if (req.policies.empty() || req.workloads.empty()) {
    *error = "sweep needs workloads and policies";
    return false;
  }
  jobs->clear();
  jobs->reserve(req.workloads.size() * req.policies.size() * req.seeds);
  for (const std::string& w : req.workloads) {
    const WorkloadProfile* profile = find_profile(w);
    if (profile == nullptr) {
      *error = "unknown workload '" + w + "'";
      return false;
    }
    for (const std::string& p : req.policies) {
      for (unsigned s = 0; s < req.seeds; ++s) {
        ExperimentJob job;
        job.config = base;
        job.config.run_seed += s;
        job.profile = *profile;
        job.policy_spec = p;
        jobs->push_back(std::move(job));
      }
    }
  }
  return true;
}

/// The response document for one resolved cell.  `result` embeds
/// result_to_json verbatim, so extracting and dumping it reproduces the
/// exact bytes a local engine run serializes to — the identity contract.
Json cell_response_json(const ServeOutcome& out) {
  Json doc = Json::object();
  doc["ok"] = Json::boolean(out.job.ok);
  doc["tier"] = Json::string(tier_name(out.tier));
  if (out.job.ok) {
    doc["cached"] = Json::boolean(out.job.from_cache);
    doc["replayed"] = Json::boolean(out.job.from_replay);
    doc["result"] = result_to_json(*out.job.result);
  } else {
    doc["error"] = Json::string(out.job.error);
  }
  return doc;
}

}  // namespace

ServeServer::ServeServer(ServerOptions options)
    : options_(std::move(options)),
      engine_(std::make_unique<ExperimentEngine>(options_.exec)),
      tiered_(std::make_unique<TieredExecutor>(*engine_, options_.tiered)) {
  MAPG_OBS_ONLY({
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("serve.requests");
    reg.counter("serve.connections");
    reg.gauge("serve.connections.open");
    reg.gauge("serve.queue.depth");
    reg.histogram("serve.request.wall_ns");
  })
}

ServeServer::~ServeServer() { stop(); }

bool ServeServer::start(std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(options_.port);
  if (const int rc = ::getaddrinfo(options_.bind_addr.c_str(),
                                   port_str.c_str(), &hints, &res);
      rc != 0) {
    if (error) *error = std::string("resolve ") + options_.bind_addr + ": " +
                        ::gai_strerror(rc);
    return false;
  }
  std::string last_error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, options_.listen_backlog) == 0) {
      listen_fd_ = fd;
      break;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (listen_fd_ < 0) {
    if (error) *error = options_.bind_addr + ":" + port_str + ": " +
                        last_error;
    return false;
  }

  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    if (bound.ss_family == AF_INET)
      port_ = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    else if (bound.ss_family == AF_INET6)
      port_ = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread(&ServeServer::accept_loop, this);
  return true;
}

void ServeServer::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by stop()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        ::close(fd);
        break;
      }
      conns_.insert(conn);
      ++active_conns_;
    }
    MAPG_OBS_COUNTER_INC("serve.connections");
    MAPG_OBS_ONLY(MAPG_OBS_GAUGE_ADD("serve.connections.open", 1);)
    try {
      ThreadPool::launch([this, conn] { handle_connection(conn); });
    } catch (const std::system_error&) {
      // No thread to serve it: drop this connection, give back what it was
      // counted as, and keep accepting.
      {
        std::lock_guard<std::mutex> lk(mu_);
        conns_.erase(conn);
        --active_conns_;
        MAPG_OBS_ONLY(MAPG_OBS_GAUGE_ADD("serve.connections.open", -1);)
        state_cv_.notify_all();
      }
      ::close(fd);
    }
  }
}

void ServeServer::deliver(const std::shared_ptr<Conn>& conn,
                          std::uint64_t seq, Frame reply) {
  std::lock_guard<std::mutex> lk(conn->mu);
  conn->ready.emplace(seq, std::move(reply));
  auto it = conn->ready.begin();
  while (it != conn->ready.end() && it->first == conn->next_write) {
    if (!conn->broken) {
      std::string error;
      if (!write_frame(conn->fd, it->second, &error)) {
        conn->broken = true;  // client gone; keep draining silently
      }
    }
    it = conn->ready.erase(it);
    ++conn->next_write;
    --conn->outstanding;
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  }
  MAPG_OBS_ONLY(MAPG_OBS_GAUGE_SET(
      "serve.queue.depth", queue_depth_.load(std::memory_order_relaxed));)
  conn->cv.notify_all();
}

void ServeServer::handle_connection(std::shared_ptr<Conn> conn) {
  {
    // An open connection counts as one busy thread of --jobs.  A closed-loop
    // client between two requests has no task in flight, yet it sends again
    // within a round trip, and a trace front-end helper started in that gap
    // would compete with its next request (trace/staged_source.h).
    const ThreadBudget::Slots open(engine_->budget(), 1);
    serve_requests(conn);
  }
  ::close(conn->fd);
  // Gauge and notify stay under mu_: once it is released with
  // active_conns_ == 0, stop() may return and the server (state_cv_
  // included) may be destroyed while this thread still runs.
  std::lock_guard<std::mutex> lk(mu_);
  conns_.erase(conn);
  --active_conns_;
  MAPG_OBS_ONLY(MAPG_OBS_GAUGE_ADD("serve.connections.open", -1);)
  state_cv_.notify_all();
}

void ServeServer::serve_requests(const std::shared_ptr<Conn>& conn) {
  std::uint64_t next_seq = 0;
  Frame request;
  std::string error;
  while (read_frame(conn->fd, &request, &error)) {
    const std::uint64_t seq = next_seq++;
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      ++conn->outstanding;
    }
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    MAPG_OBS_COUNTER_INC("serve.requests");

    if (request.type == FrameType::kShutdown) {
      deliver(conn, seq, ok_frame());
      {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_requested_ = true;
      }
      state_cv_.notify_all();
      continue;
    }
    if (request.type == FrameType::kPing ||
        request.type == FrameType::kStats) {
      deliver(conn, seq,
              request.type == FrameType::kPing ? ok_frame() : handle_stats());
      continue;
    }
    // Compute requests queue on the engine (at most --jobs run at once);
    // the sequencer keeps the response order regardless of completion order.
    engine_->submit_detached([this, conn, seq,
                              req = std::move(request)]() mutable {
      [[maybe_unused]] std::uint64_t ts = 0;
      MAPG_OBS_ONLY(obs::EventTracer& tracer = obs::EventTracer::instance();
                    if (tracer.enabled()) ts = tracer.now_ns();)
      const auto t0 = std::chrono::steady_clock::now();
      Frame reply = process(req);
      const auto dur_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      MAPG_OBS_ONLY(
          MAPG_OBS_HIST_RECORD("serve.request.wall_ns",
                               static_cast<std::uint64_t>(dur_ns));
          if (tracer.enabled()) {
            tracer.complete(
                "request", "serve", ts, tracer.now_ns() - ts,
                obs::TraceArgs()
                    .add("type",
                         std::uint64_t{static_cast<std::uint32_t>(req.type)})
                    .add("ok", reply.type == FrameType::kReplyOk)
                    .json());
          })
      (void)dur_ns;
      deliver(conn, seq, std::move(reply));
    });
    request = Frame{};  // moved-from; reset for the next read
  }
  if (!error.empty())
    log_warn() << "serve: connection error: " << error;

  // Drain: every assigned response must be written (or dropped on a broken
  // pipe) before the fd closes.
  {
    std::unique_lock<std::mutex> lk(conn->mu);
    conn->cv.wait(lk, [&] { return conn->outstanding == 0; });
  }
}

Frame ServeServer::process(const Frame& request) {
  try {
    switch (request.type) {
      case FrameType::kCell:
        return handle_cell(request.payload);
      case FrameType::kSweep:
        return handle_sweep(request.payload);
      default:
        return error_frame("unexpected frame type " +
                           std::to_string(static_cast<std::uint32_t>(
                               request.type)));
    }
  } catch (const std::invalid_argument& e) {
    return error_frame(e.what());  // a request no model can be built for
  } catch (const std::exception& e) {
    return error_frame(std::string("internal error: ") + e.what());
  }
}

Frame ServeServer::handle_cell(const std::string& payload) {
  std::string error;
  const std::optional<Json> doc = Json::parse(payload, &error);
  if (!doc) return error_frame("bad cell request: " + error);
  CellRequest req;
  if (!parse_cell_request(*doc, &req, &error)) return error_frame(error);
  ExperimentJob job;
  if (!job_from_cell(req, &job, &error)) return error_frame(error);
  return ok_frame(cell_response_json(tiered_->run_cell(job)).dump());
}

Frame ServeServer::handle_sweep(const std::string& payload) {
  std::string error;
  const std::optional<Json> doc = Json::parse(payload, &error);
  if (!doc) return error_frame("bad sweep request: " + error);
  SweepRequest req;
  if (!parse_sweep_request(*doc, &req, &error)) return error_frame(error);
  std::vector<ExperimentJob> jobs;
  if (!expand_sweep(req, &jobs, &error)) return error_frame(error);

  const std::vector<ServeOutcome> outcomes = tiered_->run_cells(
      jobs, req.workloads.size(), req.policies.size(), req.seeds);
  Json reply = Json::object();
  reply["n_workloads"] = Json::number(req.workloads.size());
  reply["n_policies"] = Json::number(req.policies.size());
  reply["n_seeds"] = Json::number(req.seeds);
  Json cells = Json::array();
  for (const ServeOutcome& out : outcomes)
    cells.push(cell_response_json(out));
  reply["cells"] = std::move(cells);
  return ok_frame(reply.dump());
}

Frame ServeServer::handle_stats() {
  const ServeStats ss = tiered_->stats();
  const EngineStats es = engine_->stats();
  const CacheStatsSnapshot cs = engine_->cache().stats();
  const HotCacheStats hs = tiered_->hot_cache().stats();

  Json doc = Json::object();
  Json serve = Json::object();
  serve["requests"] = Json::number(requests_.load());
  serve["cells"] = Json::number(ss.cells);
  serve["hot_hits"] = Json::number(ss.hot_hits);
  serve["cache_hits"] = Json::number(ss.cache_hits);
  serve["replayed"] = Json::number(ss.replayed);
  serve["computed"] = Json::number(ss.computed);
  serve["coalesced"] = Json::number(ss.coalesced);
  serve["errors"] = Json::number(ss.errors);
  serve["timelines_recorded"] = Json::number(ss.timelines_recorded);
  serve["timelines_reused"] = Json::number(ss.timelines_reused);
  serve["replay_fallbacks"] = Json::number(ss.replay_fallbacks);
  serve["timelines_cached"] = Json::number(tiered_->timelines_cached());
  doc["serve"] = std::move(serve);

  Json engine = Json::object();
  engine["jobs_run"] = Json::number(es.jobs_run);
  engine["jobs_cached"] = Json::number(es.jobs_cached);
  engine["jobs_failed"] = Json::number(es.jobs_failed);
  engine["jobs_replayed"] = Json::number(es.jobs_replayed);
  doc["engine"] = std::move(engine);

  Json cache = Json::object();
  cache["memory_hits"] = Json::number(cs.memory_hits);
  cache["disk_hits"] = Json::number(cs.disk_hits);
  cache["misses"] = Json::number(cs.misses);
  cache["stores"] = Json::number(cs.stores);
  cache["disk_errors"] = Json::number(cs.disk_errors);
  doc["cache"] = std::move(cache);

  Json hot = Json::object();
  hot["hits"] = Json::number(hs.hits);
  hot["misses"] = Json::number(hs.misses);
  hot["insertions"] = Json::number(hs.insertions);
  hot["evictions"] = Json::number(hs.evictions);
  hot["size"] = Json::number(tiered_->hot_cache().size());
  doc["hot"] = std::move(hot);

  return ok_frame(doc.dump());
}

void ServeServer::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  state_cv_.wait(lk, [&] { return shutdown_requested_ || stopping_; });
}

void ServeServer::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_ || stopping_) {
      stopping_ = true;
      state_cv_.notify_all();
      return;
    }
    stopping_ = true;
  }
  state_cv_.notify_all();

  // Closing the listen socket pops accept() out of its block.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  // Wake every connection reader; they drain their in-flight responses and
  // deregister themselves.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::shared_ptr<Conn>& conn : conns_)
      ::shutdown(conn->fd, SHUT_RDWR);
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    state_cv_.wait(lk, [&] { return active_conns_ == 0; });
  }
}

}  // namespace mapg::serve

// ServeServer: the resident experiment server (docs/SERVE.md).
//
// One process, one listening TCP socket, one ExperimentEngine.  An accept
// loop hands each connection to a reader thread; every request the reader
// parses is assigned a per-connection sequence number and fed to the
// engine's ThreadPool (exec::submit_detached), so simulation work from all
// connections shares one bounded worker set — `--jobs` is the server's
// whole compute budget.  A per-connection sequencer writes responses back
// in request order regardless of which worker finished first, which is
// what makes client-side pipelining (serve/client.h) legal.
//
// Cells resolve through the TieredExecutor: hot LRU -> engine result cache
// -> cached-timeline replay -> compute, with request coalescing across
// connections (serve/tiered.h).  Responses are byte-identical to a batch
// ExperimentEngine run of the same cells — the contract tests/test_serve.cpp
// and the CI serve smoke assert.
//
// Lifecycle: start() binds and returns; wait() blocks until a kShutdown
// request (or stop()); stop() closes the listen socket, wakes every
// connection, drains in-flight work, and joins.  SIGTERM handling lives in
// tools/mapg_served.cpp (self-pipe), not here — the library stays
// signal-free for in-process embedding (tests, load bench).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "exec/engine.h"
#include "serve/protocol.h"
#include "serve/tiered.h"

namespace mapg::serve {

struct ServerOptions {
  std::string bind_addr = "127.0.0.1";
  /// 0 = ephemeral; the bound port is ServeServer::port() after start().
  std::uint16_t port = 0;
  /// Engine knobs: jobs (the server's compute budget), cache_dir (the
  /// content-addressed disk tier), use_replay.
  ExecOptions exec;
  TieredOptions tiered;
  int listen_backlog = 64;
};

class ServeServer {
 public:
  explicit ServeServer(ServerOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Bind + listen + start accepting.  False + *error on failure.
  bool start(std::string* error);

  /// Block until a client sends kShutdown or stop() is called.
  void wait();

  /// Stop accepting, wake all connections, drain in-flight requests, join.
  /// Idempotent; called by the destructor.
  void stop();

  std::uint16_t port() const { return port_; }

  ExperimentEngine& engine() { return *engine_; }
  TieredExecutor& tiered() { return *tiered_; }
  std::uint64_t requests_served() const { return requests_.load(); }

 private:
  /// Per-connection state shared by the reader thread and pool tasks.
  struct Conn {
    int fd = -1;
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t next_write = 0;  ///< next sequence number to write
    std::map<std::uint64_t, Frame> ready;  ///< finished, awaiting their turn
    std::uint64_t outstanding = 0;  ///< assigned but not yet written
    bool broken = false;            ///< write failed; drop, don't write
  };

  void accept_loop();
  void handle_connection(std::shared_ptr<Conn> conn);
  /// Publish `reply` as response `seq` on `conn`; writes every
  /// consecutively-ready response in order.
  void deliver(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
               Frame reply);

  Frame process(const Frame& request);  ///< everything except shutdown
  Frame handle_cell(const std::string& payload);
  Frame handle_sweep(const std::string& payload);
  Frame handle_stats();

  ServerOptions options_;
  std::unique_ptr<ExperimentEngine> engine_;
  std::unique_ptr<TieredExecutor> tiered_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable state_cv_;
  std::set<std::shared_ptr<Conn>> conns_;
  std::size_t active_conns_ = 0;
  bool started_ = false;
  bool stopping_ = false;
  bool shutdown_requested_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::int64_t> queue_depth_{0};
};

}  // namespace mapg::serve

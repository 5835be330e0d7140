// mapg_served — the resident experiment server (docs/SERVE.md).
//
//   mapg_served --port=18256 --jobs=8 --cache-dir=/var/cache/mapg
//   mapg_served --port=0                  # ephemeral; bound port on stdout
//
// Prints one `listening on ADDR:PORT` line to stdout once accepting, then
// serves until a client sends kShutdown (mapg_client shutdown) or the
// process receives SIGTERM/SIGINT.  Signals are handled with a self-pipe:
// the handler writes one byte, a watcher thread reads it and calls
// ServeServer::stop(), which drains in-flight requests before exit — so
// `kill` gives the same clean shutdown the protocol does.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "common/config.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "serve/server.h"

using namespace mapg;

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // write() is async-signal-safe; the watcher thread does the real work.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int usage() {
  std::cout <<
      "usage: mapg_served [options]\n"
      "  --bind=ADDR            listen address (default 127.0.0.1)\n"
      "  --port=N               listen port; 0 = ephemeral (default 18256)\n"
      "  --jobs=N               compute worker threads (default: all cores)\n"
      "  --cache-dir=DIR        persistent result cache\n"
      "                         (default: $MAPG_CACHE_DIR)\n"
      "  --no-cache=1           skip the disk cache tier\n"
      "  --replay=0             disable the cached-timeline replay tier\n"
      "  --hot-entries=N        hot LRU capacity in results (default 4096)\n"
      "  --timeline-entries=N   cached reference timelines (default 8)\n"
      "  --metrics-out=FILE     metrics snapshot as JSON on exit\n"
      "  --trace-out=FILE       Chrome trace (Perfetto-loadable) on exit\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  KvConfig kv;
  const std::vector<std::string> leftovers = kv.parse_args(argc, argv);
  for (const auto& word : leftovers) {
    if (word == "--help" || word == "-h") return usage();
    std::cerr << "unrecognized argument '" << word << "'\n";
    return usage();
  }

  const std::string trace_out = kv.get_or("trace-out", "");
  if (!trace_out.empty()) obs::EventTracer::instance().start();

  serve::ServerOptions opts;
  opts.bind_addr = kv.get_or("bind", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(kv.get_uint("port", 18256));
  opts.exec.jobs = static_cast<unsigned>(kv.get_uint("jobs", 0));
  const char* env_cache = std::getenv("MAPG_CACHE_DIR");
  opts.exec.cache_dir =
      kv.get_or("cache-dir", env_cache != nullptr ? env_cache : "");
  opts.exec.use_disk_cache = !kv.get_bool("no-cache", false);
  opts.exec.use_replay = kv.get_bool("replay", true);
  opts.tiered.hot_entries =
      static_cast<std::size_t>(kv.get_uint("hot-entries", 4096));
  opts.tiered.timeline_entries =
      static_cast<std::size_t>(kv.get_uint("timeline-entries", 8));

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // broken clients are per-connection errors

  serve::ServeServer server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "mapg_served: " << error << "\n";
    return 1;
  }
  std::cout << "listening on " << opts.bind_addr << ":" << server.port()
            << std::endl;  // flush: scripts wait for this line

  bool signalled = false;
  std::thread watcher([&] {
    char byte = 0;
    ssize_t n;
    while ((n = ::read(g_signal_pipe[0], &byte, 1)) < 0 && errno == EINTR) {
    }
    if (n > 0) {
      signalled = true;
      server.stop();  // unblocks wait()
    }
    // n == 0: main closed the write end after a protocol shutdown.
  });

  server.wait();
  server.stop();
  ::close(g_signal_pipe[1]);  // EOF for the watcher if no signal arrived
  watcher.join();

  std::cerr << "mapg_served: " << server.requests_served() << " requests, "
            << (signalled ? "signal" : "shutdown request") << "; exiting\n";

  const std::string metrics_out = kv.get_or("metrics-out", "");
  if (!metrics_out.empty() && obs::write_metrics_file(metrics_out))
    std::cerr << "[obs] metrics -> " << metrics_out << "\n";
  if (!trace_out.empty() && obs::finalize_and_write_trace(trace_out))
    std::cerr << "[obs] trace -> " << trace_out << "\n";
  return 0;
}

// Client library for the resident experiment server (docs/SERVE.md).
//
// A ServeClient owns one TCP connection and speaks the length-prefixed
// frame protocol (serve/protocol.h).  The server answers a connection's
// requests strictly in request order, which gives two usage modes:
//
//   * one-shot RPCs — ping() / cell() / sweep() / stats() /
//     shutdown_server(): write one frame, read one frame;
//   * pipelining — send() K requests back-to-back, then recv() K replies.
//     The load-generator bench uses this to keep a connection's full
//     round-trip budget doing work.
//
// Not thread-safe: one connection, one thread (the load bench opens a
// client per closed-loop worker).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "exec/json.h"
#include "serve/protocol.h"

namespace mapg::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  bool connect(const std::string& host, std::uint16_t port,
               std::string* error);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Round-trip an empty kPing; true on kReplyOk.
  bool ping(std::string* error);

  /// Server/engine/cache counters as a JSON document.
  std::optional<Json> stats(std::string* error);

  /// Ask the server to drain and exit; true once the server acknowledges.
  bool shutdown_server(std::string* error);

  /// Resolve one cell; returns the response document
  /// {"ok","tier","cached","replayed","result"} or nullopt + error (both
  /// transport failures and server-side kReplyError land in *error).
  std::optional<Json> cell(const CellRequest& request, std::string* error);

  /// Run a sweep; response {"cells":[...],"n_workloads",...}.
  std::optional<Json> sweep(const SweepRequest& request, std::string* error);

  // --- Pipelining primitives ---
  bool send(FrameType type, const std::string& payload, std::string* error);
  bool recv(Frame* frame, std::string* error);

 private:
  std::optional<Frame> roundtrip(FrameType type, const std::string& payload,
                                 std::string* error);
  /// kReplyOk payload parsed as JSON; kReplyError routed into *error.
  std::optional<Json> roundtrip_json(FrameType type,
                                     const std::string& payload,
                                     std::string* error);

  int fd_ = -1;
};

}  // namespace mapg::serve

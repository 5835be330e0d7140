// Serving-path load generator (docs/SERVE.md): closed-loop clients drive a
// ServeServer over real loopback TCP and measure QPS + p50/p99 latency at
// three cache-hit mixes — ~0 % (every request a fresh seed: cold compute),
// ~50 %, and ~95 % (requests mostly revisit a small warmed key set).
//
// "Closed loop" means each client thread has exactly one request in flight:
// it sends a cell, waits for the reply, records the wall latency, repeats.
// QPS is total requests over the mix's wall-clock; latencies are merged
// across clients before taking percentiles.  Hit ratios are verified from
// the per-response `tier` field (hot/cache/replay/coalesced = hit).
//
// The headline claim for BENCH_serve.json: hot-mix QPS >= 5x cold-mix QPS —
// the tiering exists to make repeat queries cheap, and this is the number
// that says by how much.
//
// Usage: load_serve [--instructions=N] [--warmup=N] [--clients=N]
//                   [--reqs=N] [--cold-reqs=N] [--warm-set=N] [--jobs=N]
//                   [--target=X] [--smoke=1] [--json=FILE]
//   --reqs       requests per client in the warm (50 %/95 %) mixes
//   --cold-reqs  requests per client in the cold mix (each one simulates)
//   --smoke=1    tiny counts, machinery check only, no target enforcement
//   --json=FILE  machine-readable record (scripts/bench_report.sh serve)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace mapg;
using namespace mapg::serve;
using Clock = std::chrono::steady_clock;

constexpr const char* kWorkload = "mcf-like";
constexpr const char* kPolicy = "mapg";

std::atomic<std::uint64_t> g_unique_seed{100000};

struct MixSpec {
  const char* name;
  double hit_target;   ///< fraction of requests aimed at the warm set
  std::size_t per_client;
};

struct MixResult {
  std::string name;
  double hit_target = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  double wall_s = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_ratio = 0;
  std::map<std::string, std::uint64_t> tiers;
};

CellRequest make_cell(std::uint64_t instructions, std::uint64_t warmup,
                      std::uint64_t seed) {
  CellRequest req;
  req.workload = kWorkload;
  req.policy = kPolicy;
  req.config = {{"instructions", std::to_string(instructions)},
                {"warmup", std::to_string(warmup)},
                {"seed", std::to_string(seed)}};
  return req;
}

/// Issue every warm-set cell once so later mixes find them resident in the
/// hot tier.
void warm(std::uint16_t port, std::uint64_t instructions,
          std::uint64_t warmup, std::size_t warm_set) {
  ServeClient client;
  std::string error;
  if (!client.connect("127.0.0.1", port, &error)) {
    std::fprintf(stderr, "FATAL: warm connect: %s\n", error.c_str());
    std::exit(1);
  }
  for (std::size_t s = 0; s < warm_set; ++s) {
    if (!client.cell(make_cell(instructions, warmup, 1 + s), &error)) {
      std::fprintf(stderr, "FATAL: warming seed %zu: %s\n", 1 + s,
                   error.c_str());
      std::exit(1);
    }
  }
}

MixResult run_mix(const MixSpec& spec, std::uint16_t port, unsigned clients,
                  std::uint64_t instructions, std::uint64_t warmup,
                  std::size_t warm_set) {
  // Request i targets the warm set iff its slot in a 20-wide pattern is
  // below hit_target*20 — deterministic, so every run sees the same mix.
  const std::size_t warm_slots =
      static_cast<std::size_t>(spec.hit_target * 20.0 + 0.5);

  struct PerClient {
    std::vector<double> latency_ms;
    std::map<std::string, std::uint64_t> tiers;
    std::uint64_t errors = 0;
  };
  std::vector<PerClient> per(clients);
  std::vector<ServeClient> conns(clients);
  std::string error;
  for (unsigned c = 0; c < clients; ++c)
    if (!conns[c].connect("127.0.0.1", port, &error)) {
      std::fprintf(stderr, "FATAL: client connect: %s\n", error.c_str());
      std::exit(1);
    }

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& me = per[c];
      me.latency_ms.reserve(spec.per_client);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < spec.per_client; ++i) {
        const bool hit = (i % 20) < warm_slots;
        const std::uint64_t seed =
            hit ? 1 + (c * spec.per_client + i) % warm_set
                : g_unique_seed.fetch_add(1);
        const CellRequest req = make_cell(instructions, warmup, seed);
        std::string err;
        const auto t0 = Clock::now();
        const auto doc = conns[c].cell(req, &err);
        const auto t1 = Clock::now();
        me.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (!doc || !doc->get("ok").as_bool()) {
          ++me.errors;
          ++me.tiers["error"];
        } else {
          ++me.tiers[doc->get("tier").as_string()];
        }
      }
    });
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const auto t1 = Clock::now();

  MixResult out;
  out.name = spec.name;
  out.hit_target = spec.hit_target;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  std::vector<double> merged;
  std::uint64_t hits = 0;
  for (PerClient& p : per) {
    merged.insert(merged.end(), p.latency_ms.begin(), p.latency_ms.end());
    out.errors += p.errors;
    for (const auto& [tier, n] : p.tiers) out.tiers[tier] += n;
  }
  for (const char* t : {"hot", "cache", "replay", "coalesced"}) {
    auto it = out.tiers.find(t);
    if (it != out.tiers.end()) hits += it->second;
  }
  out.requests = merged.size();
  out.qps = out.wall_s > 0 ? static_cast<double>(out.requests) / out.wall_s
                           : 0;
  out.hit_ratio = out.requests
                      ? static_cast<double>(hits) /
                            static_cast<double>(out.requests)
                      : 0;
  std::sort(merged.begin(), merged.end());
  auto pct = [&](double q) {
    if (merged.empty()) return 0.0;
    const std::size_t idx = std::min(
        merged.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(merged.size())));
    return merged[idx];
  };
  out.p50_ms = pct(0.50);
  out.p99_ms = pct(0.99);
  return out;
}

void print_mix(const MixResult& m) {
  std::string census;
  for (const auto& [tier, n] : m.tiers)
    census += (census.empty() ? "" : ", ") + std::to_string(n) + " " + tier;
  std::printf("  %-6s hit %3.0f%% (asked %3.0f%%)  %6llu req  "
              "%8.1f qps  p50 %7.3f ms  p99 %7.3f ms  [%s]\n",
              m.name.c_str(), 100 * m.hit_ratio, 100 * m.hit_target,
              static_cast<unsigned long long>(m.requests), m.qps, m.p50_ms,
              m.p99_ms, census.c_str());
}

Json mix_json(const MixResult& m) {
  Json j = Json::object();
  j["name"] = Json::string(m.name);
  j["hit_target"] = Json::number(m.hit_target);
  j["hit_ratio"] = Json::number(m.hit_ratio);
  j["requests"] = Json::number(m.requests);
  j["errors"] = Json::number(m.errors);
  j["wall_s"] = Json::number(m.wall_s);
  j["qps"] = Json::number(m.qps);
  j["p50_ms"] = Json::number(m.p50_ms);
  j["p99_ms"] = Json::number(m.p99_ms);
  Json tiers = Json::object();
  for (const auto& [tier, n] : m.tiers) tiers[tier] = Json::number(n);
  j["tiers"] = std::move(tiers);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  KvConfig cfg;
  cfg.parse_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  const std::uint64_t instructions =
      cfg.get_uint("instructions", smoke ? 20'000 : 60'000);
  const std::uint64_t warmup = cfg.get_uint("warmup", smoke ? 4'000 : 10'000);
  const unsigned clients =
      static_cast<unsigned>(cfg.get_uint("clients", 3));
  const std::size_t reqs = cfg.get_uint("reqs", smoke ? 20 : 200);
  const std::size_t cold_reqs = cfg.get_uint("cold-reqs", smoke ? 4 : 30);
  const std::size_t warm_set = cfg.get_uint("warm-set", 16);
  const unsigned jobs = static_cast<unsigned>(cfg.get_uint("jobs", 2));
  const double target = cfg.get_double("target", 5.0);
  const std::string json_path = cfg.get_or("json", "");

  const std::vector<MixSpec> mixes = {
      {"cold", 0.0, cold_reqs},
      {"mixed", 0.5, reqs},
      {"hot", 0.95, reqs},
  };

  std::printf("==== load_serve: closed-loop serving QPS by cache-hit mix "
              "====\n(instructions=%llu, warmup=%llu, clients=%u, jobs=%u, "
              "warm set %zu keys, %s/%s%s)\n\n",
              static_cast<unsigned long long>(instructions),
              static_cast<unsigned long long>(warmup), clients, jobs,
              warm_set, kWorkload, kPolicy, smoke ? "; SMOKE" : "");

  ServerOptions so;
  so.exec.jobs = jobs;
  so.exec.use_disk_cache = false;
  ServeServer server(so);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "FATAL: server start: %s\n", error.c_str());
    return 1;
  }

  double qps_cold = 0, qps_hot = 0;
  std::uint64_t total_errors = 0;
  std::vector<MixResult> results;
  for (const MixSpec& spec : mixes) {
    if (spec.hit_target > 0 &&
        (results.empty() || results.back().hit_target == 0))
      warm(server.port(), instructions, warmup, warm_set);
    MixResult m = run_mix(spec, server.port(), clients, instructions, warmup,
                          warm_set);
    print_mix(m);
    total_errors += m.errors;
    if (m.hit_target == 0) qps_cold = m.qps;
    if (m.hit_target > 0.9) qps_hot = m.qps;
    results.push_back(std::move(m));
  }
  std::printf("\n");

  const double gap = qps_cold > 0 ? qps_hot / qps_cold : 0;
  const bool met = gap >= target;
  std::printf("hot/cold QPS gap: %.1fx (target %.1fx) %s\n", gap,
              target, smoke ? "(smoke: informational)"
                            : (met ? "PASS" : "MISS"));
  if (total_errors) {
    std::fprintf(stderr, "FAIL: %llu request errors\n",
                 static_cast<unsigned long long>(total_errors));
    return 1;
  }
  if (!met && !smoke)
    std::fprintf(stderr, "warning: hot/cold gap %.1fx below %.1fx target\n",
                 gap, target);

  if (!json_path.empty()) {
    Json j = Json::object();
    j["bench"] = Json::string("load_serve");
    j["instructions"] = Json::number(instructions);
    j["warmup"] = Json::number(warmup);
    j["clients"] = Json::number(std::uint64_t{clients});
    j["jobs"] = Json::number(std::uint64_t{jobs});
    j["warm_set"] = Json::number(warm_set);
    j["workload"] = Json::string(kWorkload);
    j["policy"] = Json::string(kPolicy);
    Json ms = Json::array();
    for (const MixResult& m : results) ms.push(mix_json(m));
    j["mixes"] = std::move(ms);
    j["qps_cold"] = Json::number(qps_cold);
    j["qps_hot"] = Json::number(qps_hot);
    j["hot_over_cold"] = Json::number(gap);
    j["target"] = Json::number(target);
    j["met"] = Json::boolean(met);
    std::ofstream out(json_path);
    out << j.dump() << "\n";
    std::fprintf(stderr, "[bench] json -> %s\n", json_path.c_str());
  }
  return 0;
}

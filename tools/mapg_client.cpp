// mapg_client — CLI client for the resident experiment server.
//
//   mapg_client ping     --port=18256
//   mapg_client cell     --workload=mcf-like --policy=mapg --seed=3
//   mapg_client sweep    --workload=mcf-like,gcc-like --policy=none,mapg
//                        --seeds=2 --summary=1
//   mapg_client stats    --port=18256
//   mapg_client shutdown --port=18256
//
// Any platform key from multicore/config_apply.h (e.g. --l2.size_kib=2048,
// --instructions=200000, --seed=3) is forwarded in the request's config map;
// the server applies it with the same strict parser mapg_sim uses.
//
// Responses print as one line of canonical JSON.  For cells, --result-only=1
// prints just the embedded result document — the exact bytes
// result_to_json() of a local engine run serializes to — and --local=1
// computes the same cell in-process instead of via the server.  Together
// they make the byte-identity contract scriptable:
//
//   diff <(mapg_client cell ... --result-only=1 --local=1)
//        <(mapg_client cell ... --result-only=1)
#include <iostream>
#include <set>
#include <sstream>

#include "common/config.h"
#include "exec/engine.h"
#include "exec/serialize.h"
#include "multicore/config_apply.h"
#include "serve/client.h"
#include "trace/profile.h"

using namespace mapg;

namespace {

/// Tool-namespace flags that must NOT be forwarded as platform config.
const std::set<std::string>& tool_keys() {
  static const std::set<std::string> keys = {
      "host",   "port",  "workload",    "policy",    "seeds",
      "local",  "summary", "result-only", "cache-dir", "no-cache",
      "jobs",   "replay"};
  return keys;
}

std::map<std::string, std::string> config_from(const KvConfig& kv) {
  std::map<std::string, std::string> out;
  for (const auto& [k, v] : kv.all())
    if (tool_keys().count(k) == 0) out[k] = v;
  return out;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int usage() {
  std::cout <<
      "usage: mapg_client COMMAND [options] [platform key=value...]\n"
      "commands: ping | cell | sweep | stats | shutdown\n"
      "  --host=ADDR --port=N   server address (default 127.0.0.1:18256)\n"
      "  --workload=NAME[,..]   workload profile(s)\n"
      "  --policy=SPEC[,..]     policy spec(s)\n"
      "  --seeds=N              sweep: replicate over N trace seeds\n"
      "  --summary=1            sweep: per-cell table instead of JSON\n"
      "  --result-only=1        cell: print only the embedded result JSON\n"
      "  --local=1              cell: compute in-process (no server) —\n"
      "                         for byte-identity checks against the serve\n"
      "                         path (--cache-dir/--no-cache/--jobs apply)\n";
  return 2;
}

int fail(const std::string& error) {
  std::cerr << "mapg_client: " << error << "\n";
  return 1;
}

/// The --local=1 path: resolve the cell with an in-process engine and print
/// exactly the bytes the server embeds in its response's "result" field.
int run_local_cell(const KvConfig& kv, const serve::CellRequest& req) {
  KvConfig platform;
  for (const auto& [k, v] : req.config) platform.set(k, v);
  std::vector<std::string> unknown;
  ExperimentJob job;
  job.config = apply_sim_config(platform, SimConfig{}, &unknown);
  if (!unknown.empty())
    return fail("unknown config key '" + unknown.front() + "'");
  const WorkloadProfile* profile = find_profile(req.workload);
  if (profile == nullptr) return fail("unknown workload '" + req.workload + "'");
  job.profile = *profile;
  job.policy_spec = req.policy;

  ExperimentEngine engine(exec_options_from(kv));
  const JobOutcome out = engine.run_one(job);
  if (!out.ok) return fail(out.error);
  std::cout << result_to_json(*out.result).dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  KvConfig kv;
  const std::vector<std::string> leftovers = kv.parse_args(argc, argv);
  std::string command;
  for (const auto& word : leftovers) {
    if (word == "--help" || word == "-h") return usage();
    if (!command.empty()) {
      std::cerr << "unrecognized argument '" << word << "'\n";
      return usage();
    }
    command = word;
  }
  if (command.empty()) return usage();

  const std::string host = kv.get_or("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(kv.get_uint("port", 18256));

  if (command == "cell") {
    serve::CellRequest req;
    req.config = config_from(kv);
    req.workload = kv.get_or("workload", "mcf-like");
    req.policy = kv.get_or("policy", "none");
    if (kv.get_bool("local", false)) return run_local_cell(kv, req);

    serve::ServeClient client;
    std::string error;
    if (!client.connect(host, port, &error)) return fail(error);
    const std::optional<Json> doc = client.cell(req, &error);
    if (!doc) return fail(error);
    if (!doc->get("ok").as_bool())
      return fail("cell failed: " + doc->get("error").as_string());
    if (kv.get_bool("result-only", false))
      std::cout << doc->get("result").dump() << "\n";
    else
      std::cout << doc->dump() << "\n";
    return 0;
  }

  if (command == "sweep") {
    serve::SweepRequest req;
    req.config = config_from(kv);
    req.workloads = split_csv(kv.get_or("workload", "mcf-like"));
    req.policies = split_csv(kv.get_or("policy", "none,mapg"));
    req.seeds = static_cast<unsigned>(kv.get_uint("seeds", 1));
    serve::ServeClient client;
    std::string error;
    if (!client.connect(host, port, &error)) return fail(error);
    const std::optional<Json> doc = client.sweep(req, &error);
    if (!doc) return fail(error);
    if (!kv.get_bool("summary", false)) {
      std::cout << doc->dump() << "\n";
      return 0;
    }
    const Json& cells = doc->get("cells");
    std::size_t i = 0;
    bool any_failed = false;
    for (const std::string& w : req.workloads) {
      for (const std::string& p : req.policies) {
        for (unsigned s = 0; s < req.seeds; ++s, ++i) {
          const Json& cell = cells.at(i);
          const bool ok = cell.get("ok").as_bool();
          any_failed = any_failed || !ok;
          std::cout << w << " " << p << " seed=" << s << " tier="
                    << cell.get("tier").as_string() << " "
                    << (ok ? "ok" : "FAILED: " +
                                        cell.get("error").as_string())
                    << "\n";
        }
      }
    }
    return any_failed ? 1 : 0;
  }

  serve::ServeClient client;
  std::string error;
  if (!client.connect(host, port, &error)) return fail(error);
  if (command == "ping") {
    if (!client.ping(&error)) return fail(error);
    std::cout << "ok\n";
    return 0;
  }
  if (command == "stats") {
    const std::optional<Json> doc = client.stats(&error);
    if (!doc) return fail(error);
    std::cout << doc->dump() << "\n";
    return 0;
  }
  if (command == "shutdown") {
    if (!client.shutdown_server(&error)) return fail(error);
    std::cout << "ok\n";
    return 0;
  }
  std::cerr << "unknown command '" << command << "'\n";
  return usage();
}

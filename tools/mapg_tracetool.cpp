// mapg_trace — generate, convert, inspect, filter, and characterize traces.
//
//   mapg_trace gen     --workload=mcf-like --count=1000000 --out=mcf.trc
//   mapg_trace convert --in=app.txt --dialect=rw --out=app.trc
//   mapg_trace inspect --in=app.trc [--chunks=1]
//   mapg_trace filter  --in=app.trc --out=app.l1f.trc --filter-kb=32
//   mapg_trace plan    --in=app.trc --regions=100000 --clusters=8 [--jobs=N]
//   mapg_trace info    --in=mcf.trc
//   mapg_trace stats   --workload=lbm-like --count=500000   # from generator
//   mapg_trace stats   --in=mcf.trc                         # from file
//
// gen/convert/filter write MAPGTRC2, and every file-reading subcommand reads
// it through the streaming FileTraceSource.  Each subcommand rejects any
// flag it does not read (exit 2).  `convert` ingests text traces (dialects
// `rw`: "R <addr>" / "W <addr>"; `dinero`: "0|1|2 <hexaddr>"; `champsim`:
// "<hexip> <hexaddr> <L|S>", the IP validated then dropped) and `filter`
// models a capture-side L1 that rewrites hits to ALU filler without
// changing the instruction count (docs/TRACE.md).  `plan` previews the
// sampled-simulation clustering without running anything.
#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/table.h"
#include "exec/engine.h"
#include "sample/planner.h"
#include "trace/convert.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/trace_file.h"

using namespace mapg;

namespace {

int usage() {
  std::cout <<
      "usage: mapg_trace <gen|convert|inspect|filter|plan|info|stats> "
      "[options]\n"
      "  gen     --workload=NAME --count=N --out=FILE [--seed=N]\n"
      "  convert --in=TEXT --dialect=rw|dinero|champsim --out=FILE\n"
      "          [--dep-dist=N]\n"
      "          [--pad=N] [--filter-kb=N [--filter-ways=N] [--line=N]]\n"
      "  inspect --in=FILE [--chunks=1]\n"
      "  filter  --in=FILE --out=FILE --filter-kb=N [--filter-ways=N]\n"
      "          [--line=N]\n"
      "  plan    --in=FILE [--regions=N] [--clusters=K] [--seed=N]\n"
      "          [--sig-cache=FILE] [--jobs=N]\n"
      "  info    --in=FILE\n"
      "  stats   (--workload=NAME --count=N [--seed=N]) | (--in=FILE)\n"
      "Traces are MAPGTRC2 (docs/TRACE.md); any other flag is an error.\n";
  return 2;
}

int cmd_gen(const KvConfig& kv) {
  const std::string name = kv.get_or("workload", "");
  const WorkloadProfile* p = find_profile(name);
  if (p == nullptr) {
    std::cerr << "unknown workload '" << name << "'\n";
    return 1;
  }
  const std::uint64_t count = kv.get_uint("count", 1'000'000);
  const std::string out = kv.get_or("out", name + ".trc");
  TraceGenerator gen(*p, kv.get_uint("seed", 42));
  std::string err;
  if (!write_trace_file_v2(out, gen, count, &err)) {
    std::cerr << "write failed: " << err << "\n";
    return 1;
  }
  std::cout << "wrote " << count << " instructions to " << out << "\n";
  return 0;
}

int cmd_convert(const KvConfig& kv) {
  const std::string in = kv.get_or("in", "");
  const std::string out = kv.get_or("out", in + ".trc");
  ConvertOptions opts;
  opts.dep_dist =
      static_cast<std::uint16_t>(kv.get_uint("dep-dist", 1));
  opts.pad = kv.get_uint("pad", 0);
  std::vector<Instr> instrs;
  std::string err;
  if (!convert_text_trace_file(in, kv.get_or("dialect", "rw"), opts, instrs,
                               &err)) {
    std::cerr << "convert failed: " << err << "\n";
    return 1;
  }
  const std::uint64_t count = instrs.size();
  VectorTraceSource src(std::move(instrs));
  if (const std::uint64_t kb = kv.get_uint("filter-kb", 0)) {
    CacheFilter filter(kb * 1024, kv.get_uint("line", 64),
                       kv.get_uint("filter-ways", 4));
    FilteredTraceSource filtered(src, filter);
    if (!write_trace_file_v2(out, filtered, count, &err)) {
      std::cerr << "write failed: " << err << "\n";
      return 1;
    }
    std::cout << "converted " << count << " instructions to " << out
              << " (filter: " << filter.hits() << " hits rewritten, "
              << filter.misses() << " misses kept)\n";
    return 0;
  }
  if (!write_trace_file_v2(out, src, count, &err)) {
    std::cerr << "write failed: " << err << "\n";
    return 1;
  }
  std::cout << "converted " << count << " instructions to " << out << "\n";
  return 0;
}

int cmd_inspect(const KvConfig& kv) {
  const std::string in = kv.get_or("in", "");
  try {
    FileTraceSource src(in);
    const TraceFileInfo& info = src.info();
    Table t({"field", "value"});
    t.begin_row().cell("records").cell(info.records);
    t.begin_row().cell("chunk size").cell(info.chunk_size);
    t.begin_row().cell("chunks").cell(info.n_chunks);
    t.begin_row().cell("stream digest").cell(info.digest_hex());
    t.print(std::cout);
    if (kv.get_bool("chunks", false)) {
      // Verify every chunk by streaming the whole file (next() checks each
      // chunk digest as it loads).
      Instr instr;
      std::uint64_t n = 0;
      while (src.next(instr)) ++n;
      std::cout << "verified " << n << " records, all chunk digests ok\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "inspect failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int cmd_filter(const KvConfig& kv) {
  const std::string in = kv.get_or("in", "");
  const std::string out = kv.get_or("out", in + ".l1f");
  const std::uint64_t kb = kv.get_uint("filter-kb", 32);
  try {
    FileTraceSource src(in);
    CacheFilter filter(kb * 1024, kv.get_uint("line", 64),
                       kv.get_uint("filter-ways", 4));
    FilteredTraceSource filtered(src, filter);
    std::string err;
    if (!write_trace_file_v2(out, filtered, src.size(), &err)) {
      std::cerr << "write failed: " << err << "\n";
      return 1;
    }
    std::cout << "filtered " << src.size() << " instructions to " << out
              << ": " << filter.hits() << " hits rewritten, "
              << filter.misses() << " misses kept\n";
  } catch (const std::exception& e) {
    std::cerr << "filter failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int cmd_plan(const KvConfig& kv) {
  const std::string in = kv.get_or("in", "");
  SampleConfig cfg;
  cfg.region_instructions = kv.get_uint("regions", 1'000'000);
  cfg.clusters = kv.get_uint("clusters", 8);
  cfg.seed = kv.get_uint("seed", 42);
  cfg.signature_cache = kv.get_or("sig-cache", "");
  try {
    FileTraceSource src(in);
    const SamplePlan plan =
        build_sample_plan(src, cfg, exec_options_from(kv).jobs);
    std::cout << in << ": " << plan.total_instructions << " instructions, "
              << plan.regions.size() << " regions of "
              << cfg.region_instructions << ", " << plan.clusters.size()
              << " clusters" << (plan.exhaustive ? " (exhaustive)" : "")
              << "\n";
    Table t({"cluster", "members", "representative", "weight", "sim instrs"});
    for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
      const SampleCluster& cl = plan.clusters[c];
      t.begin_row()
          .cell(static_cast<std::uint64_t>(c))
          .cell(static_cast<std::uint64_t>(cl.members.size()))
          .cell(static_cast<std::uint64_t>(cl.representative))
          .cell(cl.weight, 2)
          .cell(plan.regions[cl.representative].length);
    }
    t.print(std::cout);
    std::cout << "sampled instructions: " << plan.sampled_instructions()
              << " of " << plan.total_instructions << "\n";
  } catch (const std::exception& e) {
    std::cerr << "plan failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int cmd_info(const KvConfig& kv) {
  const std::string in = kv.get_or("in", "");
  try {
    FileTraceSource src(in);
    std::cout << in << ": " << src.size() << " instructions (digest "
              << src.info().digest_hex() << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "read failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int run_stats(TraceSource& src, std::uint64_t limit) {
  std::array<std::uint64_t, kNumOpClasses> mix{};
  RunningStat dep;
  LogHistogram dep_hist;
  std::set<Addr> lines;
  Addr min_addr = kNoAddr, max_addr = 0;
  std::uint64_t n = 0, mem_ops = 0, chase_like = 0;

  Instr instr;
  while (n < limit && src.next(instr)) {
    ++n;
    ++mix[static_cast<std::size_t>(instr.op)];
    if (instr.op == OpClass::kLoad || instr.op == OpClass::kStore) {
      ++mem_ops;
      lines.insert(instr.addr / 64);
      min_addr = std::min(min_addr, instr.addr);
      max_addr = std::max(max_addr, instr.addr);
    }
    if (instr.op == OpClass::kLoad && instr.dep_dist > 0) {
      dep.add(instr.dep_dist);
      dep_hist.add(instr.dep_dist);
      if (instr.dep_dist == 1) ++chase_like;
    }
  }
  if (n == 0) {
    std::cerr << "empty trace\n";
    return 1;
  }

  Table t({"metric", "value"});
  t.begin_row().cell("instructions").cell(n);
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    t.begin_row()
        .cell("mix." + std::string(op_class_name(static_cast<OpClass>(c))))
        .cell(format_percent(static_cast<double>(mix[c]) /
                             static_cast<double>(n)));
  }
  t.begin_row().cell("touched lines (64B)").cell(
      static_cast<std::uint64_t>(lines.size()));
  t.begin_row().cell("touched footprint").cell(
      format_si(static_cast<double>(lines.size()) * 64) + "B");
  if (mem_ops > 0) {
    t.begin_row().cell("addr span").cell(
        format_si(static_cast<double>(max_addr - min_addr)) + "B");
  }
  t.begin_row().cell("dep_dist mean").cell(dep.mean(), 2);
  t.begin_row().cell("dep_dist max").cell(dep.max(), 0);
  t.begin_row().cell("loads with dep_dist=1").cell(format_percent(
      dep.count() ? static_cast<double>(chase_like) /
                        static_cast<double>(dep.count())
                  : 0.0));
  t.print(std::cout);
  std::cout << "\ndep_dist distribution (log buckets):\n"
            << dep_hist.to_string();
  return 0;
}

int cmd_stats(const KvConfig& kv) {
  const std::uint64_t count = kv.get_uint("count", 500'000);
  if (auto in = kv.get("in")) {
    try {
      FileTraceSource src(*in);
      return run_stats(src, count);
    } catch (const std::exception& e) {
      std::cerr << "read failed: " << e.what() << "\n";
      return 1;
    }
  }
  const WorkloadProfile* p = find_profile(kv.get_or("workload", ""));
  if (p == nullptr) {
    std::cerr << "need --in=FILE or a valid --workload=NAME\n";
    return 1;
  }
  TraceGenerator gen(*p, kv.get_uint("seed", 42));
  return run_stats(gen, count);
}

}  // namespace

int main(int argc, char** argv) {
  KvConfig kv;
  const auto leftovers = kv.parse_args(argc, argv);
  if (leftovers.size() != 1) return usage();
  // Every subcommand with the flags it reads: any other flag is an error, so
  // a typo never falls back to a default silently.
  const struct {
    const char* name;
    int (*run)(const KvConfig&);
    std::set<std::string> flags;
  } commands[] = {
      {"gen", cmd_gen, {"workload", "count", "out", "seed"}},
      {"convert", cmd_convert,
       {"in", "out", "dialect", "dep-dist", "pad", "filter-kb", "filter-ways",
        "line"}},
      {"inspect", cmd_inspect, {"in", "chunks"}},
      {"filter", cmd_filter, {"in", "out", "filter-kb", "filter-ways", "line"}},
      {"plan", cmd_plan,
       {"in", "regions", "clusters", "seed", "sig-cache", "jobs"}},
      {"info", cmd_info, {"in"}},
      {"stats", cmd_stats, {"workload", "count", "seed", "in"}},
  };
  for (const auto& c : commands) {
    if (leftovers[0] != c.name) continue;
    for (const auto& [key, value] : kv.all())
      if (c.flags.count(key) == 0) {
        std::cerr << "mapg_trace " << c.name << ": unknown flag --" << key
                  << "\n";
        return 2;
      }
    return c.run(kv);
  }
  return usage();
}

// mapg_bench: the repository benchmark (benchmark/README.md).
//
//   mapg_bench run --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                  [--work-dir=DIR] [--out=FILE]
//   mapg_bench compare A B [--spec=BENCHMARK.json]
//   mapg_bench --smoke=1 [--spec=BENCHMARK.json] [--work-dir=DIR]
//
// `run` drives one workload through public library entry points and prints
// every metric by name with its unit.  Its last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics (host time, untraced) with --trace=0, the per-layer metrics from
// the outside-in decomposition (layers.h) with --trace=1.  --out writes the
// full record (sample counts, tails, diagnostics, result digest).
// `compare` reads two sets of such records and gives every end-to-end
// (workload, metric) pair a verdict against the bound in BENCHMARK.json.
// --smoke=1 runs every workload at tiny sizes, untraced and traced, and
// then compares the untraced records with themselves.
//
// Flags are accepted as --key=value or --key value.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/prng.h"
#include "exec/engine.h"
#include "exec/json.h"
#include "exec/serialize.h"
#include "layers.h"
#include "multicore/config_apply.h"
#include "obs/event_tracer.h"
#include "sample/planner.h"
#include "sample/runner.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace/generator.h"
#include "trace/trace_file.h"

namespace mapg::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Statistics --------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The host-time statistic of the end-to-end metrics: the median of the
/// run's least contended stretch.  On a small shared host, contention from
/// other tenants comes and goes over seconds and slows every operation
/// alike, by up to ~2.4x (thread CPU time rises with wall time, so it is
/// not descheduling), and whole runs can fall inside it.  A whole-run
/// median therefore moves with how much of the run the contention covered;
/// the quietest stretch does not, as long as the run had one.
///
/// The samples, in the order taken, are cut into `stretches` consecutive
/// stretches and the lowest stretch median is returned.  With one stretch
/// per sample this is the fastest sample: right for repeated identical
/// operations, whose simulated work never varies, so contention is the
/// only source of spread.  A mixed request stream needs stretches long
/// enough to hold its mix.
double quiet_median(const std::vector<double>& in_order,
                    std::size_t stretches) {
  const std::size_t n = in_order.size();
  if (n == 0) return 0;
  const std::size_t k = std::clamp<std::size_t>(stretches, 1, n);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < k; ++i)
    best = std::min(best, median(std::vector<double>(
                              in_order.begin() + i * n / k,
                              in_order.begin() + (i + 1) * n / k)));
  return best;
}

/// First and third quartile by Python's statistics.quantiles(v, n=4)
/// (the default "exclusive" method), so spreads read the same here as in
/// any script that post-processes the records.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  auto q = [&](long i) {
    const long m = n + 1;
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

/// The highest of a few standard percentiles that still has at least ten
/// samples beyond it (nearest rank); absent for fewer than 20 samples.
struct Tail {
  double pct = 0;
  double value = 0;
};
std::optional<Tail> tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double rank = std::ceil(pct / 100.0 * n);
    if (rank >= 1 && n - rank >= 10)
      return Tail{pct, v[static_cast<std::size_t>(rank) - 1]};
  }
  return std::nullopt;
}

/// One numeric field of /proc/self/status.
double proc_status(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::stod(line.substr(key.size() + 1));
  throw std::runtime_error("no " + key + " in /proc/self/status");
}

/// Peak resident set of this process image, from VmHWM.  getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it would
/// report the launching shell's or script's peak whenever that is larger.
double peak_rss_mb() { return proc_status("VmHWM") / 1024.0; }  // kB

/// User plus system CPU time of every thread of this process so far.
double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- The report one run prints -----------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 1;  ///< samples behind the value (1 = single measurement)
  std::optional<Tail> tail;
  std::vector<double> samples;  ///< kept in the --out record
};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  std::vector<Metric> metrics;        ///< the contract metrics, in order
  std::vector<Metric> info;           ///< diagnostics outside the contract
  std::uint64_t digest = kTraceDigestSeed;
  std::string chrome_trace;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// One attempted operation or output check.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  /// Fold simulated output into the digest two commits compare exactly.
  void absorb(const std::string& bytes) { digest = fnv1a64(bytes, digest); }

  void put(const std::string& name, double value, const std::string& unit,
           std::size_t n = 1) {
    metrics.push_back(Metric{name, value, unit, n, std::nullopt, {}});
  }
  /// quiet_median of `samples` (in the order taken) over `stretches`, by
  /// default the fastest sample, with the sample count and tail percentile.
  void put_timing(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit, std::size_t stretches = SIZE_MAX) {
    metrics.push_back(Metric{name, quiet_median(samples, stretches), unit,
                             samples.size(), tail_of(samples), samples});
  }
  /// setup_s is an end-to-end metric; a traced run, whose metrics are the
  /// per-layer ones, keeps it among the diagnostics.
  void put_setup(const std::vector<double>& seconds) {
    (traced ? info : metrics)
        .push_back(Metric{"setup_s", quiet_median(seconds, SIZE_MAX), "s",
                          seconds.size(), tail_of(seconds), seconds});
  }
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t n = 1) {
    info.push_back(Metric{name, value, unit, n, std::nullopt, {}});
  }
  void note_timing(const std::string& name,
                   const std::vector<double>& samples,
                   const std::string& unit) {
    info.push_back(Metric{name, median(samples), unit, samples.size(),
                          tail_of(samples), samples});
  }
};

// --- Options and sizes -------------------------------------------------

/// Work per operation.  On a small shared host, operation times wander by
/// tens of percent from second to second, so every operation stays under
/// about a second (~0.05-0.8 s on a quiet host) and a run holds at least
/// a dozen of them.  The direct-* cells are the longest: a longer
/// operation averages over brief contention, and fewer, longer samples
/// gave steadier medians than many short ones.  Smoke sizes only prove the
/// machinery.
struct Sizes {
  std::uint64_t direct_warmup = 250'000;
  std::uint64_t direct_mem = 10'000'000;
  std::uint64_t direct_compute = 20'000'000;
  std::uint64_t direct_writeq = 10'000'000;
  std::uint64_t sweep_instrs = 250'000;
  std::uint64_t sweep_warmup = 50'000;
  std::uint64_t trace_instrs = 5'000'000;
  std::uint64_t phase_instrs = 1'250'000;
  std::uint64_t region_instrs = 250'000;
  std::uint64_t sample_warmup = 50'000;
  std::uint64_t serve_instrs = 60'000;
  std::uint64_t serve_warmup = 10'000;
  std::size_t min_ops = 3;       ///< timed operations even past --seconds
  std::size_t setup_reps = 25;   ///< set-ups timed when set-up is cheap
  std::size_t costly_setups = 5; ///< ... and when it writes or computes

  static Sizes smoke() {
    Sizes z;
    z.direct_warmup = 20'000;
    z.direct_mem = z.direct_compute = z.direct_writeq = 200'000;
    z.sweep_instrs = 20'000;
    z.sweep_warmup = 5'000;
    z.trace_instrs = 1'000'000;
    z.phase_instrs = 125'000;
    z.region_instrs = 25'000;
    z.sample_warmup = 5'000;
    z.serve_instrs = 10'000;
    z.serve_warmup = 2'000;
    z.min_ops = 2;
    z.setup_reps = 3;
    z.costly_setups = 2;
    return z;
  }
};

struct Options {
  std::uint64_t seed = 42;
  double seconds = 15;
  bool traced = false;
  Sizes sizes;
  fs::path work_dir;  ///< scratch files and Chrome traces
};

/// Operations per run never exceed this, whatever --seconds says.
constexpr std::size_t kMaxOps = 100'000;
constexpr unsigned kJobs = 2;       ///< engine/server worker threads
constexpr unsigned kClients = 2;    ///< serve-mixed closed-loop clients
constexpr std::size_t kWarmSet = 16;
constexpr std::size_t kRssRequests = 1000;  ///< serve-mixed rss_mb point
constexpr std::size_t kSweepChecks = 5;
/// Cheap set-ups are also re-timed in a batch after every timed operation
/// (the first of a batch refills the caches the operation evicted).  A
/// process's first milliseconds run on whichever core it started on, and
/// microsecond set-ups timed only there vary by tens of percent from
/// process to process; batches spread over the run see every core it
/// visits.
constexpr std::size_t kSetupBatch = 5;
/// The projection error bound micro_sampling asserts (docs/TRACE.md).
constexpr double kSampleErrorBound = 0.10;

/// Run `setup` `reps` times, timing each, and keep the last result.
template <class F>
auto repeat_setup(std::size_t reps, std::vector<double>& seconds, F setup) {
  decltype(setup()) value{};
  for (std::size_t i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    value = setup();
    seconds.push_back(since(t0));
  }
  return value;
}

/// Run `op` until --seconds have passed (and at least min_ops ran).
/// Returns the peak RSS after the first timed operation: later operations
/// repeat the same work, and reading the peak there keeps allocator drift
/// over a longer or shorter run out of rss_mb.
double timed_loop(const Options& o, const std::function<void()>& op) {
  const Clock::time_point t0 = Clock::now();
  double rss_mb = 0;
  for (std::size_t i = 0; i < kMaxOps; ++i) {
    if (i >= o.sizes.min_ops && since(t0) >= o.seconds) break;
    op();
    if (i == 0) rss_mb = peak_rss_mb();
  }
  return rss_mb;
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [k](double x) { return x * k; });
  return out;
}

/// A platform from the same key=value dialect mapg_sim and the server read.
SimConfig make_config(
    const std::vector<std::pair<std::string, std::string>>& keys,
    std::uint64_t instructions, std::uint64_t warmup, std::uint64_t seed) {
  KvConfig kv;
  for (const auto& [k, v] : keys) kv.set(k, v);
  kv.set("instructions", std::to_string(instructions));
  kv.set("warmup", std::to_string(warmup));
  kv.set("seed", std::to_string(seed));
  std::vector<std::string> unknown;
  SimConfig cfg = apply_sim_config(kv, SimConfig{}, &unknown);
  if (!unknown.empty())
    throw std::runtime_error("unknown config key " + unknown.front());
  return cfg;
}

const WorkloadProfile& profile_named(const std::string& name) {
  const WorkloadProfile* p = find_profile(name);
  if (p == nullptr) throw std::runtime_error("unknown profile " + name);
  return *p;
}

// --- Per-layer report (--trace=1) ----------------------------------------

/// Decompose `cells` repeatedly for --seconds (at least once) and report
/// every per-layer metric: host times from the fastest pass, simulated
/// counts from the first pass (they repeat exactly, which is checked).
/// `simulated_frac` and `err_pct` come from the workload's own tier.
void report_layers(const Options& o, Report& r, const std::vector<Cell>& cells,
                   double simulated_frac, double err_pct) {
  struct Pass {
    double sim = 0, traced = 0, trace = 0, mem = 0, pg = 0, power = 0;
    double instrs = 0, accesses = 0, windows = 0;
  };
  std::vector<Pass> passes;
  std::vector<std::string> first;
  std::vector<SimResult> results;
  const Clock::time_point t0 = Clock::now();
  do {
    Pass p;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      LayerSample s = decompose(cells[i]);
      r.check(s.mismatches.empty(),
              s.mismatches.empty() ? "" : s.mismatches.front());
      for (std::size_t m = 1; m < s.mismatches.size(); ++m)
        r.fail(s.mismatches[m]);
      const std::string bytes = result_to_json(s.result).dump();
      if (passes.empty()) {
        first.push_back(bytes);
        results.push_back(s.result);
        r.absorb(bytes);
      } else {
        r.check(bytes == first[i], cells[i].label + ": result changed");
      }
      p.sim += s.sim_s;
      p.traced += s.traced_s;
      p.trace += s.trace_s;
      p.mem += s.mem_s;
      p.pg += s.pg_s;
      p.power += s.power_s;
      p.instrs += static_cast<double>(s.instrs);
      p.accesses += static_cast<double>(s.accesses);
      p.windows += static_cast<double>(s.windows);
    }
    passes.push_back(p);
  } while (since(t0) < o.seconds && passes.size() < kMaxOps);

  // Each layer's time is its fastest pass (the quiet_median rule for
  // repeated identical work); the cpu residual is taken from those.  The
  // work counts repeat exactly from pass to pass.
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto best = [&](double Pass::*field) {
    double b = std::numeric_limits<double>::infinity();
    for (const Pass& p : passes) b = std::min(b, p.*field);
    return b;
  };
  const Pass& work = passes.front();
  const double sim = best(&Pass::sim), trace = best(&Pass::trace),
               mem = best(&Pass::mem), pg = best(&Pass::pg);
  const std::size_t n = passes.size();
  r.put("sim.ns_per_instr", 1e9 * per(sim, work.instrs), "ns", n);
  r.put("trace.ns_per_instr", 1e9 * per(trace, work.instrs), "ns", n);
  r.put("cpu.self_ns_per_instr",
        1e9 * per(sim - trace - mem - pg, work.instrs), "ns", n);
  r.put("mem.ns_per_access", 1e9 * per(mem, work.accesses), "ns", n);
  r.put("pg.ns_per_window", 1e9 * per(pg, work.windows), "ns", n);
  r.put("power.compose_us",
        1e6 * best(&Pass::power) / static_cast<double>(cells.size()), "us",
        n);
  r.put("traced.overhead_pct", 100 * (per(best(&Pass::traced), sim) - 1),
        "%", n);

  // Simulated counts, summed over the cells' measured phases.
  double instrs = 0, cycles = 0, busy = 0, st_dram = 0, st_other = 0,
         penalty = 0, accesses = 0, l1_miss = 0, l1_acc = 0, l2_miss = 0,
         l2_acc = 0, row_hits = 0, row_total = 0, reads = 0, writes = 0,
         windows = 0, gated = 0, eligible = 0;
  for (const SimResult& s : results) {
    const CoreStats& c = s.core;
    r.check(c.busy_cycles() + c.stall_cycles_dram + c.stall_cycles_other +
                    c.penalty_cycles ==
                c.cycles,
            s.workload + ": CPI causes do not sum to cycles");
    instrs += static_cast<double>(c.instrs);
    cycles += static_cast<double>(c.cycles);
    busy += static_cast<double>(c.busy_cycles());
    st_dram += static_cast<double>(c.stall_cycles_dram);
    st_other += static_cast<double>(c.stall_cycles_other);
    penalty += static_cast<double>(c.penalty_cycles);
    windows += static_cast<double>(c.stalls_dram + c.stalls_other);
    accesses += static_cast<double>(s.hier.loads + s.hier.stores);
    l1_miss += static_cast<double>(s.l1.misses());
    l1_acc += static_cast<double>(s.l1.accesses());
    l2_miss += static_cast<double>(s.l2.misses());
    l2_acc += static_cast<double>(s.l2.accesses());
    row_hits += static_cast<double>(s.dram.row_hits);
    row_total += static_cast<double>(s.dram.row_hits + s.dram.row_closed +
                                     s.dram.row_conflicts);
    reads += static_cast<double>(s.dram.reads);
    writes += static_cast<double>(s.dram.writes);
    gated += static_cast<double>(s.gating.gated_events);
    eligible += static_cast<double>(s.gating.eligible_stalls);
  }
  r.put("mem.accesses_per_kinstr", 1000 * per(accesses, instrs), "1/kinstr");
  r.put("mem.l1_miss_rate", per(l1_miss, l1_acc), "fraction");
  r.put("mem.l2_miss_rate", per(l2_miss, l2_acc), "fraction");
  r.put("mem.dram_row_hit_rate", per(row_hits, row_total), "fraction");
  r.put("mem.dram_reads_per_kinstr", 1000 * per(reads, instrs), "1/kinstr");
  r.put("mem.dram_writes_per_kinstr", 1000 * per(writes, instrs), "1/kinstr");
  r.put("pg.windows_per_kinstr", 1000 * per(windows, instrs), "1/kinstr");
  r.put("pg.gate_rate", per(gated, eligible), "fraction");
  r.put("cpu.ipc", per(instrs, cycles), "instr/cycle");
  r.put("cpu.cpi_busy", per(busy, instrs), "cycles/instr");
  r.put("cpu.cpi_dram", per(st_dram, instrs), "cycles/instr");
  r.put("cpu.cpi_other", per(st_other, instrs), "cycles/instr");
  r.put("cpu.cpi_penalty", per(penalty, instrs), "cycles/instr");
  r.put("exec.simulated_frac", simulated_frac, "fraction");
  r.put("sample.err_pct", err_pct, "%");

  // Each layer's share of the untraced run; the residual, which no
  // isolation pass covers, is the core's issue loop (cpu self time).
  r.note("layers.sim_ms", 1e3 * sim, "ms", n);
  r.note("layers.trace_pct", 100 * per(trace, sim), "%", n);
  r.note("layers.mem_pct", 100 * per(mem, sim), "%", n);
  r.note("layers.pg_pct", 100 * per(pg, sim), "%", n);
  r.note("layers.residual_pct", 100 * per(sim - trace - mem - pg, sim), "%",
         n);
}

// --- Workloads: direct-* -------------------------------------------------

struct DirectSpec {
  std::string profile;
  std::string policy;
  std::vector<std::pair<std::string, std::string>> config;
  std::uint64_t Sizes::*instructions;
};

void run_direct(const DirectSpec& spec, const Options& o, Report& r) {
  const Sizes& z = o.sizes;
  std::vector<double> setup_s;
  const auto make_cell = [&] {
    Cell c;
    c.config = make_config(spec.config, z.*spec.instructions, z.direct_warmup,
                           o.seed);
    c.profile = profile_named(spec.profile);
    c.label = c.profile.name;
    c.policy = spec.policy;
    if (!make_policy(c.policy, Simulator(c.config).policy_context()))
      throw std::runtime_error("unknown policy " + c.policy);
    return c;
  };
  const Cell cell = repeat_setup(z.setup_reps, setup_s, make_cell);
  if (o.traced) {
    r.put_setup(setup_s);
    report_layers(o, r, {cell}, 1.0, 0.0);
    return;
  }

  const Simulator sim(cell.config);
  // The discarded warm-up rep; every timed rep must reproduce its bytes.
  const std::string reference =
      result_to_json(sim.run(cell.profile, cell.policy)).dump();
  r.absorb(reference);
  std::vector<double> op_s;
  const double rss = timed_loop(o, [&] {
    const Clock::time_point t0 = Clock::now();
    const SimResult res = sim.run(cell.profile, cell.policy);
    op_s.push_back(since(t0));
    r.check(result_to_json(res).dump() == reference,
            "timed rep differs from the warm-up rep");
    repeat_setup(kSetupBatch, setup_s, make_cell);
  });
  r.put_setup(setup_s);
  const double instrs = static_cast<double>(cell.config.instructions +
                                            cell.config.warmup_instructions);
  r.put_timing("latency_ms", scaled(op_s, 1e3), "ms");
  r.put_timing("cold_ms", scaled(op_s, 1e3), "ms");
  r.put("minstr_s", instrs / quiet_median(op_s, op_s.size()) / 1e6,
        "Minstr/s", op_s.size());
  r.put("rss_mb", rss, "MB");
}

// --- Workload: sweep-tab1 ----------------------------------------------

void run_sweep(const Options& o, Report& r) {
  const Sizes& z = o.sizes;
  std::vector<double> setup_s;
  const auto make_spec = [&] {
    SweepSpec s;
    s.base = make_config({}, z.sweep_instrs, z.sweep_warmup, o.seed);
    s.workloads = builtin_profiles();
    s.policy_specs = standard_policy_specs();
    return s;
  };
  const SweepSpec spec = repeat_setup(z.setup_reps, setup_s, make_spec);
  ExecOptions eo;
  eo.jobs = kJobs;
  eo.use_disk_cache = false;  // memory-only, and fresh for every sweep
  eo.use_replay = true;

  // One cold sweep on a fresh engine.
  auto sweep = [&](SweepResult& res, EngineStats& stats) {
    const Clock::time_point t0 = Clock::now();
    {
      ExperimentEngine engine(eo);
      res = engine.run_sweep(spec);
      stats = engine.stats();
    }
    return since(t0);
  };
  auto dumps_of = [](const SweepResult& res) {
    std::vector<std::string> d;
    for (const JobOutcome& j : res.outcomes)
      d.push_back(j.ok ? result_to_json(*j.result).dump()
                       : "error: " + j.error);
    return d;
  };

  // Census of which tier answered each cell: in a replayed group the `none`
  // cell is the recording, flagged cells are replays or resumes, and the
  // rest fell back to direct simulation.
  SweepResult first;
  EngineStats first_stats;
  const double first_s = sweep(first, first_stats);
  std::vector<double> record_ms, replay_ms, fallback_ms;
  std::size_t simulated = 0;
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    const JobOutcome& j = first.outcomes[i];
    const bool none = i / first.n_seeds % first.n_policies ==
                      first.baseline_policy;
    if (j.from_replay) {
      replay_ms.push_back(j.wall_ms);
    } else if (none) {
      record_ms.push_back(j.wall_ms);
      ++simulated;
    } else {
      fallback_ms.push_back(j.wall_ms);
      ++simulated;
    }
  }
  const double cells = static_cast<double>(first.outcomes.size());
  const double simulated_frac = static_cast<double>(simulated) / cells;
  r.note_timing("replay.record_ms", record_ms, "ms");
  r.note_timing("replay.cell_ms", replay_ms, "ms");
  r.note_timing("replay.fallback_ms", fallback_ms, "ms");
  r.note("replay.hit_ratio",
         static_cast<double>(replay_ms.size()) /
             static_cast<double>(replay_ms.size() + fallback_ms.size()),
         "fraction");
  r.note("exec.busy_ms", first_stats.busy_ms, "ms");
  r.note("exec.parallel_eff", first_stats.busy_ms / (1e3 * first_s * kJobs),
         "fraction");

  const std::vector<std::string> reference = dumps_of(first);
  for (const std::string& d : reference) r.absorb(d);
  if (o.traced) {
    r.put_setup(setup_s);
    std::vector<Cell> cells_to_trace;
    for (const WorkloadProfile& p : spec.workloads)
      cells_to_trace.push_back(Cell{spec.base, p, p.name, "mapg", nullptr});
    report_layers(o, r, cells_to_trace, simulated_frac, 0.0);
    return;
  }

  std::vector<double> op_s;
  const double rss = timed_loop(o, [&] {
    SweepResult res;
    EngineStats stats;
    op_s.push_back(sweep(res, stats));
    const std::vector<std::string> d = dumps_of(res);
    for (std::size_t i = 0; i < d.size(); ++i)
      r.check(res.outcomes[i].ok && d[i] == reference[i],
              "sweep cell " + std::to_string(i) + " differs between reps");
    repeat_setup(kSetupBatch, setup_s, make_spec);
  });
  r.put_setup(setup_s);

  // Seed-chosen cells against a direct Simulator::run, byte for byte.
  const std::vector<ExperimentJob> jobs = ExperimentEngine::expand(spec);
  Prng prng(o.seed);
  std::set<std::size_t> picked;
  while (picked.size() < std::min(kSweepChecks, jobs.size()))
    picked.insert(static_cast<std::size_t>(prng.next() % jobs.size()));
  for (const std::size_t i : picked) {
    const ExperimentJob& job = jobs[i];
    const SimResult direct =
        Simulator(job.config).run(job.profile, job.policy_spec);
    r.check(result_to_json(direct).dump() == reference[i],
            "sweep cell " + std::to_string(i) + " differs from Simulator::run");
  }

  const double instrs =
      cells * static_cast<double>(spec.base.instructions +
                                  spec.base.warmup_instructions);
  r.put_timing("latency_ms", scaled(op_s, 1e3), "ms");
  r.put_timing("cold_ms", scaled(op_s, 1e3), "ms");
  r.put("minstr_s", instrs / quiet_median(op_s, op_s.size()) / 1e6,
        "Minstr/s", op_s.size());
  r.put("rss_mb", rss, "MB");
}

// --- Workload: sample-trace ----------------------------------------------

const std::vector<std::string> kSamplePolicies = {"none", "mapg"};
constexpr const char* kTraceLabel = "trace:mcf-gamess-phased";

struct SamplePass {
  double plan_s = 0;
  double sim_s = 0;
  std::string estimates;  ///< every projected value and error, as text
  std::vector<SampledResult> results;
  std::uint64_t sampled_instrs = 0;
};

SamplePass sample_pass(const std::string& path, const SampleConfig& scfg,
                       const SimConfig& platform) {
  SamplePass p;
  FileTraceSource trace(path);
  Clock::time_point t0 = Clock::now();
  SamplePlan plan = build_sample_plan(trace, scfg);
  p.plan_s = since(t0);
  p.sampled_instrs = plan.sampled_instructions();
  SampledRunner runner(platform, trace, std::move(plan), kTraceLabel);
  t0 = Clock::now();
  for (const std::string& spec : kSamplePolicies)
    p.results.push_back(runner.run(spec));
  p.sim_s = since(t0);
  char buf[96];
  for (const SampledResult& res : p.results)
    for (const MetricEstimate& m : res.metrics) {
      std::snprintf(buf, sizeof buf, "=%.17g~%.17g;", m.value, m.stderr_);
      p.estimates += res.policy + "/" + m.name + buf;
    }
  return p;
}

double sample_metric(const SimResult& r, const std::string& name) {
  if (name == "ipc") return r.ipc();
  if (name == "mpki") return r.mpki();
  if (name == "gated_time_fraction") return r.gated_time_fraction();
  if (name == "energy_total_j") return r.energy.total_j();
  if (name == "cycles") return static_cast<double>(r.core.cycles);
  return 0;
}

/// Largest relative error of the projected metrics against full runs of
/// the same trace (the metric set micro_sampling judges).
double projection_error(const SamplePass& pass,
                        const std::vector<SimResult>& full) {
  double worst = 0;
  for (std::size_t p = 0; p < full.size(); ++p)
    for (const char* name :
         {"ipc", "mpki", "gated_time_fraction", "energy_total_j", "cycles"}) {
      const MetricEstimate* e = pass.results[p].find(name);
      const double f = sample_metric(full[p], name);
      if (e == nullptr || (f == 0 && e->value == 0)) continue;
      worst = std::max(worst, f != 0 ? std::abs(e->value - f) / std::abs(f)
                                     : std::abs(e->value));
    }
  return worst;
}

/// Removes the workload's files when the run ends, however it ends.
class ScopedFiles {
 public:
  explicit ScopedFiles(std::vector<std::string> paths)
      : paths_(std::move(paths)) {}
  ~ScopedFiles() {
    std::error_code ec;
    for (const std::string& p : paths_) fs::remove(p, ec);
  }
  ScopedFiles(const ScopedFiles&) = delete;
  ScopedFiles& operator=(const ScopedFiles&) = delete;

 private:
  std::vector<std::string> paths_;
};

void run_sample(const Options& o, Report& r) {
  const Sizes& z = o.sizes;
  fs::create_directories(o.work_dir);
  const std::string path =
      (o.work_dir / ("sample-" + std::to_string(getpid()) + ".trc")).string();
  const ScopedFiles files({path, path + ".sigs"});
  // One cluster per phase profile.  With more clusters than phase types
  // k-means splits a phase on noise, and how many representatives land in
  // the (3x costlier) mcf phase would then vary with the seed.
  SampleConfig scfg;
  scfg.region_instructions = z.region_instrs;
  scfg.clusters = 2;
  scfg.warmup_instructions = z.sample_warmup;
  scfg.seed = o.seed;
  scfg.signature_cache = path + ".sigs";
  SimConfig platform;
  platform.run_seed = o.seed;

  // Set-up writes the trace: two phases so the planner has real structure
  // to cluster (one stationary profile is a single phase).  It is timed at
  // the start and again after every timed round; each rewrite produces the
  // same bytes, so the signature cache stays valid.
  std::vector<double> setup_s;
  const auto write_trace = [&] {
    PhasedTraceGenerator gen(profile_named("mcf-like"),
                             profile_named("gamess-like"), z.phase_instrs,
                             o.seed);
    std::string err;
    if (!write_trace_file_v2(path, gen, z.trace_instrs, &err))
      throw std::runtime_error("trace write failed: " + err);
    return 0;
  };
  repeat_setup(z.costly_setups, setup_s, write_trace);

  auto cold_pass = [&] {
    fs::remove(scfg.signature_cache);
    return sample_pass(path, scfg, platform);
  };
  SimConfig full_cfg = platform;
  full_cfg.warmup_instructions = 0;
  full_cfg.instructions = z.trace_instrs;
  auto full_run = [&](const std::string& spec) {
    FileTraceSource t(path);
    return Simulator(full_cfg).run(t, kTraceLabel, spec);
  };

  // The first cold pass is the discarded warm-up and the reference every
  // later pass, cold or warm, must reproduce exactly.
  const SamplePass reference = cold_pass();
  r.absorb(reference.estimates);
  const double simulated_frac =
      static_cast<double>(reference.sampled_instrs) /
      static_cast<double>(z.trace_instrs);

  if (o.traced) {
    r.put_setup(setup_s);
    const SamplePass warm = sample_pass(path, scfg, platform);
    r.check(warm.estimates == reference.estimates,
            "warm projection differs from cold");
    r.note("sample.scan_ms", 1e3 * reference.plan_s, "ms");
    r.note("sample.plan_warm_ms", 1e3 * warm.plan_s, "ms");
    r.note("sample.sim_ms", 1e3 * warm.sim_s, "ms");
    r.note("sample.instr_simulated_frac", simulated_frac, "fraction");
    const Cell cell{full_cfg, WorkloadProfile{}, kTraceLabel, "mapg", [&path] {
                      return std::make_unique<FileTraceSource>(path);
                    }};
    const double err = projection_error(
        reference, {full_run("none"), full_run("mapg")});
    r.check(err <= kSampleErrorBound, "projection error above bound");
    report_layers(o, r, {cell}, simulated_frac, 100 * err);
    return;
  }

  // Each round: one cold projection (signature cache deleted) and three
  // warm ones (cache hit), so both statistics rest on several samples.
  std::vector<double> warm_s, cold_s;
  const double rss = timed_loop(o, [&] {
    const Clock::time_point t0 = Clock::now();
    const SamplePass cold = cold_pass();
    cold_s.push_back(since(t0));
    r.check(cold.estimates == reference.estimates,
            "cold projection differs from the first");
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t1 = Clock::now();
      const SamplePass warm = sample_pass(path, scfg, platform);
      warm_s.push_back(since(t1));
      r.check(warm.estimates == reference.estimates,
              "warm projection differs from cold");
    }
    repeat_setup(1, setup_s, write_trace);
  });
  r.put_setup(setup_s);

  std::vector<SimResult> full;
  for (const std::string& spec : kSamplePolicies)
    full.push_back(full_run(spec));
  for (const SimResult& f : full) r.absorb(result_to_json(f).dump());
  const double err = projection_error(reference, full);
  r.check(err <= kSampleErrorBound, "projection error above bound");
  r.note("sample_err_pct", 100 * err, "%");
  r.note("sample.instr_simulated_frac", simulated_frac, "fraction");

  const double projected = static_cast<double>(z.trace_instrs) *
                           static_cast<double>(kSamplePolicies.size());
  r.put_timing("latency_ms", scaled(warm_s, 1e3), "ms");
  r.put_timing("cold_ms", scaled(cold_s, 1e3), "ms");
  r.put("minstr_s", projected / quiet_median(warm_s, warm_s.size()) / 1e6,
        "Minstr/s", warm_s.size());
  r.put("rss_mb", rss, "MB");
}

// --- Workload: serve-mixed -----------------------------------------------

constexpr const char* kServeProfile = "mcf-like";
constexpr const char* kServePolicy = "mapg";

struct ServeTraffic {
  std::uint64_t instructions = 0;
  std::uint64_t warmup = 0;
  std::vector<std::uint64_t> warm_seeds;
  std::uint64_t fresh_base = 0;
};

serve::CellRequest serve_request(const ServeTraffic& t, std::uint64_t seed) {
  serve::CellRequest req;
  req.workload = kServeProfile;
  req.policy = kServePolicy;
  req.config = {{"instructions", std::to_string(t.instructions)},
                {"warmup", std::to_string(t.warmup)},
                {"seed", std::to_string(seed)}};
  return req;
}

struct ServeSample {
  double ms = 0;  ///< +inf for a failed request: it misses every limit
  double done_s = 0;  ///< completion, seconds into the session
  std::string tier = "error";
  bool warm = false;
};

struct ServeSession {
  std::vector<ServeSample> samples;  ///< in completion order
  double wall_s = 0;
  /// Peak RSS once kRssRequests requests were answered (0 if never): the
  /// server memoizes every distinct result, so its footprint grows with
  /// the number of requests a run fits in, and that number moves with
  /// host speed.
  double rss_mb = 0;
  /// The process's threads while both clients are connected: each client
  /// counts them after its first answer, and the larger count is kept.
  double threads = 0;
  /// Responses to compare with a local engine run: seed -> result bytes.
  std::vector<std::pair<std::uint64_t, std::string>> checked;
};

/// kClients closed-loop clients, one connection each and no think time:
/// researchers whose tools wait for every reply.  Each request goes to the
/// warm set with probability 2/5, drawn from a seeded per-client stream so
/// the two clients' compute requests overlap at random rather than in a
/// fixed phase.  (With an even split the median would sit on the boundary
/// between hot and compute latencies and flip between them.)  Every warm
/// response and every 20th request is kept for checking.
ServeSession drive_clients(std::uint16_t port, const ServeTraffic& t,
                           double seconds, std::uint64_t seed) {
  std::atomic<std::uint64_t> next_fresh{t.fresh_base};
  std::atomic<std::size_t> done{0};
  double rss_mb = 0;  // written by the one client that completes request N
  std::vector<ServeSession> per(kClients);
  std::vector<std::string> errors(kClients);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto client_loop = [&](unsigned c) {
    ServeSession& me = per[c];
    Prng mix(seed * kClients + c);
    serve::ServeClient client;
    std::string err;
    const bool connected = client.connect("127.0.0.1", port, &err);
    for (std::size_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
      const bool warm = mix.next() % 5 < 2;
      const std::uint64_t cell_seed =
          warm ? t.warm_seeds[mix.next() % t.warm_seeds.size()]
               : next_fresh.fetch_add(1);
      ServeSample s;
      s.warm = warm;
      const Clock::time_point q0 = Clock::now();
      std::optional<Json> doc;
      if (connected) doc = client.cell(serve_request(t, cell_seed), &err);
      const double ms = 1e3 * since(q0);
      s.done_s = since(t0);
      if (doc && doc->get("ok").as_bool()) {
        s.ms = ms;
        s.tier = doc->get("tier").as_string();
        if (warm || i % 20 == 0)
          me.checked.emplace_back(cell_seed, doc->get("result").dump());
      } else {
        s.ms = std::numeric_limits<double>::infinity();
      }
      me.samples.push_back(s);
      if (i == 0) me.threads = proc_status("Threads");
      if (done.fetch_add(1) + 1 == kRssRequests) rss_mb = peak_rss_mb();
      if (!connected) break;
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      try {
        client_loop(c);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  for (std::thread& th : threads) th.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("serve client: " + e);
  ServeSession out;
  out.wall_s = since(t0);
  out.rss_mb = rss_mb;
  for (ServeSession& p : per) {
    out.threads = std::max(out.threads, p.threads);
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    out.checked.insert(out.checked.end(), p.checked.begin(), p.checked.end());
  }
  std::stable_sort(out.samples.begin(), out.samples.end(),
                   [](const ServeSample& a, const ServeSample& b) {
                     return a.done_s < b.done_s;
                   });
  return out;
}

/// Answered instructions per second in the session's quietest stretch, the
/// throughput counterpart of quiet_median: the session is cut into five
/// equal stretches of time and the one that completed the most counts.
double quiet_throughput(const ServeSession& s, double instrs_per_request) {
  constexpr std::size_t kStretches = 5;
  std::array<double, kStretches> done{};
  for (const ServeSample& x : s.samples)
    if (std::isfinite(x.ms))
      done[std::min(kStretches - 1,
                    static_cast<std::size_t>(x.done_s / s.wall_s *
                                             kStretches))] +=
          instrs_per_request;
  return *std::max_element(done.begin(), done.end()) /
         (s.wall_s / kStretches);
}

std::vector<double> latencies(const ServeSession& s,
                              const std::function<bool(const ServeSample&)>&
                                  keep) {
  std::vector<double> v;
  for (const ServeSample& x : s.samples)
    if (keep(x)) v.push_back(x.ms);
  return v;
}

void run_serve(const Options& o, Report& r) {
  const Sizes& z = o.sizes;
  ServeTraffic traffic;
  traffic.instructions = z.serve_instrs;
  traffic.warmup = z.serve_warmup;
  for (std::size_t s = 0; s < kWarmSet; ++s)
    traffic.warm_seeds.push_back(o.seed * 1000 + s);
  traffic.fresh_base = 1'000'000'000 + o.seed * 1'000'000;

  // Set-up: a listening server with the warm set resident in its hot tier.
  // Servers are only destroyed at the end, once every client connection is
  // long closed: ServeServer's detached connection threads notify its
  // condition variable after their last lock, so destroying the server
  // right after a client disconnects can race with that notify.
  serve::ServerOptions so;
  so.exec.jobs = kJobs;
  so.exec.use_disk_cache = false;
  std::vector<std::unique_ptr<serve::ServeServer>> servers;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    servers.push_back(std::make_unique<serve::ServeServer>(so));
    serve::ServeServer* server = servers.back().get();
    std::string err;
    if (!server->start(&err))
      throw std::runtime_error("server start: " + err);
    serve::ServeClient client;
    if (!client.connect("127.0.0.1", server->port(), &err))
      throw std::runtime_error("connect: " + err);
    for (const std::uint64_t seed : traffic.warm_seeds)
      if (!client.cell(serve_request(traffic, seed), &err))
        throw std::runtime_error("warm set: " + err);
    setup_s.push_back(since(t0));
    return server;
  };

  serve::ServeServer& server = *set_up();
  const double cpu0 = process_cpu_s();
  const ServeSession session =
      drive_clients(server.port(), traffic,
                    o.traced ? std::min(o.seconds, 2.0) : o.seconds, o.seed);
  const double busy_cores = (process_cpu_s() - cpu0) / session.wall_s;
  const serve::ServeStats st = server.tiered().stats();
  const double rss = session.rss_mb > 0 ? session.rss_mb : peak_rss_mb();

  // The further set-ups setup_s takes its fastest from come after the
  // session, so none of their threads exists while it is timed.  Each
  // server is stopped (accept thread joined, connections drained) once
  // timed; only its engine's idle workers remain until the end.
  server.stop();
  for (std::size_t k = 1; k < z.costly_setups; ++k) set_up()->stop();
  r.put_setup(setup_s);

  // Check every kept response against a local engine run of the same cell.
  std::map<std::uint64_t, std::string> local;
  {
    std::vector<ExperimentJob> jobs;
    std::vector<std::uint64_t> seeds;
    for (const auto& [seed, bytes] : session.checked)
      if (local.emplace(seed, "").second) {
        ExperimentJob job;
        job.config = make_config({}, traffic.instructions, traffic.warmup,
                                 seed);
        job.profile = profile_named(kServeProfile);
        job.policy_spec = kServePolicy;
        jobs.push_back(std::move(job));
        seeds.push_back(seed);
      }
    ExecOptions eo;
    eo.jobs = kJobs;
    eo.use_disk_cache = false;
    ExperimentEngine engine(eo);
    const std::vector<JobOutcome> outs = engine.run(jobs);
    for (std::size_t i = 0; i < outs.size(); ++i)
      local[seeds[i]] =
          outs[i].ok ? result_to_json(*outs[i].result).dump() : "error";
  }
  std::size_t mismatched = 0;
  for (const auto& [seed, bytes] : session.checked)
    mismatched += bytes != local[seed];
  for (const std::uint64_t seed : traffic.warm_seeds)
    if (local.count(seed)) r.absorb(local[seed]);
  for (const ServeSample& s : session.samples)
    r.check(std::isfinite(s.ms), "request failed");
  r.attempted += session.checked.size();
  for (std::size_t i = 0; i < mismatched; ++i)
    r.fail("served result differs from a local engine run");

  const auto ok = [](const ServeSample& s) { return std::isfinite(s.ms); };
  const auto count_tier = [&](const char* tier) {
    return static_cast<double>(std::count_if(
        session.samples.begin(), session.samples.end(),
        [tier](const ServeSample& s) { return s.tier == tier; }));
  };
  const double n = static_cast<double>(session.samples.size());
  const double answered = static_cast<double>(latencies(session, ok).size());
  const double hits = count_tier("hot") + count_tier("cache") +
                      count_tier("replay") + count_tier("coalesced");
  const std::vector<double> all =
      latencies(session, [](auto&) { return true; });
  r.note("serve.qps", n / session.wall_s, "1/s", session.samples.size());
  r.note("serve.hit_ratio", hits / n, "fraction");
  r.note_timing("serve.hot_p50_ms",
                latencies(session, [](auto& s) { return s.tier == "hot"; }),
                "ms");
  r.note_timing(
      "serve.compute_p50_ms",
      latencies(session, [](auto& s) { return s.tier == "compute"; }), "ms");
  r.note("serve.coalesced", static_cast<double>(st.coalesced), "count");
  r.note("serve.threads", session.threads, "count");
  r.note("serve.busy_cores", busy_cores, "cores");

  if (o.traced) {
    std::vector<Cell> cells;
    for (const std::uint64_t seed : traffic.warm_seeds)
      cells.push_back(Cell{
          make_config({}, traffic.instructions, traffic.warmup, seed),
          profile_named(kServeProfile), kServeProfile, kServePolicy, nullptr});
    report_layers(o, r, cells, count_tier("compute") / answered, 0.0);
    return;
  }
  // The stream mixes hot and compute requests, so its stretches must be
  // long enough to hold the mix: five, each ~3 s of a 15 s run.
  r.put_timing("latency_ms", all, "ms", 5);
  r.put_timing("cold_ms",
               latencies(session, [](auto& s) { return !s.warm; }), "ms");
  r.put("minstr_s",
        quiet_throughput(session, static_cast<double>(traffic.instructions +
                                                      traffic.warmup)) /
            1e6,
        "Minstr/s", session.samples.size());
  r.put("rss_mb", rss, "MB");
}

// --- The workload table --------------------------------------------------

struct Workload {
  std::string name;
  std::function<void(const Options&, Report&)> run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"direct-mem",
       [](const Options& o, Report& r) {
         run_direct({"mcf-like", "mapg", {}, &Sizes::direct_mem}, o, r);
       }},
      {"direct-compute",
       [](const Options& o, Report& r) {
         run_direct({"gamess-like", "mapg", {}, &Sizes::direct_compute}, o, r);
       }},
      {"direct-writeq",
       [](const Options& o, Report& r) {
         run_direct({"lbm-like",
                     "mapg-dram",
                     {{"dram.standard", "ddr4-2400"},
                      {"dram.page_policy", "closed"},
                      {"dram.queue_depth", "8"},
                      {"dram.power.mode", "coordinated"}},
                     &Sizes::direct_writeq},
                    o, r);
       }},
      {"sweep-tab1", run_sweep},
      {"sample-trace", run_sample},
      {"serve-mixed", run_serve},
  };
  return table;
}

// --- Output --------------------------------------------------------------

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void print_metric(const Metric& m, const char* tag) {
  std::string line = std::string(tag) + " " + m.name + " = " + fmt(m.value) +
                     " " + m.unit;
  if (m.n > 1) line += "  (n=" + std::to_string(m.n);
  if (m.n > 1 && m.tail)
    line += ", p" + fmt(m.tail->pct) + "=" + fmt(m.tail->value);
  if (m.n > 1) line += ")";
  std::printf("%s\n", line.c_str());
}

/// A failed serve request is an infinite latency; JSON has no infinity, so
/// it is written as null (the run then reports correct=false anyway).
Json number_or_null(double v) {
  return std::isfinite(v) ? Json::number(v) : Json();
}

Json metrics_json(const std::vector<Metric>& ms, bool full) {
  Json out = Json::object();
  for (const Metric& m : ms) {
    Json e = Json::object();
    e["value"] = number_or_null(m.value);
    e["unit"] = Json::string(m.unit);
    if (full) {
      e["n"] = Json::number(static_cast<std::uint64_t>(m.n));
      if (m.tail) {
        e["tail_pct"] = Json::number(m.tail->pct);
        e["tail_value"] = number_or_null(m.tail->value);
      }
      if (!m.samples.empty()) {
        Json s = Json::array();
        for (const double x : m.samples) s.push(number_or_null(x));
        e["samples"] = std::move(s);
      }
    }
    out[m.name] = std::move(e);
  }
  return out;
}

bool correct(const Report& r) {
  if (r.failed != 0 || r.attempted == 0) return false;
  for (const Metric& m : r.metrics)
    if (!std::isfinite(m.value)) return false;
  return true;
}

/// Human-readable lines, then the one-line result object last.
void print_report(const Report& r) {
  std::printf("== %s  seed=%llu  %s\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.seed),
              r.traced ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const Metric& m : r.metrics) print_metric(m, "metric");
  for (const Metric& m : r.info) print_metric(m, "info  ");
  std::printf("digest %s\n", hex64(r.digest).c_str());
  if (!r.chrome_trace.empty())
    std::printf("chrome trace %s\n", r.chrome_trace.c_str());
  for (const std::string& f : r.failures)
    std::printf("FAILED CHECK: %s\n", f.c_str());
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  Json j = Json::object();
  j["correct"] = Json::boolean(correct(r));
  j["attempted"] = Json::number(r.attempted);
  j["failed"] = Json::number(r.failed);
  j["metrics"] = metrics_json(r.metrics, false);
  std::printf("%s\n", j.dump().c_str());
  std::fflush(stdout);
}

Json record_json(const Report& r, double seconds) {
  Json j = Json::object();
  j["workload"] = Json::string(r.workload);
  j["seed"] = Json::number(r.seed);
  j["seconds"] = Json::number(seconds);
  j["traced"] = Json::boolean(r.traced);
  j["correct"] = Json::boolean(correct(r));
  j["attempted"] = Json::number(r.attempted);
  j["failed"] = Json::number(r.failed);
  j["metrics"] = metrics_json(r.metrics, true);
  j["info"] = metrics_json(r.info, true);
  j["digest"] = Json::string(hex64(r.digest));
  Json f = Json::array();
  for (const std::string& s : r.failures) f.push(Json::string(s));
  j["failures"] = std::move(f);
  return j;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::optional<Json> read_json(const fs::path& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path.string();
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str(), error);
}

Report run_workload(const Workload& w, const Options& o) {
  Report r;
  r.workload = w.name;
  r.seed = o.seed;
  r.traced = o.traced;
  obs::EventTracer& tracer = obs::EventTracer::instance();
  if (o.traced) tracer.start();
  w.run(o, r);
  if (o.traced) {
    tracer.stop();
    fs::create_directories(o.work_dir);
    r.chrome_trace = (o.work_dir / (w.name + ".trace.json")).string();
    // The trace must load: valid JSON with the per-layer spans in it.
    std::string err;
    const std::optional<Json> doc =
        tracer.write_file(r.chrome_trace) ? read_json(r.chrome_trace, &err)
                                          : std::nullopt;
    r.check(doc && doc->get("traceEvents").size() > 0,
            "chrome trace missing or unreadable: " + r.chrome_trace);
    tracer.clear();
  }
  return r;
}

// --- compare -------------------------------------------------------------

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0;
};

std::vector<Bound> read_bounds(const fs::path& spec_path) {
  std::string err;
  const std::optional<Json> spec = read_json(spec_path, &err);
  if (!spec) throw std::runtime_error("benchmark spec: " + err);
  std::vector<Bound> out;
  const Json& e2e = spec->get("end_to_end");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const Json& m = e2e.at(i);
    out.push_back(Bound{m.get("name").as_string(),
                        m.get("better").as_string() != "higher",
                        m.get("bound").as_double()});
  }
  if (out.empty()) throw std::runtime_error("benchmark spec has no metrics");
  return out;
}

/// workload -> metric -> values, from every untraced record under `root`.
using Side = std::map<std::string, std::map<std::string, std::vector<double>>>;

Side read_side(const fs::path& root) {
  std::vector<fs::path> files;
  if (fs::is_directory(root)) {
    for (const auto& e : fs::recursive_directory_iterator(root))
      if (e.is_regular_file() && e.path().extension() == ".json")
        files.push_back(e.path());
  } else {
    files.push_back(root);
  }
  Side side;
  for (const fs::path& f : files) {
    std::string err;
    const std::optional<Json> rec = read_json(f, &err);
    if (!rec || rec->get("workload").as_string().empty() ||
        rec->get("traced").as_bool())
      continue;
    if (!rec->get("correct").as_bool())
      throw std::runtime_error(f.string() + ": record failed its checks");
    for (const auto& [name, m] : rec->get("metrics").items())
      side[rec->get("workload").as_string()][name].push_back(
          m.get("value").as_double());
  }
  return side;
}

/// The verdict for one (workload, metric): `unresolved` when either side's
/// quartile spread exceeds the bound (unless every B run beats every A
/// run), else `worse` / `better` when the medians differ by more than the
/// bound, else `within`.
std::string verdict(const Bound& b, const std::vector<double>& a,
                    const std::vector<double>& bv, double* delta) {
  const double ma = median(a), mb = median(bv);
  const auto [a1, a3] = quartiles(a);
  const auto [b1, b3] = quartiles(bv);
  const double spread =
      std::max(ma != 0 ? (a3 - a1) / std::abs(ma) : 0.0,
               mb != 0 ? (b3 - b1) / std::abs(mb) : 0.0);
  // Positive = B is worse than A.
  const double d = ma != 0 ? (mb - ma) / std::abs(ma) : 0.0;
  *delta = b.lower_is_better ? d : -d;
  const double best_a = b.lower_is_better
                            ? *std::min_element(a.begin(), a.end())
                            : *std::max_element(a.begin(), a.end());
  const double worst_b = b.lower_is_better
                             ? *std::max_element(bv.begin(), bv.end())
                             : *std::min_element(bv.begin(), bv.end());
  const bool all_better =
      b.lower_is_better ? worst_b < best_a : worst_b > best_a;
  if (spread > b.bound) return all_better ? "better" : "unresolved";
  if (*delta > b.bound) return "worse";
  if (*delta < -b.bound) return "better";
  return "within";
}

int compare(const fs::path& a_root, const fs::path& b_root,
            const fs::path& spec_path) {
  const std::vector<Bound> bounds = read_bounds(spec_path);
  const Side a = read_side(a_root), b = read_side(b_root);
  if (a.empty() || b.empty()) {
    std::fprintf(stderr, "compare: no untraced records on one side\n");
    return 2;
  }
  std::printf("%-15s %-11s %-31s %-31s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A",
              "bound", "verdict");
  int worse = 0;
  for (const auto& [workload, metrics_a] : a) {
    const auto wb = b.find(workload);
    for (const Bound& bd : bounds) {
      const auto ma = metrics_a.find(bd.name);
      if (wb == b.end() || ma == metrics_a.end() ||
          !wb->second.count(bd.name)) {
        std::printf("%-15s %-11s missing on one side\n", workload.c_str(),
                    bd.name.c_str());
        ++worse;
        continue;
      }
      const std::vector<double>& va = ma->second;
      const std::vector<double>& vb = wb->second.at(bd.name);
      double delta = 0;
      const std::string v = verdict(bd, va, vb, &delta);
      worse += v == "worse";
      auto side = [](const std::vector<double>& x) {
        const auto [q1, q3] = quartiles(x);
        return fmt(median(x)) + " [" + fmt(q1) + ", " + fmt(q3) + "] (" +
               std::to_string(x.size()) + ")";
      };
      std::printf("%-15s %-11s %-31s %-31s %+7.2f%% %5.1f%%  %s\n",
                  workload.c_str(), bd.name.c_str(), side(va).c_str(),
                  side(vb).c_str(), 100 * delta, 100 * bd.bound, v.c_str());
    }
  }
  return worse ? 1 : 0;
}

// --- smoke ---------------------------------------------------------------

/// The metric names one section of the benchmark spec lists.
std::set<std::string> spec_names(const fs::path& spec_path,
                                 const std::string& section) {
  std::string err;
  const std::optional<Json> spec = read_json(spec_path, &err);
  if (!spec) throw std::runtime_error("benchmark spec: " + err);
  std::set<std::string> names;
  const Json& list = spec->get(section);
  for (std::size_t i = 0; i < list.size(); ++i)
    names.insert(list.at(i).get("name").as_string());
  return names;
}

int smoke(const fs::path& spec_path, const fs::path& work_dir) {
  Options o;
  o.sizes = Sizes::smoke();
  o.seconds = 0.2;
  o.work_dir = work_dir;
  const fs::path records = work_dir / "records";
  fs::remove_all(records);
  fs::create_directories(records);
  int failures = 0;
  for (const bool traced : {false, true}) {
    o.traced = traced;
    // Every run must report exactly the metrics the spec lists for it.
    const std::set<std::string> expected =
        spec_names(spec_path, traced ? "per_layer" : "end_to_end");
    for (const Workload& w : workloads()) {
      const Report r = run_workload(w, o);
      print_report(r);
      failures += !correct(r);
      std::set<std::string> got;
      for (const Metric& m : r.metrics) got.insert(m.name);
      if (got != expected) {
        std::printf("smoke: %s reports other metrics than the spec\n",
                    w.name.c_str());
        ++failures;
      }
      std::ofstream(records /
                    (w.name + (traced ? "-traced" : "") + ".json"))
          << record_json(r, o.seconds).dump() << "\n";
    }
  }
  // Identical records must compare `within` on every pair.
  if (compare(records, records, spec_path) != 0) ++failures;
  std::printf("smoke: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

// --- main ----------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: mapg_bench run --workload=NAME [--seed=N] "
               "[--seconds=S] [--trace=0|1] [--work-dir=DIR] [--out=FILE]\n"
               "       mapg_bench compare A B [--spec=BENCHMARK.json]\n"
               "       mapg_bench --smoke=1 [--spec=BENCHMARK.json] "
               "[--work-dir=DIR]\n"
               "workloads:");
  for (const Workload& w : workloads())
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  // "--key value" and bare "--flag" become "--key=value" / "--flag=1".
  KvConfig kv;
  std::vector<std::string> words;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      words.push_back(a);
      continue;
    }
    a.erase(0, 2);
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos)
      kv.set(a.substr(0, eq), a.substr(eq + 1));
    else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
      kv.set(a, argv[++i]);
    else
      kv.set(a, "1");
  }
  const std::set<std::string> known = {"workload", "seed",     "seconds",
                                       "trace",    "smoke",    "work-dir",
                                       "out",      "spec"};
  for (const auto& [k, v] : kv.all())
    if (!known.count(k)) {
      std::fprintf(stderr, "unknown flag --%s\n", k.c_str());
      return usage();
    }
  const std::string cmd = words.empty() ? "run" : words.front();
  const fs::path spec = kv.get_or("spec", "BENCHMARK.json");
  const fs::path work_dir = kv.get_or("work-dir", "build-bench/work");

  if (cmd == "compare") {
    if (words.size() != 3) return usage();
    return compare(words[1], words[2], spec);
  }
  if (kv.get_bool("smoke", false)) return smoke(spec, work_dir);
  if (cmd != "run" || words.size() > 1) return usage();

  const Workload* w = find_workload(kv.get_or("workload", ""));
  if (w == nullptr) return usage();
  Options o;
  o.seed = kv.get_uint("seed", 42);
  o.seconds = kv.get_double("seconds", 15);
  o.traced = kv.get_bool("trace", false);
  o.work_dir = work_dir;
  const Report r = run_workload(*w, o);
  if (const auto out = kv.get("out")) {
    const fs::path p = *out;
    if (p.has_parent_path()) fs::create_directories(p.parent_path());
    std::ofstream(p) << record_json(r, o.seconds).dump() << "\n";
  }
  print_report(r);
  return correct(r) ? 0 : 1;
}

}  // namespace
}  // namespace mapg::bench

int main(int argc, char** argv) {
  try {
    return mapg::bench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mapg_bench: %s\n", e.what());
    return 2;
  }
}

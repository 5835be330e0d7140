// Fast-forward kernel speedup: closed-form stall resolution vs the
// cycle-accurate stepped reference, on one memory-bound and one
// compute-bound workload.
//
// The fast-forward path skips each full-core stall window in O(1); the
// reference ticks every stalled cycle through the kernel's clocked
// components.  On mcf-like (most cycles stalled on DRAM) the closed form
// should win by >= 3x; on gamess-like (almost no stalls) the two paths run
// the same issue loop, so the target is merely parity (>= 1x).
//
// The bench first verifies the bit-identity contract on its own operating
// point — a speedup claim for a kernel that diverges would be meaningless —
// and exits nonzero on mismatch.
//
// Usage: micro_ff_speedup [--instructions=N] [--warmup=N] [--seed=N]
// Prints one row per workload: Minstr/s in each mode plus the speedup.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "exec/serialize.h"
#include "trace/profile.h"

namespace {

using mapg::SimConfig;
using mapg::SimResult;
using mapg::Simulator;
using mapg::WorkloadProfile;

double run_once(const SimConfig& cfg, const WorkloadProfile& p,
                SimResult* out = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  SimResult r = Simulator(cfg).run(p, "mapg");
  const auto t1 = std::chrono::steady_clock::now();
  if (out != nullptr) *out = std::move(r);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-k wall time (seconds) — insensitive to scheduler noise.
double best_of(const SimConfig& cfg, const WorkloadProfile& p, int k) {
  double best = run_once(cfg, p);  // also serves as the warmup run
  for (int i = 1; i < k; ++i) best = std::min(best, run_once(cfg, p));
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  mapg::bench::BenchEnv env = mapg::bench::parse_env(argc, argv, 400'000,
                                                     50'000);
  std::printf(
      "==== micro_ff_speedup: fast-forward vs cycle-accurate kernel ====\n"
      "(instructions=%llu, warmup=%llu, seed=%llu; policy=mapg)\n\n",
      static_cast<unsigned long long>(env.sim.instructions),
      static_cast<unsigned long long>(env.sim.warmup_instructions),
      static_cast<unsigned long long>(env.sim.run_seed));
  std::printf("%-16s %14s %14s %9s %8s\n", "workload", "ff Minstr/s",
              "ref Minstr/s", "speedup", "target");

  bool all_ok = true;
  const struct {
    const char* workload;
    double target;
  } cases[] = {{"mcf-like", 3.0}, {"gamess-like", 1.0}};

  for (const auto& c : cases) {
    const WorkloadProfile* p = mapg::find_profile(c.workload);
    if (p == nullptr) return 2;

    SimConfig fast = env.sim;
    fast.fast_forward = true;
    SimConfig stepped = env.sim;
    stepped.fast_forward = false;

    // Bit-identity gate: a speedup over a diverging kernel counts for
    // nothing.
    SimResult a, b;
    run_once(fast, *p, &a);
    run_once(stepped, *p, &b);
    if (mapg::result_to_json(a).dump() != mapg::result_to_json(b).dump()) {
      std::fprintf(stderr,
                   "FAIL: %s: kernels diverge — run tests/test_differential "
                   "before benchmarking\n",
                   c.workload);
      all_ok = false;
      continue;
    }

    const double t_fast = best_of(fast, *p, 3);
    const double t_ref = best_of(stepped, *p, 3);
    const double minstr = static_cast<double>(env.sim.instructions) / 1e6;
    const double speedup = t_ref / t_fast;
    const bool met = speedup >= c.target;
    std::printf("%-16s %14.2f %14.2f %8.2fx %8s\n", c.workload,
                minstr / t_fast, minstr / t_ref, speedup,
                met ? "PASS" : "MISS");
    // The compute-bound parity target is a hard floor; the memory-bound
    // speedup is reported but only warned on, since absolute ratios vary
    // with the host.  ISSUE acceptance measures it on the reference host.
    if (!met)
      std::fprintf(stderr, "warning: %s speedup %.2fx below %.1fx target\n",
                   c.workload, speedup, c.target);
  }
  mapg::bench::report_engine(env);
  return all_ok ? 0 : 1;
}

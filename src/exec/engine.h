// ExperimentEngine: declarative experiment sweeps, executed in parallel,
// memoized through the persistent result cache.
//
// The contract that makes this safe: a Simulator run is a pure function of
// (SimConfig, WorkloadProfile, policy spec) — instances are independent and
// seed-deterministic.  The engine therefore (a) runs jobs on N worker
// threads and still returns outcomes in submission order, bit-identical to
// a serial run, and (b) keys each job by the content hash of its inputs so
// repeated cells are simulated exactly once per cache lifetime.
//
// Layering: exec sits above core (it drives Simulator); nothing in core may
// depend on exec.  exec/runner.h scores sweep cells against their "none"
// baselines.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/sim.h"
#include "exec/result_cache.h"
#include "exec/serialize.h"
#include "exec/thread_pool.h"
#include "trace/profile.h"

namespace mapg {

struct ExecOptions {
  /// Worker threads; 1 = run inline on the calling thread, 0 = one per
  /// hardware thread.
  unsigned jobs = 1;
  /// Disk cache directory; empty = memory-only memoization.
  std::string cache_dir;
  /// When false, the disk tier is neither read nor written (--no-cache).
  /// In-memory memoization stays on: it is pure dedup within one process.
  bool use_disk_cache = true;
  /// Live "done/total, sims/s" meter on stderr.
  bool progress = false;
  /// Per-job JSONL run log path; empty = off.
  std::string log_jsonl;
  /// Single-pass policy sweeps (src/replay, docs/MODEL.md §4b): run_sweep
  /// records the stall timeline once per (variant, workload, seed) group and
  /// replays it across the policy axis, falling back to direct simulation
  /// for any cell whose replay hits a penalized window.  Results are
  /// bit-identical either way (tests/test_replay.cpp); the knob exists so
  /// the equivalence stays falsifiable (--replay=0 on every bench).
  bool use_replay = true;
};

/// The execution flags every front end takes (docs/EXEC.md): --jobs (0 =
/// all hardware threads; above ThreadPool::kMaxThreads it is clamped with
/// a warning), --cache-dir (default $MAPG_CACHE_DIR when set), --no-cache,
/// --progress, --runlog, --replay.
ExecOptions exec_options_from(const KvConfig& kv);

/// One experiment cell.  The trace seed rides inside config.run_seed.
/// With `trace` set, instructions come from the bound on-disk trace window
/// (FileTraceSource seeked to trace->offset, capped at warmup + measured)
/// instead of the profile's generator; the binding's content digest joins
/// the cache identity (exec schema v7) and `profile` degrades to a label
/// carrier.  Trace-bound jobs always take the direct simulation path —
/// replay grouping applies only to generated sweep cells (run_sweep).
struct ExperimentJob {
  SimConfig config;
  WorkloadProfile profile;
  std::string policy_spec = "none";
  std::optional<TraceBinding> trace{};
};

struct JobOutcome {
  /// Shared so baselines and repeated cells don't copy multi-KB results.
  std::shared_ptr<const SimResult> result;
  bool ok = false;
  bool from_cache = false;
  /// Reconstituted from a recorded stall timeline instead of simulated
  /// (bit-identical to a direct run; see src/replay).
  bool from_replay = false;
  std::string error;     ///< exception text when !ok
  double wall_ms = 0.0;  ///< this job's execution (or cache lookup) time
};

/// Declarative (variant x workload x policy x seed) grid.
struct SweepSpec {
  SimConfig base;
  /// Config variants; empty means "just base".  Each entry's name labels
  /// rows in logs; its config replaces base wholesale.
  std::vector<std::pair<std::string, SimConfig>> variants;
  std::vector<WorkloadProfile> workloads;
  std::vector<std::string> policy_specs;
  /// Seeds run_seed .. run_seed + n_seeds - 1 (per variant config).
  unsigned n_seeds = 1;
};

/// Sweep outcomes with O(1) cell addressing in (variant, workload, policy,
/// seed) coordinates; `outcomes` is in expansion order (variant outermost,
/// seed innermost).
struct SweepResult {
  std::size_t n_variants = 1;
  std::size_t n_workloads = 0;
  std::size_t n_policies = 0;
  std::size_t n_seeds = 1;
  std::vector<JobOutcome> outcomes;
  /// Index of the "none" policy in the spec, or npos.
  std::size_t baseline_policy = npos;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t index(std::size_t vi, std::size_t wi, std::size_t pi,
                    std::size_t si = 0) const {
    return ((vi * n_workloads + wi) * n_policies + pi) * n_seeds + si;
  }
  const JobOutcome& at(std::size_t vi, std::size_t wi, std::size_t pi,
                       std::size_t si = 0) const {
    return outcomes.at(index(vi, wi, pi, si));
  }
  /// The SimResult of a cell; throws std::runtime_error if the job failed.
  const SimResult& result(std::size_t vi, std::size_t wi, std::size_t pi,
                          std::size_t si = 0) const;
  /// The same-variant same-workload same-seed "none" baseline.
  const SimResult& baseline(std::size_t vi, std::size_t wi,
                            std::size_t si = 0) const;
};

struct EngineStats {
  std::uint64_t jobs_run = 0;       ///< simulations actually executed
  std::uint64_t jobs_cached = 0;    ///< served from memory or disk cache
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_replayed = 0;  ///< cells reconstituted from a timeline
  std::uint64_t timelines_recorded = 0;  ///< reference recordings performed
  /// Replays abandoned on a penalized window whose cell fell back to a
  /// direct simulation from cycle 0 over the recorded trace.
  std::uint64_t replay_fallbacks = 0;
  double busy_ms = 0;               ///< summed per-job wall time
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(ExecOptions options = {});
  ~ExperimentEngine();

  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  /// Run all jobs; outcomes come back in submission order regardless of
  /// thread scheduling.  Per-job failures are reported in the outcome, not
  /// thrown — one bad cell never tears down a sweep.
  std::vector<JobOutcome> run(const std::vector<ExperimentJob>& jobs);

  JobOutcome run_one(const ExperimentJob& job);

  /// run_one over a shared materialized trace buffer instead of a fresh
  /// generator (bit-identical; see execute()).  Serve-layer hook: the
  /// tiered executor re-simulates replay-ineligible cells from a cached
  /// StallTimeline's trace without regenerating it (src/serve/tiered.h).
  JobOutcome run_one_traced(const ExperimentJob& job,
                            std::shared_ptr<const std::vector<Instr>> trace);

  /// Queue an opaque task and return without waiting for it.  Tasks start
  /// in submission order, at most --jobs at once, each holding a slot of
  /// budget() from here to its end; with jobs <= 1 the task runs inline.
  /// Serve-layer hook: connection readers feed request handlers through
  /// it, so one knob (--jobs) bounds total compute.  Unlike
  /// run()/parallel_for(), completion is the caller's contract to track;
  /// an exception a task throws is logged and the queue goes on.  The
  /// destructor waits for every queued task.
  void submit_detached(std::function<void()> task);

  /// Expand in deterministic order: variant, workload, policy, seed.
  static std::vector<ExperimentJob> expand(const SweepSpec& spec);

  /// Run the grid.  With options().use_replay and more than one policy,
  /// cells are grouped by (variant, workload, seed): each group records one
  /// `none` reference timeline and replays it across the policy axis
  /// (src/replay), falling back to direct simulation per cell when replay
  /// is not exact.  Outcomes are bit-identical to the direct path for any
  /// jobs count.
  SweepResult run_sweep(const SweepSpec& spec);

  /// Generic parallel-for over [0, n) on --jobs threads — for work the
  /// result cache cannot key (e.g. multicore simulations).  Every index
  /// runs even after one throws; once all have ended, the lowest throwing
  /// index's exception is rethrown, whatever --jobs is.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  ResultCache& cache() { return *cache_; }
  const ExecOptions& options() const { return options_; }
  /// --jobs as a ThreadBudget (exec/thread_pool.h).  Besides the slots
  /// the engine holds per task, the server holds one per open connection.
  ThreadBudget& budget() { return budget_; }
  EngineStats stats() const;

 private:
  /// Simulate (or serve from cache) one cell.  A non-null `trace` feeds the
  /// simulator from the shared materialized buffer instead of a fresh
  /// generator — the stream is identical, so results are bit-identical.
  /// `probe` false skips the cache: lookup() just missed it.
  JobOutcome execute(const ExperimentJob& job,
                     std::shared_ptr<const std::vector<Instr>> trace = {},
                     bool probe = true);
  /// The cache's answer for `job` under `key`, accounted; nullopt when the
  /// cache does not hold it.
  std::optional<JobOutcome> lookup(const ExperimentJob& job,
                                   const std::string& key);
  /// Shared outcome bookkeeping: engine stats, obs counters/trace, run log.
  void account(const ExperimentJob& job, const std::string& key,
               const JobOutcome& outcome, std::uint64_t trace_ts);
  /// The grouped record-once/replay-per-policy path behind run_sweep.
  std::vector<JobOutcome> run_replayed(const std::vector<ExperimentJob>& jobs,
                                       const SweepResult& shape);
  /// One (variant, workload, seed) group: cells at `cell_indices` in
  /// `jobs`, all sharing config/profile/seed and differing only in policy.
  void run_group(const std::vector<ExperimentJob>& jobs,
                 const std::vector<std::size_t>& cell_indices,
                 std::vector<JobOutcome>& outcomes);
  void log_job(const ExperimentJob& job, const std::string& key,
               const JobOutcome& outcome);
  void progress_tick(std::size_t done, std::size_t total);
  /// Runs body(i) for every i in [0, n) as n tasks of budget_, claimed by
  /// the calling thread and up to --jobs - 1 launched ones
  /// (for_each_claimed), and returns when all have finished, rethrowing
  /// the lowest throwing index's exception.
  void dispatch(std::size_t n, const std::function<void(std::size_t)>& body);

  ExecOptions options_;
  std::unique_ptr<ResultCache> cache_;
  /// --jobs as a ThreadBudget: every task (a job, a replay group, a
  /// parallel_for index, a detached task) holds one slot from hand-out to
  /// its end, and the trace front-end helpers of its simulations take
  /// theirs from what is left (trace/staged_source.h).
  ThreadBudget budget_;

  mutable std::mutex mu_;  ///< guards the members below
  EngineStats stats_;
  /// submit_detached's tasks not yet started, each with its slot.
  std::deque<std::pair<ThreadBudget::Slots, std::function<void()>>> detached_;
  unsigned drainers_ = 0;  ///< threads draining detached_
  std::condition_variable drained_;  ///< signalled as a drainer ends
  std::unique_ptr<std::ofstream> log_;
  double run_started_ms_ = 0;  ///< monotonic, for the sims/sec meter
};

}  // namespace mapg

// The process executor, and the budgets that bound what runs on it.
//
// Every thread the simulator starts, besides a server's accept thread,
// comes from ThreadPool::launch(): it hands a body to a parked thread, or
// starts a thread when none is parked, and a thread whose body returns
// parks for the next one.  A launched body never queues behind another,
// so a body that waits on one it launched (a run's trace front-end
// helper, trace/staged_source.h) always has a thread.  How many bodies run
// at once is bounded by ThreadBudget (below), not by the executor.
//
// Fork: a pthread_atfork handler joins the parked threads first, so a
// process whose executor threads are all parked forks as one thread and
// the child starts with none parked.
//
// for_each_claimed() is the fan-out over indexed items: the engine's
// tasks, the signature scan, the sampled runner's recordings and cells.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

namespace mapg {

class ThreadPool {
 public:
  /// Ceiling on --jobs (exec_options_from clamps to it) and on one
  /// fan-out's workers: far above the hosts this simulator runs on, far
  /// below the thread counts at which a host refuses to start more.
  static constexpr unsigned kMaxThreads = 256;

  ThreadPool() = delete;

  /// Runs body() on a parked executor thread, or on a new one when none
  /// is parked, and returns without waiting for it.  Throws
  /// std::system_error when no thread is parked and none can start; body
  /// is then not run.  An exception escaping body ends the process, as
  /// one escaping a std::thread's function does.  Counts each thread
  /// started in exec.threads.started.
  static void launch(std::function<void()> body);

  /// Hardware concurrency, clamped to at least 1.
  static unsigned default_threads();

  /// Threads a fan-out of `items` independent items gets under the --jobs
  /// meaning: `jobs` (0 = default_threads()), at most `items` and
  /// kMaxThreads, at least 1.
  static unsigned workers_for(unsigned jobs, std::size_t items);
};

/// A count of busy threads against a limit: one caller's --jobs, or every
/// hardware thread of the process (process()).  Slots are taken and given
/// back only through Slots, so none outlives what holds it.
class ThreadBudget {
 public:
  class Slots;

  explicit ThreadBudget(std::size_t limit) : limit_(limit) {}
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;

  std::size_t in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  std::size_t limit() const { return limit_; }

  /// One slot per hardware thread.  Every thread running a task holds one,
  /// every helper holds one, and so does a simulating thread outside any
  /// task while its stage lives.
  static ThreadBudget& process();
  /// The budget of the task the calling thread runs (the innermost, when
  /// tasks nest), or nullptr outside any task.
  static ThreadBudget* current();

 private:
  void hold(std::size_t n) { in_use_.fetch_add(n, std::memory_order_relaxed); }
  /// Counts `n` more threads busy if that keeps in_use() within limit().
  bool try_hold(std::size_t n);
  void release(std::size_t n) {
    in_use_.fetch_sub(n, std::memory_order_relaxed);
  }

  const std::size_t limit_;
  std::atomic<std::size_t> in_use_{0};
};

/// Slots held on a ThreadBudget, given back when the Slots is destroyed or,
/// one at a time, as run() ends the tasks they were held for.
///
/// A caller that hands out n tasks holds n slots before the first starts,
/// so a slot is free only while fewer tasks than threads are left.  run()
/// runs one of them on the calling thread, which is busy with the budget
/// meanwhile: stage_if_free there takes helpers from it, and the thread
/// holds one process() slot (once, however deeply tasks nest).  Slots no
/// run() used (tasks never started because a submit threw, or an open
/// server connection that only keeps a thread for its next request) are
/// given back by the destructor.
class ThreadBudget::Slots {
 public:
  Slots() = default;
  /// Holds `n` slots of `budget` whatever its limit: work already handed
  /// out is never refused.
  Slots(ThreadBudget& budget, std::size_t n);
  /// `n` slots of `budget` if that many are free, else none.
  static Slots try_take(ThreadBudget& budget, std::size_t n);
  Slots(Slots&& other) noexcept;
  Slots& operator=(Slots&& other) noexcept;
  ~Slots();

  /// Whether any slot is held.
  explicit operator bool() const {
    return held_.load(std::memory_order_relaxed) > 0;
  }

  /// Runs one task on the calling thread and gives its slot back when the
  /// task returns or throws.  At most one run() per slot; run()s on
  /// several threads at once are fine.
  template <class F>
  decltype(auto) run(F&& task) {
    const Running running(*this);
    return std::forward<F>(task)();
  }

 private:
  /// Marks the calling thread busy with the budget while a task runs.
  class Running {
   public:
    explicit Running(Slots& slots);
    ~Running();
    Running(const Running&) = delete;
    Running& operator=(const Running&) = delete;

   private:
    Slots& slots_;
    ThreadBudget* enclosing_;
  };

  void give_back();

  ThreadBudget* budget_ = nullptr;
  std::atomic<std::size_t> held_{0};
};

/// Run body(item, worker) for every item in [0, items) on up to `workers`
/// threads: the calling thread is worker 0 and up to workers - 1 launched
/// threads supply the rest, each claiming the next item from one atomic
/// counter.  The call returns once every worker has finished; a worker
/// that cannot start leaves its items to the others.  `worker` indexes
/// per-worker state the caller built beforehand — on the calling thread,
/// because glibc keeps memory an executor thread allocated in that
/// thread's arena after it is freed.  Every item is attempted even after
/// one throws, so which errors are recorded never depends on thread
/// timing; after every worker has finished, the lowest failing item's
/// exception is rethrown, the one an in-order loop would meet first.
/// workers <= 1 runs the items in order on the calling thread, under the
/// same error rule.
void for_each_claimed(
    std::size_t items, unsigned workers,
    const std::function<void(std::size_t item, unsigned worker)>& body);

}  // namespace mapg

// Work-stealing thread pool for independent simulation jobs.
//
// Each worker owns a deque: it pushes/pops its own work LIFO (cache-warm)
// and steals FIFO from a victim when empty (oldest task first, the classic
// work-stealing discipline).  External submissions are dealt round-robin
// across the worker deques so a large sweep starts balanced even before
// stealing kicks in.
//
// Tasks are opaque void() closures; result ordering is the caller's problem
// (the ExperimentEngine writes results into pre-allocated slots, so sweep
// output order never depends on scheduling).  A task that throws is the
// caller's bug — the engine wraps every job body in its own try/catch — but
// the pool still contains it rather than calling std::terminate.
//
// for_each_claimed() below is the other way to use it: a fixed fan-out of
// indexed items (the sampled signature scan, and the sampled runner's
// representative recordings and cells) claimed from one atomic counter on
// a pool the caller keeps.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mapg {

class ThreadPool {
 public:
  /// Ceiling on a pool's threads, and so on --jobs (exec_options_from
  /// clamps to it too): far above the hosts this simulator runs on, far
  /// below the thread counts at which a host refuses to start more.
  static constexpr unsigned kMaxThreads = 256;

  /// `threads` == 0 selects default_threads(); more than kMaxThreads is
  /// clamped to it.  If a thread fails to start, the workers already
  /// started are stopped and joined before the std::system_error is
  /// rethrown.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task.  Thread-safe (including from inside a task).  If
  /// it throws (std::bad_alloc), the task was not enqueued.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Hardware concurrency, clamped to at least 1.
  static unsigned default_threads();

  /// Threads a fan-out of `items` independent items gets under the --jobs
  /// meaning: `jobs` (0 = default_threads()), at most `items` and
  /// kMaxThreads, at least 1.
  static unsigned workers_for(unsigned jobs, std::size_t items);

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;  ///< guarded by `mu`
    std::mutex mu;
  };

  void worker_loop(std::size_t self);
  void stop_and_join();
  bool try_get_task(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                 ///< guards the counters below
  std::condition_variable work_;  ///< signalled on submit and shutdown
  std::condition_variable idle_;  ///< signalled when pending_ hits zero
  std::size_t pending_ = 0;       ///< submitted but not yet finished
  std::size_t queued_ = 0;        ///< submitted but not yet taken
  std::size_t next_queue_ = 0;    ///< round-robin submission cursor
  bool stop_ = false;
};

/// Waits for a pool to go idle when it leaves scope, also while unwinding,
/// so tasks that refer to the enclosing frame are done before it goes.
class WaitIdleOnExit {
 public:
  explicit WaitIdleOnExit(ThreadPool* pool) : pool_(pool) {}
  ~WaitIdleOnExit() {
    if (pool_ != nullptr) pool_->wait_idle();
  }
  WaitIdleOnExit(const WaitIdleOnExit&) = delete;
  WaitIdleOnExit& operator=(const WaitIdleOnExit&) = delete;

 private:
  ThreadPool* pool_;
};

/// Run body(item, worker) for every item in [0, items) on `workers`
/// threads: the calling thread is worker 0 and up to workers - 1 threads
/// of `pool` supply the rest, each claiming the next item from one atomic
/// counter.  `pool` is one the caller keeps for such fan-outs and does not
/// run the caller: the call returns once it is idle.  A null `pool` runs
/// on the calling thread alone.  `worker` indexes per-worker state the
/// caller built beforehand — on the calling thread, because glibc keeps
/// memory a pool thread allocated in that thread's arena after it is
/// freed.  Every item is attempted even after one throws, so which errors
/// are recorded never depends on thread timing; after every worker has
/// finished, the lowest failing item's exception is rethrown, the one an
/// in-order loop would meet first.  workers <= 1 runs the items in order
/// on the calling thread, under the same error rule.
void for_each_claimed(
    ThreadPool* pool, std::size_t items, unsigned workers,
    const std::function<void(std::size_t item, unsigned worker)>& body);

}  // namespace mapg

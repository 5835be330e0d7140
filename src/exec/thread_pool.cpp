#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/obs.h"

namespace mapg {

unsigned ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

unsigned ThreadPool::workers_for(unsigned jobs, std::size_t items) {
  const std::size_t want = jobs == 0 ? default_threads() : jobs;
  return static_cast<unsigned>(std::max<std::size_t>(
      1, std::min({want, items, std::size_t{kMaxThreads}})));
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_threads();
  threads = std::min(threads, kMaxThreads);
  queues_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<Worker>());
  workers_.reserve(threads);
  try {
    for (unsigned i = 0; i < threads; ++i)
      workers_.emplace_back([this, i] { worker_loop(i); });
  } catch (...) {
    // A joinable std::thread destroyed during unwinding calls
    // std::terminate, so the started workers are joined first.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  stop_and_join();
}

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++pending_;
    ++queued_;
    MAPG_OBS_GAUGE_SET("exec.pool.pending", pending_);
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  MAPG_OBS_COUNTER_INC("exec.pool.submitted");
  try {
    std::lock_guard<std::mutex> lk(queues_[target]->mu);
    queues_[target]->deque.push_back(std::move(task));
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    --queued_;
    if (--pending_ == 0) idle_.notify_all();
    throw;
  }
  work_.notify_one();
}

bool ThreadPool::try_get_task(std::size_t self, std::function<void()>& out) {
  // Own deque first, newest-first.
  {
    Worker& w = *queues_[self];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.deque.empty()) {
      out = std::move(w.deque.back());
      w.deque.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the other workers.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    Worker& v = *queues_[(self + k) % queues_.size()];
    std::lock_guard<std::mutex> lk(v.mu);
    if (!v.deque.empty()) {
      out = std::move(v.deque.front());
      v.deque.pop_front();
      MAPG_OBS_COUNTER_INC("exec.pool.steals");
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (try_get_task(self, task)) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        --queued_;
      }
      try {
        task();
      } catch (...) {
        // Job bodies catch their own exceptions (see engine.cpp); anything
        // reaching here is contained so one bad task can't kill the pool.
      }
      std::lock_guard<std::mutex> lk(mu_);
      MAPG_OBS_GAUGE_SET("exec.pool.pending", pending_ - 1);
      if (--pending_ == 0) idle_.notify_all();
      continue;
    }
    // A submit counts its task under mu_ before it signals, so one that
    // lands between the failed try_get_task above and this wait is seen
    // here instead of slept through.  (The count is raised before the task
    // reaches a deque, so a worker woken for it may retry a few times
    // until the push lands.)
    std::unique_lock<std::mutex> lk(mu_);
    work_.wait(lk, [this] { return stop_ || queued_ > 0; });
    if (stop_) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [this] { return pending_ == 0; });
}

void for_each_claimed(
    ThreadPool* pool, std::size_t items, unsigned workers,
    const std::function<void(std::size_t item, unsigned worker)>& body) {
  workers = pool == nullptr ? 1 : std::min(workers, pool->size() + 1);
  std::vector<std::exception_ptr> errors(items);
  std::atomic<std::size_t> next{0};
  const auto work = [&](unsigned worker) {
    for (;;) {
      const std::size_t item = next.fetch_add(1);
      if (item >= items) return;
      try {
        body(item, worker);
      } catch (...) {
        errors[item] = std::current_exception();
      }
    }
  };
  if (workers <= 1) {
    work(0);
  } else {
    const WaitIdleOnExit join(pool);
    for (unsigned w = 1; w < workers; ++w)
      pool->submit([&work, w] { work(w); });
    work(0);
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace mapg

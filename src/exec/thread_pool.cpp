#include "exec/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace mapg {
namespace {

/// One executor thread: the body it runs next, and how it is woken.
struct Worker {
  std::thread thread;
  std::function<void()> body;  ///< guarded by Executor::mu
  std::condition_variable wake;
  bool retire = false;  ///< guarded by Executor::mu
};

/// The threads waiting for a body, most recently parked last.  Never
/// destroyed: parked threads wait on it until the process exits.
struct Executor {
  std::mutex mu;
  std::vector<Worker*> parked;
};

void retire_parked();
void release_lock();

Executor& executor() {
  static Executor* const ex = [] {
    auto* e = new Executor;
    pthread_atfork(retire_parked, release_lock, release_lock);
    return e;
  }();
  return *ex;
}

/// A thread's life: run the body it was started with, park, and run each
/// body launch() hands it, until a fork retires it.
void serve(Worker* self) {
  Executor& ex = executor();
  std::unique_lock<std::mutex> lk(ex.mu);
  for (;;) {
    std::function<void()> body = std::move(self->body);
    self->body = nullptr;
    lk.unlock();
    body();
    body = nullptr;  // its captures go before the thread parks
    lk.lock();
    ex.parked.push_back(self);
    self->wake.wait(lk,
                    [self] { return self->body != nullptr || self->retire; });
    if (self->retire) return;
  }
}

// Before a fork: join every parked thread, then hold the lock across the
// fork, so the child's copy of the executor has no parked thread and no
// half-made change.
void retire_parked() {
  Executor& ex = executor();
  std::vector<Worker*> retiring;
  {
    const std::lock_guard<std::mutex> lk(ex.mu);
    retiring.swap(ex.parked);
    for (Worker* w : retiring) {
      w->retire = true;
      w->wake.notify_one();
    }
  }
  for (Worker* w : retiring) {
    w->thread.join();
    delete w;
  }
  ex.mu.lock();
}

void release_lock() { executor().mu.unlock(); }

/// The budget of the task this thread runs, innermost first (Slots::run).
thread_local ThreadBudget* t_budget = nullptr;

}  // namespace

void ThreadPool::launch(std::function<void()> body) {
  Executor& ex = executor();
  std::unique_lock<std::mutex> lk(ex.mu);
  if (!ex.parked.empty()) {
    Worker* w = ex.parked.back();
    ex.parked.pop_back();
    w->body = std::move(body);
    lk.unlock();
    w->wake.notify_one();
    return;
  }
  auto* w = new Worker;
  w->body = std::move(body);
  try {
    // Under the lock, so the thread parks (where a fork may join it) only
    // once `thread` holds it.
    w->thread = std::thread(serve, w);
  } catch (...) {
    delete w;
    throw;
  }
  lk.unlock();
  MAPG_OBS_COUNTER_INC("exec.threads.started");
}

unsigned ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

unsigned ThreadPool::workers_for(unsigned jobs, std::size_t items) {
  const std::size_t want = jobs == 0 ? default_threads() : jobs;
  return static_cast<unsigned>(std::max<std::size_t>(
      1, std::min({want, items, std::size_t{kMaxThreads}})));
}

bool ThreadBudget::try_hold(std::size_t n) {
  std::size_t cur = in_use_.load(std::memory_order_relaxed);
  while (cur + n <= limit_)
    if (in_use_.compare_exchange_weak(cur, cur + n,
                                      std::memory_order_relaxed))
      return true;
  return false;
}

ThreadBudget& ThreadBudget::process() {
  static ThreadBudget budget(ThreadPool::default_threads());
  return budget;
}

ThreadBudget* ThreadBudget::current() { return t_budget; }

ThreadBudget::Slots::Slots(ThreadBudget& budget, std::size_t n)
    : budget_(&budget), held_(n) {
  budget.hold(n);
}

ThreadBudget::Slots ThreadBudget::Slots::try_take(ThreadBudget& budget,
                                                  std::size_t n) {
  Slots slots;
  if (budget.try_hold(n)) {
    slots.budget_ = &budget;
    slots.held_.store(n, std::memory_order_relaxed);
  }
  return slots;
}

ThreadBudget::Slots::Slots(Slots&& other) noexcept
    : budget_(other.budget_), held_(other.held_.exchange(0)) {}

ThreadBudget::Slots& ThreadBudget::Slots::operator=(Slots&& other) noexcept {
  if (this != &other) {
    give_back();
    budget_ = other.budget_;
    held_.store(other.held_.exchange(0), std::memory_order_relaxed);
  }
  return *this;
}

ThreadBudget::Slots::~Slots() { give_back(); }

void ThreadBudget::Slots::give_back() {
  const std::size_t n = held_.exchange(0);
  if (n > 0) budget_->release(n);
}

ThreadBudget::Slots::Running::Running(Slots& slots)
    : slots_(slots), enclosing_(t_budget) {
  if (enclosing_ == nullptr) ThreadBudget::process().hold(1);
  t_budget = slots.budget_;
}

ThreadBudget::Slots::Running::~Running() {
  t_budget = enclosing_;
  if (enclosing_ == nullptr) ThreadBudget::process().release(1);
  slots_.held_.fetch_sub(1);
  slots_.budget_->release(1);
}

void for_each_claimed(
    std::size_t items, unsigned workers,
    const std::function<void(std::size_t item, unsigned worker)>& body) {
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
  // Launched workers not yet finished.  Each says so under `mu` as its
  // last touch of this frame.
  std::mutex mu;
  std::condition_variable finished;
  unsigned running = 0;
  for (unsigned w = 1; w < workers; ++w) {
    {
      const std::lock_guard<std::mutex> lk(mu);
      ++running;
    }
    try {
      ThreadPool::launch([&, w] {
        work(w);
        const std::lock_guard<std::mutex> lk(mu);
        if (--running == 0) finished.notify_one();
      });
    } catch (...) {
      // No thread to be had: the workers already going share the items.
      const std::lock_guard<std::mutex> lk(mu);
      --running;
      break;
    }
  }
  work(0);
  {
    std::unique_lock<std::mutex> lk(mu);
    finished.wait(lk, [&] { return running == 0; });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace mapg

// The trace front-end on a spare thread.
//
// A trace source never reads core timing: a generator's stream is a pure
// function of (profile, seed) and a MAPGTRC2 window a pure function of the
// file's bytes.  So the records a run will consume can be produced ahead
// of it on another thread without changing one bit of the result, and the
// simulating thread is left with the core, cache, DRAM and gating models.
// StagedTraceSource does that: a helper reads up to a known count of
// instructions from the inner source into a bounded ring of blocks, and
// next() serves them in order.  The core sees the same records, the same
// end of trace, and an exception from the inner source (a corrupt MAPGTRC2
// chunk) after exactly the records produced before it.
//
// A helper is a thread the run did not have before, so it starts only
// where one is free (stage_if_free): within the --jobs of the task the
// calling thread runs (ThreadBudget::Slots::run), and within one busy
// thread per hardware thread process-wide.  Where no thread is free the
// run reads its source on the simulating thread, exactly as before.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "trace/instr.h"

namespace mapg {

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

/// Reads up to `count` instructions of another source on a helper thread,
/// into a ring of kBlocks blocks of kBlockInstrs instructions.  `inner` is
/// read by the helper only, from construction until the stage is destroyed
/// or reset, and must outlive the stage.  Destroying the stage early (a
/// consumer that stops, or one that unwinds from an exception) stops the
/// helper and waits for it.
class StagedTraceSource final : public TraceSource {
 public:
  /// Runs the helper's body on another thread.  The default starts a
  /// std::thread that the stage joins; the sampled runner hands it to a
  /// pool it keeps (src/sample/runner.h), which must have a thread free
  /// for it: the consumer waits for the helper's first block.
  using Launcher = std::function<void(std::function<void()> body)>;

  static constexpr std::uint32_t kBlocks = 8;
  static constexpr std::uint32_t kBlockInstrs = 2048;

  StagedTraceSource(TraceSource& inner, std::uint64_t count,
                    Launcher launch = {});
  ~StagedTraceSource() override;
  StagedTraceSource(const StagedTraceSource&) = delete;
  StagedTraceSource& operator=(const StagedTraceSource&) = delete;

  bool next(Instr& out) override {
    if (cur_ != end_) {
      out = *cur_++;
      return true;
    }
    return next_block(out);
  }
  /// Stops the helper, rewinds `inner` and stages it again.
  void reset() override;

 private:
  struct Ring;

  /// The helper: fills block after block until `count` records, the end
  /// of `inner`, an exception from it, or a stop.
  static void produce(Ring& r, TraceSource& inner, std::uint64_t count);
  void start();
  void stop();
  bool next_block(Instr& out);

  TraceSource& inner_;
  const std::uint64_t count_;
  Launcher launch_;
  std::shared_ptr<Ring> ring_;
  std::thread thread_;  ///< the default launcher's helper
  const Instr* cur_ = nullptr;
  const Instr* end_ = nullptr;
  std::uint32_t block_ = 0;  ///< ring block being served
  bool serving_ = false;     ///< whether block_ has been taken
};

/// What a run reads its trace through: a StagedTraceSource over `inner`
/// where stage_if_free found a thread free, else `inner` itself.  Holds the
/// helper's budget slots until the helper has stopped.
class TraceFrontEnd {
 public:
  TraceSource& source() { return stage_ ? *stage_ : inner_; }
  bool staged() const { return stage_ != nullptr; }

 private:
  friend TraceFrontEnd stage_if_free(TraceSource& inner, std::uint64_t count,
                                     StagedTraceSource::Launcher launch);
  explicit TraceFrontEnd(TraceSource& inner) : inner_(inner) {}

  TraceSource& inner_;
  ThreadBudget::Slots caller_;   ///< the helper's slot of the task's budget
  ThreadBudget::Slots process_;  ///< the helper's, and an untasked caller's
  /// Declared last, so the helper stops before its slots are given back.
  std::unique_ptr<StagedTraceSource> stage_;
};

/// Stages the next `count` instructions of `inner` when a thread is free,
/// else leaves the run to read `inner` itself.  A thread is free when the
/// budget of the task the calling thread runs (if any) and process() both
/// have a slot for the helper; a calling thread outside any task also
/// counts itself busy process-wide while the stage lives.  Counts the run
/// in sim.frontend.staged or sim.frontend.inline.  If starting the helper
/// throws anything but a std::system_error (no thread to be had: the run
/// reads inline), the exception propagates and every slot is given back.
TraceFrontEnd stage_if_free(TraceSource& inner, std::uint64_t count,
                            StagedTraceSource::Launcher launch = {});

}  // namespace mapg

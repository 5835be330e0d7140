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
// calling thread runs (ThreadBudget::Slots::run, exec/thread_pool.h), and
// within one busy thread per hardware thread process-wide.  Where no thread is free the
// run reads its source on the simulating thread, exactly as before.
#pragma once

#include <cstdint>
#include <memory>

#include "exec/thread_pool.h"
#include "trace/instr.h"

namespace mapg {

/// Reads up to `count` instructions of another source on a helper thread
/// (ThreadPool::launch, exec/thread_pool.h), into a ring of kBlocks blocks
/// of kBlockInstrs instructions.  `inner` is read by the helper only, from
/// construction until the stage is destroyed or reset, and must outlive
/// the stage.  Destroying the stage early (a consumer that stops, or one
/// that unwinds from an exception) stops the helper and waits for it.
/// Throws std::system_error when no thread can be had for the helper.
class StagedTraceSource final : public TraceSource {
 public:
  static constexpr std::uint32_t kBlocks = 8;
  static constexpr std::uint32_t kBlockInstrs = 2048;

  StagedTraceSource(TraceSource& inner, std::uint64_t count);
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
  std::shared_ptr<Ring> ring_;
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
  friend TraceFrontEnd stage_if_free(TraceSource& inner, std::uint64_t count);
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
/// in sim.frontend.staged or sim.frontend.inline.  Where the executor has
/// no thread for the helper (std::system_error), the run reads inline and
/// every slot is given back.
TraceFrontEnd stage_if_free(TraceSource& inner, std::uint64_t count);

}  // namespace mapg

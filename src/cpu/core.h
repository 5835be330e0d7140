// Trace-driven cycle-level core model.
//
// Microarchitecture: scalar in-order issue with a scoreboard for load
// results and an outstanding-miss credit pool (the "MLP window").  Loads are
// non-blocking: the core keeps issuing until either (a) an instruction needs
// a load result that has not returned, or (b) a new load cannot get a miss
// credit.  Both cases idle the *entire* core — exactly the condition MAPG
// gates on — and are reported to a pluggable StallHandler, which may delay
// the resume point (modeling power-gating wakeup penalties).
//
// Why not full out-of-order: the gating opportunity is characterized by the
// distribution of full-core stall intervals, which this model reproduces
// with two knobs (dependency distance from the trace, MLP window here) while
// remaining analytically testable.  See DESIGN.md §6.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/hierarchy.h"
#include "trace/instr.h"

namespace mapg {

struct CoreConfig {
  Cycle mul_latency = 3;   ///< pipelined
  Cycle fp_latency = 4;    ///< pipelined
  Cycle div_latency = 20;  ///< unpipelined: blocks issue
  /// Instructions issued per cycle (superscalar width).  Loads/stores and
  /// pipelined ALU ops share issue slots; a divide flushes the slot group.
  std::uint32_t issue_width = 1;
  /// Maximum outstanding DRAM fills before a new load stalls issue.
  std::uint32_t mlp_window = 8;
  /// Scoreboard depth; must exceed the largest trace dep_dist.
  std::uint32_t scoreboard_window = 128;

  bool valid() const {
    return issue_width > 0 && mlp_window > 0 && scoreboard_window > 1;
  }
};

enum class StallReason : std::uint8_t {
  kDependence,  ///< an instruction needs an unreturned load result
  kMlpLimit,    ///< no miss credit available for a new load
};

/// Everything the platform knows about a full-core stall, at stall onset.
/// Policies must respect the information boundary: `data_ready` is ground
/// truth (visible to the clairvoyant Oracle only); real policies may use
/// `estimate` immediately and `data_ready` only from `commit` onward.
struct StallEvent {
  Cycle start = 0;       ///< first idle cycle
  Cycle data_ready = 0;  ///< cycle the blocking data becomes usable
  Cycle commit = 0;      ///< cycle at which data_ready became exactly known
  Cycle estimate = 0;    ///< controller's estimate of data_ready at issue
  bool dram = false;     ///< blocking request was served by DRAM
  StallReason reason = StallReason::kDependence;

  Cycle length() const { return data_ready - start; }
};

/// Structure-of-arrays storage for an ordered StallEvent sequence.  The
/// replay tiers (src/replay) stream these linearly — every window of every
/// policy cell walks the full sequence — so keeping each field in its own
/// contiguous vector turns that walk into four sequential streams instead
/// of a 34-byte-stride gather.  push_back/operator[] round-trip StallEvent
/// exactly; the two sub-Cycle fields (dram flag, reason) pack into one byte.
class StallSeries {
 public:
  void clear() {
    start_.clear();
    data_ready_.clear();
    commit_.clear();
    estimate_.clear();
    flags_.clear();
  }
  void reserve(std::size_t n) {
    start_.reserve(n);
    data_ready_.reserve(n);
    commit_.reserve(n);
    estimate_.reserve(n);
    flags_.reserve(n);
  }
  void push_back(const StallEvent& ev) {
    start_.push_back(ev.start);
    data_ready_.push_back(ev.data_ready);
    commit_.push_back(ev.commit);
    estimate_.push_back(ev.estimate);
    flags_.push_back(static_cast<std::uint8_t>(
        (ev.dram ? 1u : 0u) |
        (static_cast<unsigned>(ev.reason) << 1)));
  }
  StallEvent operator[](std::size_t i) const {
    StallEvent ev;
    ev.start = start_[i];
    ev.data_ready = data_ready_[i];
    ev.commit = commit_[i];
    ev.estimate = estimate_[i];
    ev.dram = (flags_[i] & 1u) != 0;
    ev.reason = static_cast<StallReason>(flags_[i] >> 1);
    return ev;
  }
  std::size_t size() const { return start_.size(); }
  bool empty() const { return start_.empty(); }

 private:
  std::vector<Cycle> start_;
  std::vector<Cycle> data_ready_;
  std::vector<Cycle> commit_;
  std::vector<Cycle> estimate_;
  std::vector<std::uint8_t> flags_;  ///< bit 0: dram; bits 1+: reason
};

/// Receives every full-core stall and dictates the actual resume cycle.
/// The power-gating controller in src/core implements this.
class StallHandler {
 public:
  virtual ~StallHandler() = default;
  /// Return the cycle at which the core may resume issue.  Values below
  /// event.data_ready are clamped up; values above model wakeup penalties.
  virtual Cycle on_stall(const StallEvent& event) { return event.data_ready; }
};

/// Tee decorator: appends every StallEvent to a sink series, then forwards
/// to the wrapped handler unchanged.  Because it never alters the returned
/// resume cycle, a recorded run is bit-identical to an unrecorded one — the
/// property the replay engine (src/replay) is built on.  The sink can be
/// switched mid-run (e.g. at the warmup boundary) so event phases land in
/// separate series.
class RecordingStallHandler final : public StallHandler {
 public:
  explicit RecordingStallHandler(StallHandler& inner) : inner_(inner) {}

  void set_sink(StallSeries& sink) { sink_ = &sink; }

  Cycle on_stall(const StallEvent& event) override {
    if (sink_ != nullptr) sink_->push_back(event);
    return inner_.on_stall(event);
  }

 private:
  StallHandler& inner_;
  StallSeries* sink_ = nullptr;
};

struct CoreStats {
  std::uint64_t instrs = 0;
  std::uint64_t cycles = 0;  ///< total execution time
  std::array<std::uint64_t, kNumOpClasses> instr_by_class{};

  std::uint64_t stalls_dram = 0;
  std::uint64_t stalls_other = 0;
  std::uint64_t stall_cycles_dram = 0;   ///< excludes handler penalties
  std::uint64_t stall_cycles_other = 0;
  std::uint64_t penalty_cycles = 0;  ///< handler-added cycles (wakeup cost)
  std::uint64_t mlp_limit_stalls = 0;

  /// Distribution of DRAM-blocked stall durations (R-Fig.1 input).
  Histogram dram_stall_hist{0.0, 1024.0, 64};
  RunningStat outstanding_at_stall;  ///< in-flight fills at DRAM-stall onset

  std::uint64_t idle_cycles() const {
    return stall_cycles_dram + stall_cycles_other + penalty_cycles;
  }
  std::uint64_t busy_cycles() const { return cycles - idle_cycles(); }
  double ipc() const {
    return cycles ? static_cast<double>(instrs) / static_cast<double>(cycles)
                  : 0.0;
  }
};

class Core {
 public:
  /// One scoreboard slot: the blocker a future instruction may wait on.
  /// Public because it is part of Core::State (below).
  struct Blocker {
    Cycle ready = kNoCycle;  ///< kNoCycle = slot empty
    Cycle commit = 0;
    Cycle estimate = 0;
    bool dram = false;
  };

  /// Complete mutable state of the core: clock, issue slot, instruction ids,
  /// scoreboard, outstanding-miss pool, and statistics (histogram and
  /// running moments included).  export_state()/import_state() round-trip it
  /// bit-exactly; import requires a Core constructed with the same
  /// CoreConfig.  This is the cpu half of an architectural checkpoint
  /// (src/replay/checkpoint.h) — the StallHandler is NOT part of it (the
  /// resume path reconstructs the controller by replaying the recorded
  /// event prefix; see docs/MODEL.md §4c).
  struct State {
    Cycle now = 0;
    std::uint32_t slot = 0;
    Cycle stats_base = 0;
    InstrId next_id = 0;
    std::vector<Blocker> scoreboard;
    std::vector<MemAccessResult> outstanding;
    CoreStats stats;
  };

  Core(CoreConfig config, MemoryHierarchy& mem,
       StallHandler* handler = nullptr);

  State export_state() const;
  void import_state(const State& s);

  /// Execute up to `max_instrs` from `trace` (or until it ends).  Can be
  /// called repeatedly; time continues from the previous call.
  void run(TraceSource& trace, std::uint64_t max_instrs);

  /// Execute exactly one instruction; returns false at end-of-trace.  The
  /// multicore scheduler uses this to interleave cores in time order.
  bool step(TraceSource& trace);

  const CoreStats& stats() const { return stats_; }
  Cycle now() const { return now_; }

  /// Select how stall windows are charged to the counters: kFastForward
  /// (default) bulk-advances in closed form; kCycleAccurate classifies each
  /// stalled cycle in a per-cycle loop.  Both produce identical statistics
  /// (the differential tests prove it); the knob exists so the closed-form
  /// arithmetic stays falsifiable.
  void set_step_mode(StepMode mode) { step_mode_ = mode; }
  StepMode step_mode() const { return step_mode_; }

  /// Zero the statistics without disturbing microarchitectural state; used
  /// after cache warmup.  Subsequent stats cover only post-reset execution.
  void reset_stats();

 private:
  void stall_until(Blocker blocker, StallReason reason);
  /// Bulk-advance API: charge the whole window [ev.start, resume) to the
  /// stall counters in closed form (fast-forward mode)...
  void account_stall_bulk(const StallEvent& ev, Cycle resume);
  /// ...or walk it cycle by cycle (cycle-accurate reference mode).
  void account_stall_stepped(const StallEvent& ev, Cycle resume);
  /// Shared sink: one classified stall window into the counters.
  void record_stall_window(const StallEvent& ev, Cycle stall_len,
                           Cycle penalty);
  void prune_outstanding();
  /// Consume one issue slot; advances the clock when the group is full.
  void advance_slot() {
    if (++slot_ >= config_.issue_width) {
      slot_ = 0;
      now_ += 1;
    }
  }

  CoreConfig config_;
  MemoryHierarchy& mem_;
  StallHandler* handler_;
  StallHandler default_handler_;

  StepMode step_mode_ = StepMode::kFastForward;
  Cycle now_ = 0;
  std::uint32_t slot_ = 0;  ///< issue slot used within the current cycle
  Cycle stats_base_ = 0;  ///< cycle at the last reset_stats()
  InstrId next_id_ = 0;
  std::vector<Blocker> scoreboard_;  ///< ring keyed by instr id % window
  /// Outstanding (non-merged) DRAM fills; bounded by mlp_window.
  std::vector<MemAccessResult> outstanding_;
  CoreStats stats_;
};

}  // namespace mapg

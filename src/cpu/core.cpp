#include "cpu/core.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mapg {
namespace {

/// Kept out of line so the per-load check in Core::step stays one compare.
[[noreturn]] void throw_dep_dist_too_far(InstrId index, std::uint16_t dep_dist,
                                         std::uint32_t window) {
  throw std::runtime_error(
      "instruction " + std::to_string(index) + ": load dep_dist " +
      std::to_string(dep_dist) + " reaches the scoreboard window of " +
      std::to_string(window) + " (raise core.scoreboard above " +
      std::to_string(dep_dist) + ")");
}

}  // namespace

Core::Core(CoreConfig config, MemoryHierarchy& mem, StallHandler* handler)
    : config_(config),
      mem_(mem),
      handler_(handler ? handler : &default_handler_) {
  scoreboard_.resize(config_.scoreboard_window);
  outstanding_.reserve(config_.mlp_window);
}

void Core::reset_stats() {
  stats_ = CoreStats{};
  stats_base_ = now_;
}

void Core::prune_outstanding() {
  std::erase_if(outstanding_, [this](const MemAccessResult& r) {
    return r.complete <= now_;
  });
}

void Core::stall_until(Blocker blocker, StallReason reason) {
  StallEvent ev;
  ev.start = now_;
  ev.data_ready = blocker.ready;
  ev.commit = blocker.commit;
  ev.estimate = blocker.estimate;
  ev.dram = blocker.dram;
  ev.reason = reason;

  const Cycle resume = std::max(handler_->on_stall(ev), ev.data_ready);
  if (step_mode_ == StepMode::kFastForward)
    account_stall_bulk(ev, resume);
  else
    account_stall_stepped(ev, resume);
  if (reason == StallReason::kMlpLimit) ++stats_.mlp_limit_stalls;

  now_ = resume;
  slot_ = 0;  // issue restarts at the top of the resume cycle
}

void Core::account_stall_bulk(const StallEvent& ev, Cycle resume) {
  record_stall_window(ev, ev.data_ready - ev.start, resume - ev.data_ready);
}

void Core::account_stall_stepped(const StallEvent& ev, Cycle resume) {
  // Classify every stalled cycle individually: before data_ready the core
  // waits on memory, from data_ready to resume it pays the wakeup penalty.
  Cycle stall_len = 0;
  Cycle penalty = 0;
  for (Cycle t = ev.start; t < resume; ++t) {
    if (t < ev.data_ready)
      ++stall_len;
    else
      ++penalty;
  }
  record_stall_window(ev, stall_len, penalty);
}

void Core::record_stall_window(const StallEvent& ev, Cycle stall_len,
                               Cycle penalty) {
  if (ev.dram) {
    ++stats_.stalls_dram;
    stats_.stall_cycles_dram += stall_len;
    stats_.dram_stall_hist.add(static_cast<double>(stall_len));
    // MLP proxy: in-flight DRAM fills when the core blocks on memory (the
    // blocking fill itself is still outstanding, so >= 1 normally).
    stats_.outstanding_at_stall.add(
        static_cast<double>(outstanding_.size()));
  } else {
    ++stats_.stalls_other;
    stats_.stall_cycles_other += stall_len;
  }
  stats_.penalty_cycles += penalty;
}

void Core::run(TraceSource& trace, std::uint64_t max_instrs) {
  for (std::uint64_t n = 0; n < max_instrs && step(trace); ++n) {
  }
}

bool Core::step(TraceSource& trace) {
  Instr instr;
  if (!trace.next(instr)) return false;
  // Copy the fields out: instr's address escaped into next(), so reading
  // them directly would reload them from memory after every call below.
  const OpClass op = instr.op;
  const Addr addr = instr.addr;
  const std::uint16_t dep_dist = instr.dep_dist;
  ++next_id_;
  const std::uint32_t window = config_.scoreboard_window;
  const std::uint32_t head = head_;
  if (++head_ == window) head_ = 0;

  // 1. Dependence check: does this instruction consume an unreturned load?
  Blocker& slot = scoreboard_[head];
  if (slot.ready != kNoCycle) {
    if (slot.ready > now_) stall_until(slot, StallReason::kDependence);
    slot = Blocker{};
  }

  ++stats_.instrs;
  ++stats_.instr_by_class[static_cast<std::size_t>(op)];

  switch (op) {
    case OpClass::kLoad: {
      // 2. MLP credit: a new load needs a free miss slot before it can
      // probe the hierarchy (MSHR-full semantics).  A load that merges
      // into an in-flight fill shares that entry and needs no credit.
      prune_outstanding();
      if (outstanding_.size() >= config_.mlp_window &&
          !mem_.line_in_flight(addr)) {
        const auto earliest = std::min_element(
            outstanding_.begin(), outstanding_.end(),
            [](const MemAccessResult& a, const MemAccessResult& b) {
              return a.complete < b.complete;
            });
        Blocker b;
        b.ready = earliest->complete;
        b.commit = earliest->commit;
        b.estimate = earliest->estimate;
        b.dram = true;
        stall_until(b, StallReason::kMlpLimit);
        prune_outstanding();
      }

      const MemAccessResult res = mem_.load(addr, now_);
      if (res.served_by == ServedBy::kDram && !res.merged)
        outstanding_.push_back(res);

      // 3. Register the consumer's blocker (keep the latest-finishing
      // producer if several loads feed the same consumer slot).
      if (dep_dist > 0) {
        // A trace or text converter can carry any u16 dep_dist; the ring
        // below holds only `window` slots.
        if (dep_dist >= window)
          throw_dep_dist_too_far(next_id_ - 1, dep_dist, window);
        std::uint32_t consumer = head + dep_dist;
        if (consumer >= window) consumer -= window;
        Blocker& dep = scoreboard_[consumer];
        if (dep.ready == kNoCycle || res.complete > dep.ready) {
          dep.ready = res.complete;
          dep.commit = res.commit;
          dep.estimate = res.estimate;
          dep.dram = res.served_by == ServedBy::kDram;
        }
      }
      advance_slot();
      break;
    }
    case OpClass::kStore:
      // Retires through an unbounded write buffer: updates memory state
      // (and thus future latencies) but never blocks issue.
      mem_.store(addr, now_);
      advance_slot();
      break;
    case OpClass::kDiv:
      // Unpipelined divider blocks issue for its full latency and flushes
      // the current issue group.
      now_ += config_.div_latency;
      slot_ = 0;
      break;
    case OpClass::kMul:
    case OpClass::kFp:
    case OpClass::kAlu:
    case OpClass::kBranch:
      // Pipelined issue: `issue_width` instructions per cycle; latencies
      // only matter through load dependences, which the trace encodes.
      advance_slot();
      break;
  }
  stats_.cycles = now_ - stats_base_;
  return true;
}

}  // namespace mapg

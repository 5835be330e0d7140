#include "trace/staged_source.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace mapg {

// The ring: block b of the stream lives in slot b % kBlocks.  The helper
// fills a slot only after the consumer has handed it back (`consumed`),
// and the consumer reads one only after the helper has published it
// (`produced`); the counters' release/acquire pairs order the records.
// Either side that finds the ring full (empty) sleeps on the other's
// counter until half of it has drained (filled) or the stream has ended,
// so a side sleeps and wakes about once per kBlocks / 2 blocks rather than
// once per block; the *_waits flags let the other side skip the wake-up
// call while nobody sleeps.
struct StagedTraceSource::Ring {
  explicit Ring(std::uint64_t count)
      : slots(static_cast<std::size_t>(std::min<std::uint64_t>(
            count, std::uint64_t{kBlocks} * kBlockInstrs))) {}

  /// At most the whole stream: a short run allocates only what it uses.
  std::vector<Instr> slots;
  std::array<std::uint32_t, kBlocks> fill{};  ///< records in each block
  std::array<bool, kBlocks> last{};           ///< the block ends the stream
  /// What the inner source threw, raised after the last block's records.
  std::exception_ptr error;
  std::atomic<std::uint32_t> produced{0};  ///< blocks published
  std::atomic<std::uint32_t> consumed{0};  ///< blocks handed back
  std::atomic<bool> finished{false};       ///< the last block is published
  std::atomic<bool> helper_waits{false};
  std::atomic<bool> consumer_waits{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};  ///< the helper no longer reads `inner`
};

namespace {
constexpr std::uint32_t kHalf = StagedTraceSource::kBlocks / 2;
}  // namespace

void StagedTraceSource::produce(Ring& r, TraceSource& inner,
                                std::uint64_t count) {
  std::uint64_t left = count;
  for (std::uint32_t b = 0;; ++b) {
    // Room for block b: fewer than kBlocks published blocks not handed back.
    for (;;) {
      if (r.stop.load(std::memory_order_acquire)) return;
      std::uint32_t c = r.consumed.load(std::memory_order_acquire);
      if (b - c < kBlocks) break;
      r.helper_waits.store(true, std::memory_order_seq_cst);
      c = r.consumed.load(std::memory_order_seq_cst);
      if (b - c > kHalf && !r.stop.load(std::memory_order_seq_cst))
        r.consumed.wait(c, std::memory_order_acquire);
      r.helper_waits.store(false, std::memory_order_relaxed);
    }
    const std::uint32_t slot = b % kBlocks;
    Instr* out = r.slots.data() + std::size_t{slot} * kBlockInstrs;
    const auto want = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockInstrs, left));
    std::uint32_t n = 0;
    bool last = true;
    try {
      while (n < want && inner.next(out[n])) ++n;
      last = n < want || n == left;
    } catch (...) {
      r.error = std::current_exception();
    }
    left -= n;
    r.fill[slot] = n;
    r.last[slot] = last;
    if (last) r.finished.store(true, std::memory_order_seq_cst);
    r.produced.store(b + 1, std::memory_order_seq_cst);
    if (r.consumer_waits.load(std::memory_order_seq_cst) &&
        (last || b + 1 - r.consumed.load(std::memory_order_relaxed) >= kHalf))
      r.produced.notify_one();
    if (last) return;
  }
}

StagedTraceSource::StagedTraceSource(TraceSource& inner, std::uint64_t count)
    : inner_(inner), count_(count) {
  start();
}

StagedTraceSource::~StagedTraceSource() { stop(); }

void StagedTraceSource::start() {
  auto ring = std::make_shared<Ring>(count_);
  auto body = [ring, &inner = inner_, count = count_] {
    [[maybe_unused]] std::uint64_t ts = 0;
    MAPG_OBS_ONLY(obs::EventTracer& tracer = obs::EventTracer::instance();
                  if (tracer.enabled()) ts = tracer.now_ns();)
    produce(*ring, inner, count);
    MAPG_OBS_ONLY(if (tracer.enabled()) {
      tracer.complete("trace.frontend", "trace", ts, tracer.now_ns() - ts,
                      obs::TraceArgs().add("instructions", count).json());
    })
    ring->done.store(true, std::memory_order_release);
    ring->done.notify_one();
  };
  ThreadPool::launch(std::move(body));
  ring_ = std::move(ring);
}

void StagedTraceSource::stop() {
  if (!ring_) return;
  Ring& r = *ring_;
  r.stop.store(true, std::memory_order_seq_cst);
  r.consumed.fetch_add(kBlocks, std::memory_order_seq_cst);
  r.consumed.notify_one();
  while (!r.done.load(std::memory_order_acquire))
    r.done.wait(false, std::memory_order_acquire);
  ring_.reset();
  cur_ = end_ = nullptr;
  block_ = 0;
  serving_ = false;
}

void StagedTraceSource::reset() {
  stop();
  inner_.reset();
  start();
}

bool StagedTraceSource::next_block(Instr& out) {
  Ring& r = *ring_;
  for (;;) {
    if (serving_) {
      if (r.last[block_ % kBlocks]) {
        if (r.error) std::rethrow_exception(r.error);
        return false;
      }
      ++block_;
      r.consumed.store(block_, std::memory_order_seq_cst);
      if (r.helper_waits.load(std::memory_order_seq_cst) &&
          r.produced.load(std::memory_order_relaxed) - block_ <= kHalf)
        r.consumed.notify_one();
    }
    if (r.produced.load(std::memory_order_acquire) == block_) {
      for (;;) {
        r.consumer_waits.store(true, std::memory_order_seq_cst);
        const std::uint32_t p = r.produced.load(std::memory_order_seq_cst);
        if (p - block_ >= kHalf ||
            (p != block_ && r.finished.load(std::memory_order_seq_cst)))
          break;
        r.produced.wait(p, std::memory_order_acquire);
      }
      r.consumer_waits.store(false, std::memory_order_relaxed);
    }
    const std::uint32_t slot = block_ % kBlocks;
    cur_ = r.slots.data() + std::size_t{slot} * kBlockInstrs;
    end_ = cur_ + r.fill[slot];
    serving_ = true;
    if (cur_ != end_) {
      out = *cur_++;
      return true;
    }
  }
}

TraceFrontEnd stage_if_free(TraceSource& inner, std::uint64_t count) {
  TraceFrontEnd front(inner);
  ThreadBudget* task = ThreadBudget::current();
  if (task != nullptr) front.caller_ = ThreadBudget::Slots::try_take(*task, 1);
  // A thread outside every task holds no process() slot yet; it is busy
  // for as long as the stage lives.
  if (task == nullptr || front.caller_)
    front.process_ = ThreadBudget::Slots::try_take(ThreadBudget::process(),
                                                   task != nullptr ? 1 : 2);
  if (front.process_) {
    try {
      front.stage_ = std::make_unique<StagedTraceSource>(inner, count);
    } catch (const std::system_error&) {
      // No thread to be had: read on this one.
    }
  }
  if (front.stage_) {
    MAPG_OBS_COUNTER_INC("sim.frontend.staged");
  } else {
    front.caller_ = {};
    front.process_ = {};
    MAPG_OBS_COUNTER_INC("sim.frontend.inline");
  }
  return front;
}

}  // namespace mapg

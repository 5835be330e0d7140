// In-memory trace sources: a vector, and the limiting and address-rebasing
// wrappers.
//
// The on-disk trace format (MAPGTRC2) and its streaming reader live in
// trace_file.h (docs/TRACE.md).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/instr.h"

namespace mapg {

/// Serves instructions from an in-memory vector (bounded trace).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<Instr> instrs)
      : instrs_(std::move(instrs)) {}

  bool next(Instr& out) override {
    if (pos_ >= instrs_.size()) return false;
    out = instrs_[pos_++];
    return true;
  }
  void reset() override { pos_ = 0; }

  std::size_t size() const { return instrs_.size(); }

 private:
  std::vector<Instr> instrs_;
  std::size_t pos_ = 0;
};

/// Wraps any source and caps it at `limit` instructions.
class LimitedTraceSource final : public TraceSource {
 public:
  LimitedTraceSource(TraceSource& inner, std::uint64_t limit)
      : inner_(inner), limit_(limit) {}

  bool next(Instr& out) override {
    if (count_ >= limit_) return false;
    if (!inner_.next(out)) return false;
    ++count_;
    return true;
  }
  void reset() override {
    inner_.reset();
    count_ = 0;
  }

 private:
  TraceSource& inner_;
  std::uint64_t limit_;
  std::uint64_t count_ = 0;
};

/// Rebases every memory address by a fixed offset.  The multicore simulator
/// uses this to give each core a disjoint address-space slice so workloads
/// contend for L2/DRAM *capacity and bandwidth* without aliasing lines
/// (multiprogrammed-mix methodology).
class OffsetTraceSource final : public TraceSource {
 public:
  OffsetTraceSource(TraceSource& inner, Addr offset)
      : inner_(inner), offset_(offset) {}

  bool next(Instr& out) override {
    if (!inner_.next(out)) return false;
    if (out.addr != kNoAddr) out.addr += offset_;
    return true;
  }
  void reset() override { inner_.reset(); }

 private:
  TraceSource& inner_;
  Addr offset_;
};

}  // namespace mapg

// Binary trace persistence + in-memory trace sources.
//
// Two on-disk format versions, both little-endian, both built from the same
// 11-byte record { u8 op, u16 dep_dist, u64 addr }:
//
//   MAPGTRC1 (this file):
//     8 bytes   magic "MAPGTRC1"
//     u64       record count
//     records   packed, contiguous, no index
//   MAPGTRC2 (trace_file.h):
//     chunked framing — magic "MAPGTRC2", header with total count, chunk
//     size, per-chunk record counts and payload digests, and a whole-stream
//     content digest used as the trace's cache identity.  Streamable and
//     seekable; the record encoding is unchanged, so converting between
//     versions preserves the instruction stream byte-for-byte.
//
// Error contract for v1 readers here (v2's streaming contract is documented
// on FileTraceSource in trace_file.h):
//   - read_trace / read_trace_file return false (with `error` filled when
//     given) on bad magic, a truncated header, a header count so large it
//     could only be corruption, an out-of-range op class, or a payload that
//     ends before the promised record count — a SHORT READ is malformed
//     input, never a silent short trace;
//   - end-of-trace is only ever signaled by TraceSource::next() returning
//     false after exactly the header's record count instructions; a v1 file
//     that parses successfully always yields its full count.
//   - write_trace backpatches the count header if the source ends early, so
//     a written file is always internally consistent.
//
// Used to freeze generator output for exact cross-run replay and to feed the
// simulator from externally captured traces (docs/TRACE.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/instr.h"

namespace mapg {

/// A bounded trace source with random access: the sampled-simulation layer
/// (src/sample) positions these at region starts, so both the in-memory
/// SharedTraceView and the streaming FileTraceSource (trace_file.h) qualify.
class SeekableTraceSource : public TraceSource {
 public:
  /// Position the cursor at an absolute instruction index; past-the-end
  /// clamps to the end (next() then returns false).
  virtual void seek(std::uint64_t pos) = 0;
  virtual std::uint64_t pos() const = 0;
  virtual std::uint64_t size() const = 0;
};

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

/// Serves instructions from an immutable shared buffer.  Many sources can
/// view the same materialized trace concurrently (each view carries its own
/// cursor), which is how the replay engine (src/replay) shares one trace
/// across every policy cell of a sweep group without copying it.
class SharedTraceView final : public SeekableTraceSource {
 public:
  explicit SharedTraceView(std::shared_ptr<const std::vector<Instr>> instrs)
      : instrs_(std::move(instrs)) {}

  bool next(Instr& out) override {
    if (pos_ >= instrs_->size()) return false;
    out = (*instrs_)[pos_++];
    return true;
  }
  void reset() override { pos_ = 0; }

  /// Position the cursor at an absolute instruction index (clamped to the
  /// buffer end).  Prefix-resume (src/replay/checkpoint.h) uses this to
  /// continue a run from a checkpoint's trace position instead of replaying
  /// the prefix through the core.
  void seek(std::uint64_t pos) override {
    pos_ = pos < instrs_->size() ? pos : instrs_->size();
  }
  std::uint64_t pos() const override { return pos_; }

  std::uint64_t size() const override { return instrs_->size(); }

 private:
  std::shared_ptr<const std::vector<Instr>> instrs_;
  std::uint64_t pos_ = 0;
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

/// Serialize `count` instructions pulled from `source`.  Returns the number
/// actually written (short if the source ends early).
std::uint64_t write_trace(std::ostream& os, TraceSource& source,
                          std::uint64_t count);

/// Deserialize a full trace.  Returns false on malformed input; on success
/// `out` holds the instructions.
bool read_trace(std::istream& is, std::vector<Instr>& out,
                std::string* error = nullptr);

/// Convenience file wrappers.
bool write_trace_file(const std::string& path, TraceSource& source,
                      std::uint64_t count, std::string* error = nullptr);
bool read_trace_file(const std::string& path, std::vector<Instr>& out,
                     std::string* error = nullptr);

}  // namespace mapg

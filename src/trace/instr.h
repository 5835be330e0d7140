// The dynamic-instruction record consumed by the core model.
//
// MAPG's gating opportunities are created by loads that miss to DRAM while
// the core has no independent work left, so the trace format carries exactly
// what determines stall structure: the op class (execution latency), the
// memory address (cache/DRAM behaviour), and the dependency distance (how
// soon a consumer blocks on a load's data).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"

namespace mapg {

enum class OpClass : std::uint8_t {
  kAlu = 0,     ///< 1-cycle integer op.
  kMul = 1,     ///< pipelined multiply, 3-cycle latency.
  kDiv = 2,     ///< unpipelined divide, 20-cycle latency.
  kFp = 3,      ///< pipelined FP op, 4-cycle latency.
  kLoad = 4,    ///< memory read; latency from the hierarchy.
  kStore = 5,   ///< memory write; retires via the write buffer.
  kBranch = 6,  ///< 1-cycle; mispredictions are folded into the ALU mix.
};

inline constexpr int kNumOpClasses = 7;

constexpr std::string_view op_class_name(OpClass op) {
  switch (op) {
    case OpClass::kAlu:
      return "alu";
    case OpClass::kMul:
      return "mul";
    case OpClass::kDiv:
      return "div";
    case OpClass::kFp:
      return "fp";
    case OpClass::kLoad:
      return "load";
    case OpClass::kStore:
      return "store";
    case OpClass::kBranch:
      return "branch";
  }
  return "?";
}

struct Instr {
  OpClass op = OpClass::kAlu;
  /// Byte address touched by kLoad/kStore; kNoAddr otherwise.
  Addr addr = kNoAddr;
  /// For kLoad: number of instructions after this one at which the first
  /// consumer of the loaded value appears (1 = the very next instruction).
  /// 0 means no consumer inside the scheduling window (prefetch-like).
  std::uint16_t dep_dist = 0;
};

/// A trace is a (possibly unbounded) stream of instructions.  Sources must
/// be deterministic under reset(): replaying yields the identical stream.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  /// Produce the next instruction.  Returns false at end-of-trace.
  virtual bool next(Instr& out) = 0;
  /// Rewind to the beginning of the stream.
  virtual void reset() = 0;
};

}  // namespace mapg

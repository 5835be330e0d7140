// Text-trace ingestion + capture-side cache filtering.
//
// Externally captured traces usually arrive as text: one memory access per
// line in ChampSim/Dinero-style notation.  The converters here turn those
// into Instr streams that write_trace_v2 can freeze, so a public trace
// becomes a first-class workload next to the synthetic generators.  Three
// dialects are recognized (docs/TRACE.md has examples):
//
//   rw:       `R <addr>` / `W <addr>` — addr parsed with base auto-detection
//             (0x… hex, 0… octal, else decimal); case-insensitive op letter.
//   dinero:   `<label> <addr>` — label 0 = read, 1 = write, 2 = ifetch
//             (dropped: the model has no I-side), addr always hex.
//   champsim: `<ip> <addr> <L|S>` — ChampSim-style text (CRC2 notation):
//             instruction pointer first (parsed for validation, then dropped
//             — no I-side), data address, then L (load) / S (store),
//             case-insensitive; both addresses hex with optional 0x prefix.
//
// Both skip blank lines and `#` comments and reject anything else with a
// line-numbered error.  Loads get a configurable dep_dist and each memory
// op can be padded with ALU filler to approximate a realistic memory-op
// density (text traces carry only the memory accesses).
//
// CacheFilter models a small capture-side L1: accesses that hit are
// rewritten to kAlu filler instead of being dropped, so the instruction
// count — and therefore region boundaries in sampled simulation — is
// preserved while the downstream model only sees the miss stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace_io.h"

namespace mapg {

/// Options shared by the text-format parsers.
struct ConvertOptions {
  /// dep_dist stamped on converted loads (how soon a consumer blocks).
  std::uint16_t dep_dist = 1;
  /// ALU filler instructions inserted after each converted memory op.
  std::uint64_t pad = 0;
};

/// Parse a text trace (dialect "rw", "dinero", or "champsim") into `out`.
/// Returns false with a line-numbered `error` on the first malformed line or
/// an unknown dialect name.
bool convert_text_trace(std::istream& is, const std::string& dialect,
                        const ConvertOptions& options,
                        std::vector<Instr>& out,
                        std::string* error = nullptr);

/// File wrapper around convert_text_trace.
bool convert_text_trace_file(const std::string& path,
                             const std::string& dialect,
                             const ConvertOptions& options,
                             std::vector<Instr>& out,
                             std::string* error = nullptr);

/// Set-associative LRU filter cache (capture-side L1 stand-in).
class CacheFilter {
 public:
  /// `size_bytes` must be a multiple of `line_bytes * ways`; rounded up to
  /// at least one set.
  CacheFilter(std::uint64_t size_bytes, std::uint64_t line_bytes,
              std::uint64_t ways);

  /// Look up (and install) a byte address.  Returns true on hit.
  bool access(Addr addr);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< access stamp; smallest is victim
    bool valid = false;
  };

  std::uint64_t line_shift_;
  std::uint64_t set_mask_;
  std::uint64_t ways_;
  std::vector<Way> ways_storage_;  ///< sets * ways, row-major by set
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Wraps a source and rewrites filter-cache hits to ALU filler (addr
/// cleared, dep_dist zeroed) so only the miss stream keeps its addresses.
/// Instruction count is preserved exactly — sampling region boundaries on a
/// filtered trace line up with the unfiltered capture.
class FilteredTraceSource final : public TraceSource {
 public:
  FilteredTraceSource(TraceSource& inner, CacheFilter& filter)
      : inner_(inner), filter_(filter) {}

  bool next(Instr& out) override;
  void reset() override { inner_.reset(); }

 private:
  TraceSource& inner_;
  CacheFilter& filter_;
};

}  // namespace mapg

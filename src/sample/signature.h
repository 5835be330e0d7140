// Per-region memory-access-vector signatures.
//
// Sampled simulation (planner.h) clusters fixed-size trace regions by
// behaviour; the signature is the feature vector that makes "behaviour"
// concrete.  Following the memory-access-vector idea (PAPERS.md,
// arXiv 2506.02344), each region is summarized by normalized histograms of
// exactly the stream properties that determine stall structure in this
// model (trace/instr.h): what the ops are, how soon loads block, where the
// addresses go, and how much of the footprint is re-touched.
//
//   dims  0..6   op-class mix        fraction of region instructions
//   dims  7..14  load dep_dist       log2 buckets (0, 1, 2-3, …, 64+),
//                                    normalized by load count
//   dims 15..23  mem-op line stride  successive line-address deltas:
//                                    {0, +1..2, +3..16, +17..256, +257+,
//                                     and the four negative mirrors},
//                                    normalized by delta count
//   dims 24..31  line reuse distance mem-ops since the line's previous
//                                    touch WITHIN the region, log2 buckets
//                                    (1, 2-3, 4-7, …, 128+), normalized by
//                                    mem-op count; first touches carry no
//                                    bucket (their mass is the remainder)
//
// Reuse state is cleared at every region boundary, so signature extraction
// streams with O(region footprint) memory and regions are position-
// independent: an on-disk trace's regions can be scanned in any order, on
// any number of threads (compute_file_signatures).  Auxiliary raw counts
// (mem ops, distinct lines, first-touch fraction) ride along for the
// projection's dispersion model (runner.h).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace_file.h"

namespace mapg {

inline constexpr std::size_t kSignatureDims = 32;

struct RegionSignature {
  std::uint64_t start = 0;   ///< absolute instruction index of first instr
  std::uint64_t length = 0;  ///< instructions in the region
  std::array<double, kSignatureDims> v{};  ///< normalized feature vector

  // Auxiliary per-region counts for the projection dispersion model.
  std::uint64_t mem_ops = 0;
  std::uint64_t distinct_lines = 0;
  double first_touch_fraction = 0;  ///< of mem ops (cold-miss proxy)

  /// Scalar work-intensity proxy: how much distinct memory traffic the
  /// region generates per instruction.  Used by the runner's CI model to
  /// score how far a region sits from its cluster representative.
  double aux_intensity() const {
    return length == 0
               ? 0.0
               : (static_cast<double>(distinct_lines) +
                  0.1 * static_cast<double>(mem_ops) + 1.0) /
                     static_cast<double>(length);
  }
};

/// Slice `trace` (from its current position to its end) into consecutive
/// regions of `region_instructions` and compute each region's signature.
/// The final region may be short; a trailing region shorter than 1% of the
/// nominal size is merged into its predecessor so degenerate slivers never
/// become cluster representatives.  `line_bytes` sets the address
/// granularity for stride/reuse features.
std::vector<RegionSignature> compute_region_signatures(
    TraceSource& trace, std::uint64_t region_instructions,
    std::uint64_t line_bytes = 64);

/// The same signatures for the WHOLE of an on-disk trace (seeks to 0 first,
/// leaves the cursor at the end), computed on up to `jobs` worker threads
/// with the --jobs meaning: 0 = every hardware thread, 1 = the serial scan
/// above on the calling thread.  Regions are independent (reuse state
/// clears at each boundary), so each worker seeks its own reader to a
/// region's start and scans it whole; the result is identical for every
/// `jobs`.  If regions fail to read (short read, chunk digest mismatch, bad
/// op class), the error of the lowest failing region is rethrown, which is
/// the one the serial scan meets first.
std::vector<RegionSignature> compute_file_signatures(
    FileTraceSource& trace, std::uint64_t region_instructions,
    std::uint64_t line_bytes, unsigned jobs);

/// L1 distance between two signature vectors (the clustering metric).
double signature_l1(const std::array<double, kSignatureDims>& a,
                    const std::array<double, kSignatureDims>& b);

// --- signature cache (MAPGSIG1) -------------------------------------------
//
// Signatures depend only on trace CONTENT (stream digest) and the slicing
// parameters — not on cluster count, seed, or policy — so they are computed
// once per trace and reused across every sampled run, SimPoint-BBV style.
// The cache file is little-endian binary:
//
//   offset  size  field
//   0       8     magic "MAPGSIG1"
//   8       8     u64 trace stream digest (FNV-1a64, trace_file.h)
//   16      8     u64 region_instructions
//   24      8     u64 line_bytes
//   32      8     u64 region count N
//   40      296*N per region: u64 start, u64 length, u64 mem_ops,
//                 u64 distinct_lines, f64 first_touch_fraction,
//                 f64 v[32]  (IEEE-754 bit patterns — reload is exact)
//
// Loaders REJECT (return nullopt) on any mismatch of magic, digest, or
// slicing parameters, so a stale cache can never silently shape a plan; a
// region count the file's bytes cannot hold is a miss too, never an
// allocation.

/// Write `sigs` to `path`.  Returns false (with `*error` set) on I/O error.
bool save_region_signatures(const std::string& path, std::uint64_t digest,
                            std::uint64_t region_instructions,
                            std::uint64_t line_bytes,
                            const std::vector<RegionSignature>& sigs,
                            std::string* error = nullptr);

/// Load signatures from `path` if it exists and its header matches the
/// given digest and slicing parameters exactly; nullopt otherwise (missing
/// file, stale digest, different slicing, or truncation).
std::optional<std::vector<RegionSignature>> load_region_signatures(
    const std::string& path, std::uint64_t digest,
    std::uint64_t region_instructions, std::uint64_t line_bytes);

}  // namespace mapg

// MAPGTRC2: chunked, streamable binary traces + the streaming file reader.
//
// MAPGTRC1 (trace_io.h) is a flat record dump: fine for the few-million-
// instruction traces the generator benches freeze, hopeless for the
// 50 M+-instruction captures sampled simulation ingests — a reader either
// materializes the whole file or loses random access.  MAPGTRC2 keeps the
// record encoding (11 bytes: u8 op, u16 dep_dist, u64 addr, little-endian)
// but adds a chunk index so a reader can stream with a one-chunk buffer,
// seek to any instruction in O(1), and detect payload corruption per chunk:
//
//   offset 0   8 bytes   magic "MAPGTRC2"
//          8   u64       total record count
//         16   u64       chunk_size (records per chunk; last may be short)
//         24   u64       n_chunks (== ceil(count / chunk_size))
//         32   u64       stream digest: FNV-1a64 over ALL record payload
//                        bytes in stream order (format/chunking independent —
//                        a converted MAPGTRC1 file keeps its digest)
//         40   index     n_chunks x { u64 payload_offset (absolute),
//                                     u64 record_count,
//                                     u64 chunk digest (FNV-1a64 over the
//                                         chunk's payload bytes) }
//          …   payloads  records, contiguous within each chunk
//
// A writer that cannot know the true record count up front (short source)
// reserves index space for the requested count and backpatches the header
// and index at the end; payload offsets are explicit, so readers never
// assume the payload region starts right after the valid index entries.
//
// The stream digest is the trace's *content identity*: the result cache
// keys trace-driven experiment cells by it (exec schema v7), so renaming or
// re-chunking a file never splits the cache, and editing one record always
// does.  See docs/TRACE.md for the full wire spec and error contract.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace_io.h"

namespace mapg {

/// Parsed header of an on-disk trace, either format version.
struct TraceFileInfo {
  int version = 0;               ///< 1 (MAPGTRC1) or 2 (MAPGTRC2)
  std::uint64_t records = 0;     ///< total instruction count
  std::uint64_t chunk_size = 0;  ///< records per chunk (v1: == records)
  std::uint64_t n_chunks = 0;    ///< v1: 1
  std::uint64_t stream_digest = 0;
  /// 16 lowercase hex chars of stream_digest — the cache-identity form.
  std::string digest_hex() const;
};

/// Default records per chunk (~704 KiB of payload): small enough that the
/// streaming buffer stays cache-friendly, large enough that the index is
/// negligible (24 bytes per ~64 K records).
inline constexpr std::uint64_t kTraceChunkRecords = 64 * 1024;

/// Serialize `count` instructions from `source` in MAPGTRC2 framing.
/// Returns the number actually written (short if the source ends early; the
/// header and index are backpatched to the true length).  The stream must
/// be seekable (a file, not a pipe).
std::uint64_t write_trace_v2(std::ostream& os, TraceSource& source,
                             std::uint64_t count,
                             std::uint64_t chunk_size = kTraceChunkRecords);

/// File wrapper; false + `error` on I/O failure.
bool write_trace_file_v2(const std::string& path, TraceSource& source,
                         std::uint64_t count, std::string* error = nullptr,
                         std::uint64_t chunk_size = kTraceChunkRecords);

/// Streaming reader for both on-disk formats.  Never materializes the
/// trace: v2 files are read one chunk at a time (each chunk's digest is
/// verified as it is loaded); v1 files are read through a fixed-size block
/// buffer (their stream digest is computed by a single scan at open, since
/// the v1 header carries none).
///
/// Error contract (documented field-for-field in docs/TRACE.md):
///  - the constructor throws std::runtime_error on open failure, bad magic,
///    a header that promises more payload than the file holds, or a
///    malformed/overflowing chunk index;
///  - next() returns false exactly at clean end-of-trace (info().records
///    instructions served) and throws std::runtime_error on a short read or
///    a chunk whose payload digest does not match its index entry;
///  - seek() past the end clamps to the end (next() then returns false),
///    matching SharedTraceView::seek.
class FileTraceSource final : public SeekableTraceSource {
 public:
  explicit FileTraceSource(const std::string& path);

  bool next(Instr& out) override;
  void reset() override { seek(0); }
  void seek(std::uint64_t pos) override;
  std::uint64_t pos() const override { return pos_; }
  std::uint64_t size() const override { return info_.records; }

  const TraceFileInfo& info() const { return info_; }
  const std::string& path() const { return path_; }

 private:
  struct ChunkMeta {
    std::uint64_t offset = 0;   ///< absolute payload offset
    std::uint64_t records = 0;
    std::uint64_t digest = 0;
  };

  void load_chunk(std::uint64_t chunk_index);

  std::string path_;
  std::ifstream is_;
  TraceFileInfo info_;
  std::vector<ChunkMeta> chunks_;

  std::vector<char> buf_;            ///< current chunk payload
  std::uint64_t buf_chunk_ = ~0ULL;  ///< chunk index held in buf_
  std::uint64_t buf_first_ = 0;      ///< absolute record index of buf_[0]
  std::uint64_t pos_ = 0;            ///< next record to serve
  /// Per-chunk "digest already verified" memo: a chunk is verified the
  /// first time it is loaded and trusted on every later reload, so
  /// seek-back patterns (sampled simulation revisiting warmup windows,
  /// sample/runner.cpp) pay the FNV scan once per chunk, not per visit.
  /// The file is assumed immutable while open — the same assumption the
  /// resident chunk buffer already makes.
  std::vector<char> verified_;
};

/// Compute the stream digest of an on-disk trace (either version) without
/// keeping it in memory: v2 answers from the header, v1 scans the payload.
/// False + `error` on unreadable/malformed input.
bool trace_file_digest(const std::string& path, std::uint64_t& digest,
                       std::string* error = nullptr);

/// FNV-1a64 over a byte range — the digest primitive shared by the writer,
/// the reader's per-chunk verification, and trace_file_digest.  `seed`
/// chains calls so a digest can be computed incrementally.
std::uint64_t trace_digest_update(const char* data, std::size_t len,
                                  std::uint64_t seed);
inline constexpr std::uint64_t kTraceDigestSeed = 14695981039346656037ULL;

/// 16-lowercase-hex-char rendering shared by TraceFileInfo::digest_hex and
/// everything that prints digests.
std::string trace_digest_hex(std::uint64_t digest);

}  // namespace mapg

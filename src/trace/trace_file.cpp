#include "trace/trace_file.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>

namespace mapg {
namespace {

constexpr std::array<char, 8> kMagic = {'M', 'A', 'P', 'G',
                                        'T', 'R', 'C', '2'};
constexpr std::size_t kRecordSize = 1 + 2 + 8;
constexpr std::size_t kHeaderSize = 8 + 4 * 8;  ///< magic + 4 u64 fields
constexpr std::size_t kIndexEntrySize = 3 * 8;
/// Defensive cap: refuse absurd headers rather than OOM.
constexpr std::uint64_t kMaxRecords = 1ULL << 40;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void put_u16(char* p, std::uint16_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
}

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[0]) |
      (static_cast<unsigned char>(p[1]) << 8));
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

void pack_record(char* rec, const Instr& instr) {
  rec[0] = static_cast<char>(instr.op);
  put_u16(rec + 1, instr.dep_dist);
  put_u64(rec + 3, instr.addr);
}

/// Decode one record; throws on an out-of-range op class (corruption the
/// chunk digest cannot catch when the digest entry itself was forged).
Instr unpack_record(const char* rec, std::uint64_t index) {
  const auto op = static_cast<unsigned char>(rec[0]);
  if (op >= kNumOpClasses)
    throw std::runtime_error("trace record " + std::to_string(index) +
                             ": bad op class " + std::to_string(op));
  Instr instr;
  instr.op = static_cast<OpClass>(op);
  instr.dep_dist = get_u16(rec + 1);
  instr.addr = get_u64(rec + 3);
  return instr;
}

/// Advance two FNV-1a64 chains over the same bytes in one pass (the
/// writer's chunk digest and stream digest).  The chains are independent,
/// so their multiplies overlap and the pair costs about one chain.
void trace_digest_update_pair(const char* data, std::size_t len,
                              std::uint64_t& a, std::uint64_t& b) {
  std::uint64_t ha = a, hb = b;  // locals: `data` may alias the references
  for (std::size_t i = 0; i < len; ++i) {
    const auto byte = static_cast<unsigned char>(data[i]);
    ha = (ha ^ byte) * kFnvPrime;
    hb = (hb ^ byte) * kFnvPrime;
  }
  a = ha;
  b = hb;
}

}  // namespace

std::uint64_t trace_digest_update(const char* data, std::size_t len,
                                  std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

std::string trace_digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string TraceFileInfo::digest_hex() const {
  return trace_digest_hex(stream_digest);
}

std::uint64_t write_trace_v2(std::ostream& os, TraceSource& source,
                             std::uint64_t count, std::uint64_t chunk_size) {
  if (chunk_size == 0) chunk_size = kTraceChunkRecords;
  const std::uint64_t reserved_chunks =
      count == 0 ? 0 : (count + chunk_size - 1) / chunk_size;
  const std::streampos base = os.tellp();

  // Placeholder header + index; backpatched once the true chunk layout is
  // known (the source may end early).  Payload offsets are explicit, so the
  // reserved-but-unused index tail is dead space, not a format violation.
  std::vector<char> zeros(kHeaderSize + reserved_chunks * kIndexEntrySize,
                          0);
  os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));

  struct Meta {
    std::uint64_t offset, records, digest;
  };
  std::vector<Meta> metas;
  metas.reserve(reserved_chunks);
  std::vector<char> payload(static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_size, count) * kRecordSize));

  std::uint64_t written = 0;
  std::uint64_t stream_digest = kTraceDigestSeed;
  Instr instr;
  while (written < count) {
    const std::uint64_t want = std::min(chunk_size, count - written);
    std::uint64_t got = 0;
    for (char* rec = payload.data(); got < want && source.next(instr);
         rec += kRecordSize, ++got)
      pack_record(rec, instr);
    if (got == 0) break;
    const std::size_t bytes = static_cast<std::size_t>(got * kRecordSize);
    Meta m;
    m.offset = static_cast<std::uint64_t>(os.tellp() - base) +
               static_cast<std::uint64_t>(base);
    m.records = got;
    m.digest = kTraceDigestSeed;
    trace_digest_update_pair(payload.data(), bytes, m.digest, stream_digest);
    metas.push_back(m);
    os.write(payload.data(), static_cast<std::streamsize>(bytes));
    written += got;
    if (got < want) break;  // source ended early
  }

  // Backpatch header + valid index entries.
  os.seekp(base);
  char header[kHeaderSize];
  std::copy(kMagic.begin(), kMagic.end(), header);
  put_u64(header + 8, written);
  put_u64(header + 16, chunk_size);
  put_u64(header + 24, metas.size());
  put_u64(header + 32, stream_digest);
  os.write(header, kHeaderSize);
  char entry[kIndexEntrySize];
  for (const Meta& m : metas) {
    put_u64(entry, m.offset);
    put_u64(entry + 8, m.records);
    put_u64(entry + 16, m.digest);
    os.write(entry, kIndexEntrySize);
  }
  os.seekp(0, std::ios::end);
  return written;
}

bool write_trace_file_v2(const std::string& path, TraceSource& source,
                         std::uint64_t count, std::string* error,
                         std::uint64_t chunk_size) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  write_trace_v2(os, source, count, chunk_size);
  os.flush();
  if (!os) {
    if (error) *error = "write failure on " + path;
    return false;
  }
  return true;
}

FileTraceSource::FileTraceSource(const std::string& path)
    : path_(path), is_(path, std::ios::binary) {
  if (!is_) throw std::runtime_error("cannot open trace file " + path);
  is_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is_.tellg());
  is_.seekg(0);

  std::array<char, 8> magic{};
  is_.read(magic.data(), magic.size());
  if (!is_ || magic != kMagic)
    throw std::runtime_error(path + ": not a MAPGTRC2 trace (bad magic)");
  char header[kHeaderSize - 8];
  is_.read(header, sizeof header);
  if (!is_) throw std::runtime_error(path + ": truncated MAPGTRC2 header");
  info_.records = get_u64(header);
  info_.chunk_size = get_u64(header + 8);
  info_.n_chunks = get_u64(header + 16);
  info_.stream_digest = get_u64(header + 24);
  if (info_.records > kMaxRecords || info_.chunk_size == 0 ||
      info_.n_chunks > (info_.records / info_.chunk_size) + 1)
    throw std::runtime_error(path + ": malformed MAPGTRC2 header");
  // The header is untrusted: bound the index by the bytes actually present
  // before it sizes anything.
  if (info_.n_chunks > (file_size - kHeaderSize) / kIndexEntrySize)
    throw std::runtime_error(path + ": chunk index of " +
                             std::to_string(info_.n_chunks) +
                             " entries does not fit in the file");

  chunks_.resize(info_.n_chunks);
  std::vector<char> index(info_.n_chunks * kIndexEntrySize);
  is_.read(index.data(), static_cast<std::streamsize>(index.size()));
  if (!is_) throw std::runtime_error(path + ": truncated chunk index");
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < info_.n_chunks; ++i) {
    const char* e = index.data() + i * kIndexEntrySize;
    chunks_[i].offset = get_u64(e);
    chunks_[i].records = get_u64(e + 8);
    chunks_[i].digest = get_u64(e + 16);
    // next() finds record p in chunk p / chunk_size, so every chunk but the
    // last must be full; a short one would serve bytes past its payload.
    if (chunks_[i].records == 0 || chunks_[i].records > info_.chunk_size ||
        (i + 1 < info_.n_chunks && chunks_[i].records != info_.chunk_size))
      throw std::runtime_error(path + ": malformed chunk index entry " +
                               std::to_string(i));
    // offset + records * kRecordSize > file_size, without wrapping.
    if (chunks_[i].records > file_size / kRecordSize ||
        chunks_[i].offset > file_size - chunks_[i].records * kRecordSize)
      throw std::runtime_error(path + ": chunk " + std::to_string(i) +
                               " extends past end of file");
    total += chunks_[i].records;
  }
  if (total != info_.records)
    throw std::runtime_error(
        path + ": chunk index records disagree with header count");
  verified_.assign(chunks_.size(), 0);
  // Size the chunk buffer here, on the constructing thread, for the largest
  // chunk (each one was just checked to fit in the file).  A reader built on
  // one thread and read on another (the parallel signature scan,
  // sample/signature.h) then never allocates it on the reading thread,
  // whose glibc arena would keep it after the reader is gone.
  std::uint64_t largest = 0;
  for (const ChunkMeta& c : chunks_) largest = std::max(largest, c.records);
  buf_.reserve(static_cast<std::size_t>(largest * kRecordSize));
}

void FileTraceSource::load_chunk(std::uint64_t chunk_index) {
  const ChunkMeta& m = chunks_.at(chunk_index);
  buf_chunk_ = ~0ULL;  // a load that throws leaves no chunk resident
  buf_.resize(static_cast<std::size_t>(m.records * kRecordSize));
  is_.clear();
  is_.seekg(static_cast<std::streamoff>(m.offset));
  is_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  if (!is_)
    throw std::runtime_error(path_ + ": short read in chunk " +
                             std::to_string(chunk_index));
  // Digest-check each chunk once: revisits (sampled simulation seeking back
  // into warmup windows) reload the bytes but skip the FNV scan.
  if (!verified_[chunk_index]) {
    const std::uint64_t digest =
        trace_digest_update(buf_.data(), buf_.size(), kTraceDigestSeed);
    if (digest != m.digest)
      throw std::runtime_error(path_ + ": chunk " +
                               std::to_string(chunk_index) +
                               " payload digest mismatch (corrupt trace)");
    verified_[chunk_index] = 1;
  }
  buf_chunk_ = chunk_index;
  // Chunks are full except possibly the last, so the first absolute record
  // of chunk i is i * chunk_size.
  buf_first_ = chunk_index * info_.chunk_size;
}

bool FileTraceSource::next(Instr& out) {
  if (pos_ >= info_.records) return false;
  const std::uint64_t chunk = pos_ / info_.chunk_size;
  if (chunk != buf_chunk_) load_chunk(chunk);
  const std::uint64_t local = pos_ - buf_first_;
  out = unpack_record(buf_.data() + local * kRecordSize, pos_);
  ++pos_;
  return true;
}

void FileTraceSource::seek(std::uint64_t pos) {
  pos_ = std::min(pos, info_.records);
}

TraceReaders::TraceReaders(FileTraceSource& trace, unsigned workers)
    : trace_(trace) {
  for (unsigned w = 1; w < workers; ++w) {
    own_.push_back(std::make_unique<FileTraceSource>(trace.path()));
    if (own_.back()->info().stream_digest != trace.info().stream_digest)
      throw std::runtime_error(trace.path() +
                               ": content changed while the trace was open");
  }
}

}  // namespace mapg

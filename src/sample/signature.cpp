#include "sample/signature.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

#include "exec/thread_pool.h"

namespace mapg {
namespace {

/// Open-addressing line -> last-mem-op-index map.  The reuse-distance
/// feature touches this once per memory op, which makes it the hot path of
/// the whole signature scan; a flat linear-probe table with O(1)
/// epoch-based clearing is severalfold faster than node-based hashing and
/// is why planning a 50M-instruction trace stays in scan-bound territory.
class LineMap {
 public:
  LineMap() { rehash(1 << 12); }

  void clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // epoch wrapped: invalidate every slot for real
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  std::size_t size() const { return size_; }

  /// Insert `line -> idx`; if the line was already present, store the
  /// previous index in `*prev` and return false (not a first touch).
  bool touch(std::uint64_t line, std::uint64_t idx, std::uint64_t* prev) {
    if (size_ * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t i = hash(line) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.key = line;
        s.val = idx;
        s.epoch = epoch_;
        ++size_;
        return true;
      }
      if (s.key == line) {
        *prev = s.val;
        s.val = idx;
        return false;
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t val = 0;
    std::uint32_t epoch = 0;  ///< occupied iff == current epoch
  };

  static std::size_t hash(std::uint64_t k) {
    k *= 0x9E3779B97F4A7C15ULL;  // Fibonacci multiplier, then fold high bits
    return static_cast<std::size_t>(k ^ (k >> 32));
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    const std::uint32_t live = epoch_;
    epoch_ = 1;
    size_ = 0;
    std::uint64_t ignored;
    for (const Slot& s : old)
      if (s.epoch == live) touch(s.key, s.val, &ignored);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

constexpr std::size_t kOpBase = 0;      // 7 dims
constexpr std::size_t kDepBase = 7;     // 8 dims
constexpr std::size_t kStrideBase = 15; // 9 dims
constexpr std::size_t kReuseBase = 24;  // 8 dims

std::size_t log2_bucket(std::uint64_t value, std::size_t buckets) {
  // value >= 1 -> floor(log2(value)) clamped to the last bucket.
  std::size_t b = 0;
  while (value > 1 && b + 1 < buckets) {
    value >>= 1;
    ++b;
  }
  return b;
}

/// dep_dist buckets: 0 (no consumer in window), then log2 classes of the
/// distance (1, 2-3, 4-7, 8-15, 16-31, 32-63, 64+).
std::size_t dep_bucket(std::uint16_t dep) {
  if (dep == 0) return 0;
  return 1 + log2_bucket(dep, 7);
}

/// Stride buckets over successive mem-op line deltas: 0, then four
/// magnitude classes per direction (|d| in 1-2, 3-16, 17-256, 257+).
std::size_t stride_bucket(std::int64_t delta) {
  if (delta == 0) return 0;
  const std::uint64_t mag =
      delta > 0 ? static_cast<std::uint64_t>(delta)
                : static_cast<std::uint64_t>(-delta);
  std::size_t cls;
  if (mag <= 2)
    cls = 0;
  else if (mag <= 16)
    cls = 1;
  else if (mag <= 256)
    cls = 2;
  else
    cls = 3;
  return delta > 0 ? 1 + cls : 5 + cls;
}

/// Reuse buckets over mem-ops-since-last-touch (>= 1): log2 classes
/// (1, 2-3, 4-7, 8-15, 16-31, 32-63, 64-127, 128+).
std::size_t reuse_bucket(std::uint64_t dist) { return log2_bucket(dist, 8); }

struct RegionAccum {
  std::array<std::uint64_t, kNumOpClasses> ops{};
  std::array<std::uint64_t, 8> dep{};
  std::array<std::uint64_t, 9> stride{};
  std::array<std::uint64_t, 8> reuse{};
  std::uint64_t loads = 0, mem_ops = 0, deltas = 0, first_touches = 0;
  LineMap last_seen;  ///< line -> mem-op idx of last touch
  bool have_prev_line = false;
  std::uint64_t prev_line = 0;

  void reset() {
    ops.fill(0);
    dep.fill(0);
    stride.fill(0);
    reuse.fill(0);
    loads = mem_ops = deltas = first_touches = 0;
    last_seen.clear();
    have_prev_line = false;
    prev_line = 0;
  }

  void add(const Instr& instr, std::uint64_t line_shift) {
    ops[static_cast<std::size_t>(instr.op)]++;
    if (instr.op == OpClass::kLoad) {
      ++loads;
      dep[dep_bucket(instr.dep_dist)]++;
    }
    const bool is_mem = (instr.op == OpClass::kLoad ||
                         instr.op == OpClass::kStore) &&
                        instr.addr != kNoAddr;
    if (!is_mem) return;
    const std::uint64_t line = instr.addr >> line_shift;
    if (have_prev_line) {
      ++deltas;
      stride[stride_bucket(static_cast<std::int64_t>(line) -
                           static_cast<std::int64_t>(prev_line))]++;
    }
    prev_line = line;
    have_prev_line = true;
    std::uint64_t prev = 0;
    if (last_seen.touch(line, mem_ops, &prev)) {
      ++first_touches;
    } else {
      reuse[reuse_bucket(mem_ops - prev)]++;
    }
    ++mem_ops;
  }

  RegionSignature finish(std::uint64_t start, std::uint64_t length) const {
    RegionSignature sig;
    sig.start = start;
    sig.length = length;
    const double n = length ? static_cast<double>(length) : 1.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(kNumOpClasses); ++i)
      sig.v[kOpBase + i] = static_cast<double>(ops[i]) / n;
    const double nl = loads ? static_cast<double>(loads) : 1.0;
    for (std::size_t i = 0; i < dep.size(); ++i)
      sig.v[kDepBase + i] = static_cast<double>(dep[i]) / nl;
    const double nd = deltas ? static_cast<double>(deltas) : 1.0;
    for (std::size_t i = 0; i < stride.size(); ++i)
      sig.v[kStrideBase + i] = static_cast<double>(stride[i]) / nd;
    const double nm = mem_ops ? static_cast<double>(mem_ops) : 1.0;
    for (std::size_t i = 0; i < reuse.size(); ++i)
      sig.v[kReuseBase + i] = static_cast<double>(reuse[i]) / nm;
    sig.mem_ops = mem_ops;
    sig.distinct_lines = last_seen.size();
    sig.first_touch_fraction =
        mem_ops ? static_cast<double>(first_touches) / nm : 0.0;
    return sig;
  }
};

std::uint64_t line_shift_for(std::uint64_t line_bytes) {
  std::uint64_t line_shift = 0;
  while ((1ULL << line_shift) < line_bytes) ++line_shift;
  return line_shift;
}

/// The one per-region scan behind both signature passes: reset `acc`, feed
/// it the next (up to) `limit` instructions of `trace`, and return how many
/// there were.
std::uint64_t scan_region(TraceSource& trace, std::uint64_t limit,
                          std::uint64_t line_shift, RegionAccum& acc) {
  acc.reset();
  std::uint64_t n = 0;
  Instr instr;
  while (n < limit && trace.next(instr)) {
    acc.add(instr, line_shift);
    ++n;
  }
  return n;
}

/// A trailing sliver (< 1% of nominal) would make a meaningless
/// representative, so when there is a predecessor to absorb its weight it
/// is folded into that region's length.
void merge_trailing_sliver(std::vector<RegionSignature>& sigs,
                           std::uint64_t region_instructions) {
  if (sigs.size() >= 2 && sigs.back().length < region_instructions / 100) {
    sigs[sigs.size() - 2].length += sigs.back().length;
    sigs.pop_back();
  }
}

}  // namespace

std::vector<RegionSignature> compute_region_signatures(
    TraceSource& trace, std::uint64_t region_instructions,
    std::uint64_t line_bytes) {
  if (region_instructions == 0) region_instructions = 1;
  const std::uint64_t line_shift = line_shift_for(line_bytes);
  std::vector<RegionSignature> out;
  RegionAccum acc;
  for (std::uint64_t start = 0;; start += region_instructions) {
    const std::uint64_t n =
        scan_region(trace, region_instructions, line_shift, acc);
    if (n > 0) out.push_back(acc.finish(start, n));
    if (n < region_instructions) break;
  }
  merge_trailing_sliver(out, region_instructions);
  return out;
}

std::vector<RegionSignature> compute_file_signatures(
    FileTraceSource& trace, std::uint64_t region_instructions,
    std::uint64_t line_bytes, unsigned jobs) {
  if (region_instructions == 0) region_instructions = 1;
  const std::uint64_t total = trace.size();
  const std::uint64_t regions = total / region_instructions +
                                (total % region_instructions != 0 ? 1 : 0);
  const unsigned workers = ThreadPool::workers_for(jobs, regions);
  trace.seek(0);
  if (workers <= 1)
    return compute_region_signatures(trace, region_instructions, line_bytes);

  // Each worker scans through its own reader (worker 0 through the
  // caller's) into one reused accumulator; both are built here, on the
  // calling thread (exec/thread_pool.h).  A region accumulator's line map
  // still grows where it scans.
  TraceReaders readers(trace, workers);
  std::vector<RegionAccum> accs(workers);
  const std::uint64_t line_shift = line_shift_for(line_bytes);

  std::vector<RegionSignature> out(regions);
  // A damaged trace raises the error of its lowest failing region, the one
  // the serial scan stops at.
  for_each_claimed(regions, workers, [&](std::size_t r, unsigned w) {
    const std::uint64_t start = r * region_instructions;
    const std::uint64_t length = std::min(region_instructions, total - start);
    readers[w].seek(start);
    scan_region(readers[w], length, line_shift, accs[w]);
    out[r] = accs[w].finish(start, length);
  });
  merge_trailing_sliver(out, region_instructions);
  trace.seek(total);  // leave the cursor where the serial scan does
  return out;
}

double signature_l1(const std::array<double, kSignatureDims>& a,
                    const std::array<double, kSignatureDims>& b) {
  double d = 0;
  for (std::size_t i = 0; i < kSignatureDims; ++i) d += std::abs(a[i] - b[i]);
  return d;
}

namespace {

constexpr char kSigMagic[8] = {'M', 'A', 'P', 'G', 'S', 'I', 'G', '1'};
constexpr std::size_t kSigHeaderBytes = sizeof(kSigMagic) + 4 * 8;
/// start, length, mem_ops, distinct_lines, first_touch_fraction, v[].
constexpr std::size_t kSigRecordBytes = 5 * 8 + kSignatureDims * 8;

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

bool get_u64(const std::string& in, std::size_t& pos, std::uint64_t* v) {
  if (pos + 8 > in.size()) return false;
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i)
    r |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  pos += 8;
  *v = r;
  return true;
}

bool get_f64(const std::string& in, std::size_t& pos, double* v) {
  std::uint64_t bits;
  if (!get_u64(in, pos, &bits)) return false;
  std::memcpy(v, &bits, 8);
  return true;
}

}  // namespace

bool save_region_signatures(const std::string& path, std::uint64_t digest,
                            std::uint64_t region_instructions,
                            std::uint64_t line_bytes,
                            const std::vector<RegionSignature>& sigs,
                            std::string* error) {
  std::string buf;
  buf.reserve(kSigHeaderBytes + sigs.size() * kSigRecordBytes);
  buf.append(kSigMagic, sizeof(kSigMagic));
  put_u64(buf, digest);
  put_u64(buf, region_instructions);
  put_u64(buf, line_bytes);
  put_u64(buf, sigs.size());
  for (const RegionSignature& s : sigs) {
    put_u64(buf, s.start);
    put_u64(buf, s.length);
    put_u64(buf, s.mem_ops);
    put_u64(buf, s.distinct_lines);
    put_f64(buf, s.first_touch_fraction);
    for (double d : s.v) put_f64(buf, d);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.flush();
  if (!out) {
    if (error) *error = "cannot write signature cache '" + path + "'";
    return false;
  }
  return true;
}

std::optional<std::vector<RegionSignature>> load_region_signatures(
    const std::string& path, std::uint64_t digest,
    std::uint64_t region_instructions, std::uint64_t line_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (buf.size() < kSigHeaderBytes ||
      std::memcmp(buf.data(), kSigMagic, sizeof(kSigMagic)) != 0)
    return std::nullopt;
  std::size_t pos = sizeof(kSigMagic);
  std::uint64_t got_digest, got_region, got_line, count;
  if (!get_u64(buf, pos, &got_digest) || !get_u64(buf, pos, &got_region) ||
      !get_u64(buf, pos, &got_line) || !get_u64(buf, pos, &count))
    return std::nullopt;
  // Any header mismatch means the cache describes a DIFFERENT slicing of a
  // DIFFERENT stream: reject, never adapt.
  if (got_digest != digest || got_region != region_instructions ||
      got_line != line_bytes)
    return std::nullopt;
  // The count is untrusted: one the remaining bytes cannot hold is a
  // damaged cache (a miss to rescan), and must never size an allocation.
  if (count > (buf.size() - pos) / kSigRecordBytes) return std::nullopt;
  std::vector<RegionSignature> sigs;
  sigs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    RegionSignature s;
    if (!get_u64(buf, pos, &s.start) || !get_u64(buf, pos, &s.length) ||
        !get_u64(buf, pos, &s.mem_ops) ||
        !get_u64(buf, pos, &s.distinct_lines) ||
        !get_f64(buf, pos, &s.first_touch_fraction))
      return std::nullopt;
    for (double& d : s.v)
      if (!get_f64(buf, pos, &d)) return std::nullopt;
    sigs.push_back(s);
  }
  if (pos != buf.size()) return std::nullopt;  // trailing garbage
  return sigs;
}

}  // namespace mapg

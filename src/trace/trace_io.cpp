#include "trace/trace_io.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace mapg {
namespace {

constexpr std::array<char, 8> kMagic = {'M', 'A', 'P', 'G',
                                        'T', 'R', 'C', '1'};
constexpr std::size_t kRecordSize = 1 + 2 + 8;

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

/// Whole records left between the read position and the end of `is`; 0
/// when the stream cannot seek (a pipe) and so cannot say.
std::uint64_t records_left(std::istream& is) {
  const std::streampos here = is.tellg();
  if (here == std::streampos(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.clear();
  is.seekg(here);
  const std::streamoff left = end == std::streampos(-1) ? 0 : end - here;
  return left > 0 ? static_cast<std::uint64_t>(left) / kRecordSize : 0;
}

}  // namespace

std::uint64_t write_trace(std::ostream& os, TraceSource& source,
                          std::uint64_t count) {
  os.write(kMagic.data(), kMagic.size());
  const auto count_pos = os.tellp();
  char header[8];
  put_u64(header, count);
  os.write(header, 8);

  std::uint64_t written = 0;
  char rec[kRecordSize];
  Instr instr;
  while (written < count && source.next(instr)) {
    rec[0] = static_cast<char>(instr.op);
    put_u16(rec + 1, instr.dep_dist);
    put_u64(rec + 3, instr.addr);
    os.write(rec, kRecordSize);
    ++written;
  }
  if (written != count && count_pos != std::streampos(-1)) {
    // Source ended early: rewrite the count header to the true length.
    os.seekp(count_pos);
    put_u64(header, written);
    os.write(header, 8);
    os.seekp(0, std::ios::end);
  }
  return written;
}

bool read_trace(std::istream& is, std::vector<Instr>& out, std::string* error) {
  std::array<char, 8> magic{};
  is.read(magic.data(), magic.size());
  if (!is || magic != kMagic) {
    if (error) *error = "bad magic";
    return false;
  }
  char header[8];
  is.read(header, 8);
  if (!is) {
    if (error) *error = "truncated header";
    return false;
  }
  const std::uint64_t count = get_u64(header);
  // Defensive cap: refuse absurd headers rather than bad_alloc.
  if (count > (1ULL << 32)) {
    if (error) *error = "record count too large";
    return false;
  }
  out.clear();
  // The count is untrusted: reserve only what the stream actually holds, so
  // a short file claiming billions of records fails at its first missing
  // record below instead of in the allocator.
  out.reserve(static_cast<std::size_t>(std::min(count, records_left(is))));
  char rec[kRecordSize];
  for (std::uint64_t i = 0; i < count; ++i) {
    is.read(rec, kRecordSize);
    if (!is) {
      if (error) *error = "truncated at record " + std::to_string(i);
      return false;
    }
    Instr instr;
    const auto op = static_cast<unsigned char>(rec[0]);
    if (op >= kNumOpClasses) {
      if (error) *error = "bad op class at record " + std::to_string(i);
      return false;
    }
    instr.op = static_cast<OpClass>(op);
    instr.dep_dist = get_u16(rec + 1);
    instr.addr = get_u64(rec + 3);
    out.push_back(instr);
  }
  return true;
}

bool write_trace_file(const std::string& path, TraceSource& source,
                      std::uint64_t count, std::string* error) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  write_trace(os, source, count);
  os.flush();
  if (!os) {
    if (error) *error = "write failure on " + path;
    return false;
  }
  return true;
}

bool read_trace_file(const std::string& path, std::vector<Instr>& out,
                     std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  return read_trace(is, out, error);
}

}  // namespace mapg

#include "trace/convert.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mapg {
namespace {

/// An address is unsigned and never the kNoAddr sentinel (strtoull would
/// negate a leading '-' into an address near 2^64).
bool parse_addr(const std::string& tok, int base, Addr& out) {
  if (tok.empty() || tok[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
  if (errno != 0 || end == tok.c_str() || *end != '\0' || v == kNoAddr)
    return false;
  out = static_cast<Addr>(v);
  return true;
}

void emit(std::vector<Instr>& out, OpClass op, Addr addr,
          const ConvertOptions& options) {
  Instr instr;
  instr.op = op;
  instr.addr = addr;
  instr.dep_dist = op == OpClass::kLoad ? options.dep_dist : 0;
  out.push_back(instr);
  for (std::uint64_t i = 0; i < options.pad; ++i) out.push_back(Instr{});
}

bool fail(std::string* error, std::uint64_t line_no, const std::string& why) {
  if (error)
    *error = "line " + std::to_string(line_no) + ": " + why;
  return false;
}

}  // namespace

bool convert_text_trace(std::istream& is, const std::string& dialect,
                        const ConvertOptions& options,
                        std::vector<Instr>& out, std::string* error) {
  const bool rw = dialect == "rw";
  const bool champsim = dialect == "champsim";
  if (!rw && !champsim && dialect != "dinero") {
    if (error) *error = "unknown trace dialect '" + dialect + "'";
    return false;
  }
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string op_tok, addr_tok;
    if (!(ls >> op_tok)) continue;  // blank line
    if (op_tok[0] == '#') continue;
    if (!(ls >> addr_tok))
      return fail(error, line_no, "missing address after '" + op_tok + "'");

    if (champsim) {
      // `<ip> <addr> <L|S>`: the IP is validated, then dropped (no I-side).
      std::string type_tok;
      if (!(ls >> type_tok))
        return fail(error, line_no,
                    "missing access type after '" + addr_tok + "'");
      std::string extra;
      if (ls >> extra && extra[0] != '#')
        return fail(error, line_no, "trailing token '" + extra + "'");
      Addr ip = 0;
      Addr addr = 0;
      if (!parse_addr(op_tok, 16, ip))
        return fail(error, line_no,
                    "bad hex instruction pointer '" + op_tok + "'");
      if (!parse_addr(addr_tok, 16, addr))
        return fail(error, line_no, "bad hex address '" + addr_tok + "'");
      if (type_tok.size() != 1)
        return fail(error, line_no,
                    "access type must be L or S, got '" + type_tok + "'");
      const char t = static_cast<char>(
          std::toupper(static_cast<unsigned char>(type_tok[0])));
      if (t != 'L' && t != 'S')
        return fail(error, line_no,
                    "access type must be L or S, got '" + type_tok + "'");
      emit(out, t == 'L' ? OpClass::kLoad : OpClass::kStore, addr, options);
      continue;
    }

    std::string extra;
    if (ls >> extra && extra[0] != '#')
      return fail(error, line_no, "trailing token '" + extra + "'");

    Addr addr = 0;
    if (rw) {
      if (op_tok.size() != 1)
        return fail(error, line_no, "op must be R or W, got '" + op_tok + "'");
      const char op = static_cast<char>(
          std::toupper(static_cast<unsigned char>(op_tok[0])));
      if (op != 'R' && op != 'W')
        return fail(error, line_no, "op must be R or W, got '" + op_tok + "'");
      if (!parse_addr(addr_tok, 0, addr))
        return fail(error, line_no, "bad address '" + addr_tok + "'");
      emit(out, op == 'R' ? OpClass::kLoad : OpClass::kStore, addr, options);
    } else {
      if (op_tok != "0" && op_tok != "1" && op_tok != "2")
        return fail(error, line_no,
                    "label must be 0, 1, or 2, got '" + op_tok + "'");
      if (!parse_addr(addr_tok, 16, addr))
        return fail(error, line_no, "bad hex address '" + addr_tok + "'");
      if (op_tok == "2") continue;  // ifetch: no I-side in the model
      emit(out, op_tok == "0" ? OpClass::kLoad : OpClass::kStore, addr,
           options);
    }
  }
  return true;
}

bool convert_text_trace_file(const std::string& path,
                             const std::string& dialect,
                             const ConvertOptions& options,
                             std::vector<Instr>& out, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  return convert_text_trace(is, dialect, options, out, error);
}

CacheFilter::CacheFilter(std::uint64_t size_bytes, std::uint64_t line_bytes,
                         std::uint64_t ways)
    : line_shift_(0), ways_(ways == 0 ? 1 : ways) {
  if (line_bytes < 1) line_bytes = 1;
  while ((1ULL << line_shift_) < line_bytes) ++line_shift_;
  std::uint64_t sets = size_bytes / ((1ULL << line_shift_) * ways_);
  std::uint64_t pow2_sets = 1;
  while (pow2_sets < sets) pow2_sets <<= 1;
  set_mask_ = pow2_sets - 1;
  ways_storage_.resize(pow2_sets * ways_);
}

bool CacheFilter::access(Addr addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t set = line & set_mask_;
  Way* base = &ways_storage_[set * ways_];
  ++stamp_;
  for (std::uint64_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == line) {
      base[w].lru = stamp_;
      ++hits_;
      return true;
    }
  }
  Way* victim = base;
  for (std::uint64_t w = 1; w < ways_; ++w) {
    if (!victim->valid) break;
    if (!base[w].valid || base[w].lru < victim->lru) victim = &base[w];
  }
  victim->valid = true;
  victim->tag = line;
  victim->lru = stamp_;
  ++misses_;
  return false;
}

bool FilteredTraceSource::next(Instr& out) {
  if (!inner_.next(out)) return false;
  if (out.addr != kNoAddr &&
      (out.op == OpClass::kLoad || out.op == OpClass::kStore) &&
      filter_.access(out.addr)) {
    out.op = OpClass::kAlu;
    out.addr = kNoAddr;
    out.dep_dist = 0;
  }
  return true;
}

}  // namespace mapg

// Trace ingestion + sampled simulation suite (docs/TRACE.md).
//
// Pins the contracts the sampling pipeline is allowed to claim: chunking
// changes neither the stored stream nor its content digest, the reader
// throws on damage instead of reporting a short trace or over-allocating,
// the text converters produce exactly the documented records, plans are
// deterministic functions of (content, config) — across runs, thread
// counts, and the MAPGSIG1 signature cache — and the degenerate
// clusters >= regions case is bit-identical to full simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exec/engine.h"
#include "exec/serialize.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "sample/runner.h"
#include "trace/convert.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/staged_source.h"
#include "trace/trace_file.h"

namespace mapg {
namespace {

/// Temp path under the build dir's cwd, unique per test and process:
/// ctest -j runs every test as its own process in the same directory.
std::string tmp_path(const std::string& stem) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string("test_sampling_") + test->name() + "_" +
         std::to_string(::getpid()) + "_" + stem + ".tmp";
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<Instr> generate(const std::string& workload, std::uint64_t n,
                            std::uint64_t seed = 42) {
  TraceGenerator gen(*find_profile(workload), seed);
  std::vector<Instr> out;
  out.reserve(n);
  Instr instr;
  for (std::uint64_t i = 0; i < n && gen.next(instr); ++i)
    out.push_back(instr);
  return out;
}

std::vector<Instr> read_all(const std::string& path) {
  FileTraceSource src(path);
  std::vector<Instr> out;
  Instr instr;
  while (src.next(instr)) out.push_back(instr);
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Little-endian u64 access into raw file bytes, for forging headers.
std::uint64_t le64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;)
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  return v;
}

void put_le64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// What FileTraceSource's constructor throws for `path`; "" if it opens.
std::string open_error(const std::string& path) {
  try {
    FileTraceSource src(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

bool same_stream(const std::vector<Instr>& a, const std::vector<Instr>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].op != b[i].op || a[i].addr != b[i].addr ||
        a[i].dep_dist != b[i].dep_dist)
      return false;
  return true;
}

std::string dump(const SimResult& r) { return result_to_json(r).dump(); }

// --- formats ---------------------------------------------------------------

TEST(TraceFile, V1AndV2CarryTheIdenticalStreamAndDigest) {
  // Chunking is framing, not content: neither the chunk size nor a source
  // that ends before the requested count (the writer then leaves its
  // reserved index tail unused) may change the stream or the digest.
  const std::vector<Instr> ref = generate("mcf-like", 200'000);
  TempFile whole(tmp_path("whole")), small(tmp_path("small")),
      cut(tmp_path("short"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(whole.path, s, ref.size()));
  }
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(small.path, s, ref.size(), nullptr,
                                    /*chunk_size=*/1000));
  }
  {
    VectorTraceSource s(ref);
    std::ofstream os(cut.path, std::ios::binary);
    EXPECT_EQ(write_trace_v2(os, s, ref.size() + 50'000, 1000), ref.size());
  }
  EXPECT_TRUE(same_stream(ref, read_all(whole.path)));
  EXPECT_TRUE(same_stream(ref, read_all(small.path)));
  EXPECT_TRUE(same_stream(ref, read_all(cut.path)));

  FileTraceSource a(whole.path), b(small.path), c(cut.path);
  EXPECT_EQ(a.info().stream_digest, b.info().stream_digest);
  EXPECT_EQ(b.info().stream_digest, c.info().stream_digest);
  EXPECT_EQ(b.info().n_chunks, (ref.size() + 999) / 1000);
  // The short write counts only what it wrote, behind 50 unused entries.
  EXPECT_EQ(c.info().records, ref.size());
  EXPECT_EQ(c.info().n_chunks, b.info().n_chunks);
  EXPECT_EQ(file_bytes(cut.path).size(),
            file_bytes(small.path).size() + 50 * 24);
}

TEST(TraceFile, SeekWindowMatchesMaterializedSlice) {
  const std::vector<Instr> ref = generate("omnetpp-like", 50'000);
  TempFile f(tmp_path("seek"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 4096));
  }
  FileTraceSource src(f.path);
  src.seek(17'500);  // mid-chunk, several chunks in
  LimitedTraceSource window(src, 1'000);
  Instr instr;
  std::size_t i = 17'500;
  while (window.next(instr)) {
    ASSERT_LT(i, ref.size());
    EXPECT_EQ(instr.addr, ref[i].addr);
    EXPECT_EQ(instr.op, ref[i].op);
    ++i;
  }
  EXPECT_EQ(i, 18'500u);
  src.seek(ref.size() + 10);  // past-end clamps to a clean EOF
  EXPECT_FALSE(src.next(instr));
}

TEST(TraceFile, TruncationAndCorruptionThrowRatherThanEndCleanly) {
  const std::vector<Instr> ref = generate("gcc-like", 20'000);
  TempFile f(tmp_path("damage"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 4096));
  }
  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }

  // Truncated payload: the header promises more than the file holds.
  {
    TempFile t(tmp_path("trunc"));
    std::ofstream out(t.path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 64));
    out.close();
    EXPECT_THROW(FileTraceSource src(t.path), std::runtime_error);
  }

  // Bad magic, including a v1-style header ('1' in place of the final '2'):
  // refused at open with an error that names the file.
  for (const std::size_t at : {std::size_t{0}, std::size_t{7}}) {
    TempFile t(tmp_path("magic"));
    std::string mutated = bytes;
    mutated[at] = at == 0 ? 'X' : '1';
    std::ofstream(t.path, std::ios::binary) << mutated;
    const std::string err = open_error(t.path);
    EXPECT_NE(err.find(t.path + ": not a MAPGTRC2 trace"), std::string::npos)
        << err;
  }

  // A bare 40-byte header claiming 2^40 one-record chunks: the index is
  // checked against the file size before it sizes anything (24 TiB here).
  {
    TempFile t(tmp_path("hugeindex"));
    std::string mutated = bytes.substr(0, 40);
    put_le64(mutated, 8, std::uint64_t{1} << 40);   // records
    put_le64(mutated, 16, 1);                       // chunk_size
    put_le64(mutated, 24, std::uint64_t{1} << 40);  // n_chunks
    std::ofstream(t.path, std::ios::binary) << mutated;
    const std::string err = open_error(t.path);
    EXPECT_NE(err.find("entries does not fit in the file"), std::string::npos)
        << err;
  }

  // Chunk 0's offset forged to 2^64 - 16: offset + payload length wraps
  // below the file size, so only an overflow-safe compare refuses it.
  {
    TempFile t(tmp_path("wrap"));
    std::string mutated = bytes;
    put_le64(mutated, 40, ~std::uint64_t{0} - 15);
    std::ofstream(t.path, std::ios::binary) << mutated;
    const std::string err = open_error(t.path);
    EXPECT_NE(err.find("chunk 0 extends past end of file"), std::string::npos)
        << err;
  }

  // Flip one payload byte in the third chunk: open succeeds (the index is
  // intact), streaming must throw AT the damaged chunk — never a silent
  // short trace.
  {
    TempFile t(tmp_path("corrupt"));
    std::string mutated = bytes;
    const std::size_t payload_off =
        40 + 5 * 24 + 2 * 4096 * 11 + 17;  // header + 5-entry index,
                                           // 2 intact chunks, +17 into 3rd
    ASSERT_LT(payload_off, mutated.size());
    mutated[payload_off] = static_cast<char>(mutated[payload_off] ^ 0x40);
    std::ofstream(t.path, std::ios::binary) << mutated;
    FileTraceSource src(t.path);
    Instr instr;
    std::uint64_t served = 0;
    EXPECT_THROW(
        {
          while (src.next(instr)) ++served;
        },
        std::runtime_error);
    EXPECT_EQ(served, 2u * 4096u);  // both intact chunks served first
  }
}

TEST(TraceFile, RereadAfterSeekBackIsIdenticalWithMemoizedDigests) {
  // The per-chunk digest memo (trace_file.h) must be invisible: seeking back
  // and re-reading a chunk that was verified on first touch yields the same
  // records.  This is the warmup-window revisit pattern of sample/runner.
  const std::vector<Instr> ref = generate("omnetpp-like", 4'099);
  TempFile f(tmp_path("memo"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  FileTraceSource src(f.path);
  for (int pass = 0; pass < 3; ++pass) {  // passes 1 and 2 hit the memo
    src.seek(0);
    std::vector<Instr> got;
    Instr instr;
    while (src.next(instr)) got.push_back(instr);
    EXPECT_TRUE(same_stream(ref, got)) << "pass " << pass;
  }
}

TEST(TraceFile, CorruptChunkThrowsAfterServingTheIntactChunks) {
  // A 4'099-record stream in 1024-record chunks (short final chunk) with one
  // payload byte flipped in the third chunk.
  const std::vector<Instr> ref = generate("gcc-like", 4'099);
  TempFile f(tmp_path("corrupt1k"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // Header 40 B, 5-entry index at 24 B each, two intact 1024-record chunks
  // of 11 B records.
  const std::size_t payload_off = 40 + 5 * 24 + 2 * 1024 * 11 + 17;
  ASSERT_LT(payload_off, bytes.size());
  bytes[payload_off] = static_cast<char>(bytes[payload_off] ^ 0x40);
  std::ofstream(f.path, std::ios::binary) << bytes;

  FileTraceSource src(f.path);  // index intact: open succeeds
  Instr instr;
  std::uint64_t served = 0;
  EXPECT_THROW(
      {
        while (src.next(instr)) ++served;
      },
      std::runtime_error);
  EXPECT_EQ(served, 2u * 1024u);  // exactly the two intact chunks
}

TEST(TraceFile, ShortChunkBeforeTheLastIsRejectedAtOpen) {
  // 4'099 records in 1024-record chunks: chunks 0-3 full, chunk 4 holds 3.
  // Move 24 records from chunk 0 to chunk 4 (the counts still sum to the
  // header), pad the file so chunk 4 fits, and re-forge both chunk digests:
  // only the layout is wrong.  Records are found by division, so serving
  // record 1000 would read past chunk 0's payload; open must refuse.
  const std::vector<Instr> ref = generate("gcc-like", 4'099);
  TempFile f(tmp_path("shortchunk"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  std::string bytes = file_bytes(f.path);
  bytes.append(24 * 11, '\0');  // 24 ALU records of zeros
  const auto forge = [&bytes](std::size_t chunk, std::uint64_t records) {
    const std::size_t entry = 40 + 24 * chunk;
    const std::uint64_t offset = le64_at(bytes, entry);
    put_le64(bytes, entry + 8, records);
    put_le64(bytes, entry + 16,
             trace_digest_update(bytes.data() + offset, records * 11,
                                 kTraceDigestSeed));
  };
  forge(0, 1000);
  forge(4, 27);
  std::ofstream(f.path, std::ios::binary) << bytes;
  const std::string err = open_error(f.path);
  EXPECT_NE(err.find("malformed chunk index entry 0"), std::string::npos)
      << err;
}

// --- converters ------------------------------------------------------------

TEST(Convert, RwDialectGolden) {
  std::istringstream text(
      "# capture header comment\n"
      "R 0x1000\n"
      "\n"
      "w 4096\n"
      "R 0x2040 # trailing comment\n");
  ConvertOptions opts;
  opts.dep_dist = 3;
  opts.pad = 1;
  std::vector<Instr> out;
  std::string err;
  ASSERT_TRUE(convert_text_trace(text, "rw", opts, out, &err)) << err;
  // 3 accesses, each followed by one ALU pad.
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].op, OpClass::kLoad);
  EXPECT_EQ(out[0].addr, 0x1000u);
  EXPECT_EQ(out[0].dep_dist, 3);
  EXPECT_EQ(out[1].op, OpClass::kAlu);
  EXPECT_EQ(out[1].addr, kNoAddr);
  EXPECT_EQ(out[2].op, OpClass::kStore);
  EXPECT_EQ(out[2].addr, 4096u);
  EXPECT_EQ(out[2].dep_dist, 0);  // stores carry no dep distance
  EXPECT_EQ(out[4].op, OpClass::kLoad);
  EXPECT_EQ(out[4].addr, 0x2040u);
}

TEST(Convert, DineroDialectDropsIfetchKeepsCount) {
  std::istringstream text("0 1000\n2 dead0\n1 2000\n");
  ConvertOptions opts;
  std::vector<Instr> out;
  ASSERT_TRUE(convert_text_trace(text, "dinero", opts, out));
  ASSERT_EQ(out.size(), 2u);  // label-2 ifetch validated, then dropped
  EXPECT_EQ(out[0].op, OpClass::kLoad);
  EXPECT_EQ(out[0].addr, 0x1000u);  // dinero addresses are hex
  EXPECT_EQ(out[1].op, OpClass::kStore);
  EXPECT_EQ(out[1].addr, 0x2000u);
}

TEST(Convert, ChampsimDialectGolden) {
  // CRC2-style text: `<ip> <addr> <L|S>`, both hex with optional 0x; the
  // instruction pointer is validated then dropped (the model has no I-side).
  std::istringstream text(
      "# champsim text capture\n"
      "0x401a10 0x7f001000 L\n"
      "\n"
      "401a14 7f002040 s\n"
      "0x401a18 0x7f001000 L # trailing comment\n");
  ConvertOptions opts;
  opts.dep_dist = 5;
  opts.pad = 1;
  std::vector<Instr> out;
  std::string err;
  ASSERT_TRUE(convert_text_trace(text, "champsim", opts, out, &err)) << err;
  // 3 accesses, each followed by one ALU pad.
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].op, OpClass::kLoad);
  EXPECT_EQ(out[0].addr, 0x7f001000u);
  EXPECT_EQ(out[0].dep_dist, 5);
  EXPECT_EQ(out[1].op, OpClass::kAlu);
  EXPECT_EQ(out[1].addr, kNoAddr);
  EXPECT_EQ(out[2].op, OpClass::kStore);  // lowercase s accepted
  EXPECT_EQ(out[2].addr, 0x7f002040u);
  EXPECT_EQ(out[2].dep_dist, 0);  // stores carry no dep distance
  EXPECT_EQ(out[4].op, OpClass::kLoad);
  EXPECT_EQ(out[4].addr, 0x7f001000u);
}

TEST(Convert, MalformedLineFailsWithLineNumber) {
  const struct {
    const char* dialect;
    const char* text;
  } cases[] = {
      {"rw", "R 0x1000\nQ 0x2000\n"},
      // Negative addresses and the kNoAddr sentinel are not addresses.
      {"rw", "R 0x1000\nR -1\n"},
      {"rw", "R 0x1000\nW -0x40\n"},
      {"rw", "R 0x1000\nR 0xffffffffffffffff\n"},
      {"dinero", "0 1000\n0 -10\n"},
      {"dinero", "0 1000\n1 ffffffffffffffff\n"},
  };
  ConvertOptions opts;
  for (const auto& c : cases) {
    std::istringstream text(c.text);
    std::vector<Instr> out;
    std::string err;
    EXPECT_FALSE(convert_text_trace(text, c.dialect, opts, out, &err))
        << c.text;
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  }
}

TEST(Convert, ChampsimMalformedLinesFailWithLineNumber) {
  ConvertOptions opts;
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      // Missing access type.
      {"0x400 0x1000 L\n0x404 0x2000\n", "line 2"},
      // Bad type letter.
      {"0x400 0x1000 X\n", "access type must be L or S"},
      // Multi-char type token.
      {"0x400 0x1000 LS\n", "access type must be L or S"},
      // Non-hex instruction pointer.
      {"zzz 0x1000 L\n", "bad hex instruction pointer"},
      // Non-hex data address.
      {"0x400 0xqq L\n", "bad hex address"},
      // Negative data address, the kNoAddr sentinel, a negative IP.
      {"0x400 -0x40 L\n", "bad hex address"},
      {"0x400 0xffffffffffffffff S\n", "bad hex address"},
      {"-0x400 0x1000 L\n", "bad hex instruction pointer"},
      // Trailing garbage.
      {"0x400 0x1000 L extra\n", "trailing token"},
  };
  for (const auto& c : cases) {
    std::istringstream text(c.text);
    std::vector<Instr> out;
    std::string err;
    EXPECT_FALSE(convert_text_trace(text, "champsim", opts, out, &err))
        << c.text;
    EXPECT_NE(err.find(c.needle), std::string::npos) << err;
  }
}

TEST(Convert, CacheFilterRewritesHitsPreservesCount) {
  // Two lines ping-ponged: first touches miss, every repeat hits.
  std::vector<Instr> instrs;
  for (int i = 0; i < 10; ++i) {
    instrs.push_back({.op = OpClass::kLoad, .dep_dist = 1, .addr = 0x1000});
    instrs.push_back({.op = OpClass::kStore, .dep_dist = 0, .addr = 0x2000});
  }
  VectorTraceSource src(instrs);
  CacheFilter l1(32 * 1024, 64, 4);
  FilteredTraceSource filtered(src, l1);
  std::vector<Instr> out;
  Instr instr;
  while (filtered.next(instr)) out.push_back(instr);
  ASSERT_EQ(out.size(), instrs.size());  // count preserved exactly
  EXPECT_EQ(l1.misses(), 2u);
  EXPECT_EQ(l1.hits(), 18u);
  EXPECT_EQ(out[0].op, OpClass::kLoad);  // misses keep their identity
  EXPECT_EQ(out[2].op, OpClass::kAlu);   // hits become ALU filler
  EXPECT_EQ(out[2].addr, kNoAddr);
  EXPECT_EQ(out[2].dep_dist, 0);
}

// --- plans -----------------------------------------------------------------

struct PlannedTrace {
  explicit PlannedTrace(std::uint64_t n = 600'000)
      : file(tmp_path("plan")), count(n) {
    TraceGenerator gen(*find_profile("mcf-like"), 7);
    std::string err;
    if (!write_trace_file_v2(file.path, gen, count, &err))
      throw std::runtime_error(err);
  }
  TempFile file;
  std::uint64_t count;
};

bool plans_identical(const SamplePlan& a, const SamplePlan& b) {
  if (a.exhaustive != b.exhaustive || a.assignment != b.assignment ||
      a.regions.size() != b.regions.size() ||
      a.clusters.size() != b.clusters.size())
    return false;
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    if (a.regions[i].start != b.regions[i].start ||
        a.regions[i].length != b.regions[i].length ||
        a.regions[i].v != b.regions[i].v)  // bitwise double comparison
      return false;
  }
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    if (a.clusters[c].representative != b.clusters[c].representative ||
        a.clusters[c].weight != b.clusters[c].weight ||
        a.clusters[c].members != b.clusters[c].members)
      return false;
  }
  return true;
}

SampleConfig small_sample_config() {
  SampleConfig cfg;
  cfg.region_instructions = 50'000;
  cfg.clusters = 3;
  cfg.warmup_instructions = 10'000;
  cfg.seed = 42;
  return cfg;
}

TEST(SamplePlan, DeterministicAcrossRunsAndThreads) {
  PlannedTrace t;
  const SampleConfig cfg = small_sample_config();
  FileTraceSource src(t.file.path);
  const SamplePlan ref = build_sample_plan(src, cfg);
  EXPECT_FALSE(ref.exhaustive);
  EXPECT_EQ(ref.regions.size(), t.count / cfg.region_instructions);
  EXPECT_EQ(ref.clusters.size(), cfg.clusters);

  // Re-planning in this thread and in N concurrent threads must reproduce
  // the identical plan — clustering is single-threaded strict-< by
  // contract, so thread count cannot leak into the result.
  std::vector<SamplePlan> plans(4);
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < plans.size(); ++i)
    workers.emplace_back([&, i] {
      FileTraceSource mine(t.file.path);
      plans[i] = build_sample_plan(mine, cfg);
    });
  for (std::thread& w : workers) w.join();
  for (const SamplePlan& p : plans) EXPECT_TRUE(plans_identical(ref, p));

  // A different seed is allowed to pick a different plan (and on this
  // trace does pick different representatives or members eventually);
  // at minimum it must still be a valid partition.
  SampleConfig reseeded = cfg;
  reseeded.seed = 1234;
  FileTraceSource again(t.file.path);
  const SamplePlan other = build_sample_plan(again, reseeded);
  std::size_t members = 0;
  for (const SampleCluster& c : other.clusters) members += c.members.size();
  EXPECT_EQ(members, other.regions.size());
}

TEST(SamplePlan, SignatureCacheHitIsByteIdenticalAndStaleCacheRejected) {
  PlannedTrace t;
  SampleConfig cfg = small_sample_config();
  TempFile cache(tmp_path("sigs"));
  cfg.signature_cache = cache.path;

  FileTraceSource src(t.file.path);
  const SamplePlan scanned = build_sample_plan(src, cfg);  // miss: scan+save
  const std::uint64_t digest = src.info().stream_digest;

  // Cache file exists and reloads to the same signatures bit-for-bit.
  auto reloaded = load_region_signatures(cache.path, digest,
                                         cfg.region_instructions, 64);
  ASSERT_TRUE(reloaded.has_value());
  ASSERT_EQ(reloaded->size(), scanned.regions.size());
  for (std::size_t i = 0; i < reloaded->size(); ++i)
    EXPECT_EQ((*reloaded)[i].v, scanned.regions[i].v);

  // A hit produces the identical plan without touching the trace cursor.
  FileTraceSource hit(t.file.path);
  const SamplePlan cached = build_sample_plan(hit, cfg);
  EXPECT_TRUE(plans_identical(scanned, cached));

  // Stale keys must be rejected: wrong digest, wrong slicing.
  EXPECT_FALSE(load_region_signatures(cache.path, digest ^ 1,
                                      cfg.region_instructions, 64));
  EXPECT_FALSE(load_region_signatures(cache.path, digest,
                                      cfg.region_instructions * 2, 64));
  EXPECT_FALSE(
      load_region_signatures(cache.path, digest, cfg.region_instructions, 32));
  // And a truncated cache file is a miss, not a crash.
  {
    std::ifstream in(cache.path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(cache.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(load_region_signatures(cache.path, digest,
                                      cfg.region_instructions, 64));
}

TEST(SamplePlan, SignatureCacheClaimingHugeCountIsAMissNotAnAllocation) {
  // A MAPGSIG1 header whose region count the file cannot hold (2^40 regions
  // in a header-only file) is damage: a miss that rescans and rewrites the
  // cache, never a reserve() that throws std::bad_alloc.
  PlannedTrace t(150'000);
  SampleConfig cfg = small_sample_config();
  TempFile cache(tmp_path("sigs"));
  cfg.signature_cache = cache.path;
  FileTraceSource src(t.file.path);
  const std::uint64_t digest = src.info().stream_digest;
  {
    std::string header = "MAPGSIG1";
    header.resize(40);
    put_le64(header, 8, digest);
    put_le64(header, 16, cfg.region_instructions);
    put_le64(header, 24, 64);
    put_le64(header, 32, std::uint64_t{1} << 40);
    std::ofstream(cache.path, std::ios::binary) << header;
  }
  EXPECT_FALSE(load_region_signatures(cache.path, digest,
                                      cfg.region_instructions, 64));
  const SamplePlan plan = build_sample_plan(src, cfg);
  EXPECT_EQ(plan.regions.size(), 150'000u / cfg.region_instructions);
  const auto rewritten = load_region_signatures(cache.path, digest,
                                                cfg.region_instructions, 64);
  ASSERT_TRUE(rewritten.has_value());
  EXPECT_EQ(rewritten->size(), plan.regions.size());
}

TEST(SamplePlan, ParallelScanIsIdenticalForEveryJobsCount) {
  // 4096-record chunks against 20'000-instruction regions, so chunks
  // straddle region boundaries and two workers verify the same chunk.  The
  // three tails: a sliver under 1 % of a region (merged into its
  // predecessor), a short last region of at least 1 % (kept), and a trace
  // shorter than one region.
  constexpr std::uint64_t kRegion = 20'000;
  const std::vector<std::uint64_t> lengths = {5 * kRegion + 150,
                                              5 * kRegion + 3'000, 7'000};
  for (const std::uint64_t n : lengths) {
    const std::vector<Instr> ref = generate("mcf-like", n, 11);
    TempFile f(tmp_path("jobs" + std::to_string(n)));
    {
      VectorTraceSource s(ref);
      ASSERT_TRUE(write_trace_file_v2(f.path, s, n, nullptr, 4096));
    }
    SampleConfig cfg = small_sample_config();
    cfg.region_instructions = kRegion;
    TempFile cache(tmp_path("jobs_sigs"));
    cfg.signature_cache = cache.path;

    // The plain-stream serial scan is the reference for every jobs value.
    VectorTraceSource stream(ref);
    const SamplePlan want = build_sample_plan(stream, cfg);
    ASSERT_FALSE(want.regions.empty());
    std::string want_bytes;
    for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
      std::remove(cache.path.c_str());
      FileTraceSource src(f.path);
      const SamplePlan got = build_sample_plan(src, cfg, jobs);
      EXPECT_TRUE(plans_identical(want, got)) << "n=" << n << " jobs=" << jobs;
      EXPECT_EQ(src.pos(), n) << "jobs=" << jobs;
      const std::string bytes = file_bytes(cache.path);
      ASSERT_FALSE(bytes.empty());
      if (jobs == 1) want_bytes = bytes;
      EXPECT_EQ(bytes, want_bytes) << "n=" << n << " jobs=" << jobs;
    }
    // The cache bytes carry every field, aux counts included; reloading
    // them gives the plain-stream scan's signatures exactly.
    FileTraceSource src(f.path);
    const auto sigs = load_region_signatures(
        cache.path, src.info().stream_digest, kRegion, 64);
    ASSERT_TRUE(sigs.has_value());
    ASSERT_EQ(sigs->size(), want.regions.size());
    for (std::size_t i = 0; i < sigs->size(); ++i) {
      EXPECT_EQ((*sigs)[i].mem_ops, want.regions[i].mem_ops);
      EXPECT_EQ((*sigs)[i].distinct_lines, want.regions[i].distinct_lines);
      EXPECT_EQ((*sigs)[i].first_touch_fraction,
                want.regions[i].first_touch_fraction);
    }
  }
}

TEST(SamplePlan, CorruptChunkThrowsTheSerialScansErrorForAnyJobs) {
  // Six 20'000-instruction regions in 4096-record chunks.  Chunk 18 lies
  // late inside region 3 and chunk 25 early inside region 5; both are
  // damaged, so with several workers the region-5 error can come first in
  // time.  Every jobs value must still report chunk 18, the error the
  // serial scan meets first.
  constexpr std::uint64_t kRegion = 20'000;
  const std::vector<Instr> ref = generate("gcc-like", 6 * kRegion);
  TempFile f(tmp_path("corrupt_mid"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 4096));
  }
  std::string bytes = file_bytes(f.path);
  for (const std::size_t chunk : {18u, 25u}) {
    const std::uint64_t offset = le64_at(bytes, 40 + 24 * chunk);  // payload
    ASSERT_LT(offset + 17, bytes.size());
    bytes[offset + 17] = static_cast<char>(bytes[offset + 17] ^ 0x40);
  }
  std::ofstream(f.path, std::ios::binary) << bytes;

  SampleConfig cfg = small_sample_config();
  cfg.region_instructions = kRegion;
  std::vector<std::string> errors;
  for (const unsigned jobs : {1u, 4u, 8u}) {
    FileTraceSource src(f.path);  // index intact: open succeeds
    try {
      build_sample_plan(src, cfg, jobs);
      ADD_FAILURE() << "jobs=" << jobs << ": corrupt trace planned";
    } catch (const std::runtime_error& e) {
      errors.push_back(e.what());
    }
  }
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_NE(errors[0].find("chunk 18 payload digest mismatch"),
            std::string::npos)
      << errors[0];
  EXPECT_EQ(errors[1], errors[0]);
  EXPECT_EQ(errors[2], errors[0]);
}

// --- sampled simulation ----------------------------------------------------

SimConfig sim_config() {
  SimConfig cfg;
  cfg.run_seed = 1;
  return cfg;
}

TEST(SampledRun, DegenerateClustersEqualsRegionsIsBitIdenticalToFull) {
  PlannedTrace t(300'000);
  SampleConfig cfg = small_sample_config();
  cfg.clusters = 100;  // >= 6 regions -> exhaustive

  for (const char* policy : {"none", "mapg"}) {
    FileTraceSource src(t.file.path);
    SamplePlan plan = build_sample_plan(src, cfg);
    EXPECT_TRUE(plan.exhaustive);
    SampledRunner runner(sim_config(), src, std::move(plan), "trc");
    SampledResult sampled = runner.run(policy);
    ASSERT_TRUE(sampled.exact);
    ASSERT_TRUE(sampled.full.has_value());

    FileTraceSource direct_src(t.file.path);
    SimConfig direct_cfg = sim_config();
    direct_cfg.warmup_instructions = 0;
    direct_cfg.instructions = t.count;
    const SimResult direct =
        Simulator(direct_cfg).run(direct_src, "trc", policy);
    EXPECT_EQ(dump(*sampled.full), dump(direct)) << policy;

    // Exact results report zero-width intervals.
    for (const MetricEstimate& m : sampled.metrics) {
      EXPECT_EQ(m.stderr_, 0.0) << m.name;
      EXPECT_EQ(m.ci_lo, m.ci_hi) << m.name;
    }
  }
}

TEST(SampledRun, ProjectionBracketsAndTracksTheFullRun) {
  // Regions must be long enough for the dispersion model's brackets to be
  // meaningful (TRACE.md §8); this axis mirrors bench/micro_sampling's
  // smoke configuration, where measured coverage holds for every timing
  // metric.
  PlannedTrace t(2'000'000);  // 20 regions of 100k
  SampleConfig cfg;
  cfg.region_instructions = 100'000;
  cfg.clusters = 4;
  cfg.warmup_instructions = 20'000;
  cfg.seed = 42;

  FileTraceSource src(t.file.path);
  SamplePlan plan = build_sample_plan(src, cfg);
  ASSERT_FALSE(plan.exhaustive);
  SampledRunner runner(sim_config(), src, std::move(plan), "trc");
  const SampledResult sampled = runner.run("mapg");
  EXPECT_FALSE(sampled.exact);
  EXPECT_LT(sampled.instructions_simulated, t.count);
  EXPECT_EQ(sampled.instructions_projected, t.count);

  FileTraceSource direct_src(t.file.path);
  SimConfig direct_cfg = sim_config();
  direct_cfg.warmup_instructions = 0;
  direct_cfg.instructions = t.count;
  const SimResult full = Simulator(direct_cfg).run(direct_src, "trc", "mapg");

  const MetricEstimate* instrs = sampled.find("instructions");
  ASSERT_NE(instrs, nullptr);
  EXPECT_EQ(instrs->value, static_cast<double>(t.count));  // exact by design
  EXPECT_EQ(instrs->stderr_, 0.0);

  struct Check {
    const char* name;
    double full_value;
  } checks[] = {
      {"cycles", static_cast<double>(full.core.cycles)},
      {"ipc", full.ipc()},
      {"mpki", full.mpki()},
      {"gated_time_fraction", full.gated_time_fraction()},
  };
  for (const Check& c : checks) {
    const MetricEstimate* m = sampled.find(c.name);
    ASSERT_NE(m, nullptr) << c.name;
    // Within 5% of truth on this axis, and the 95% bracket is ordered and
    // contains the estimate.
    EXPECT_NEAR(m->value, c.full_value, 0.05 * std::abs(c.full_value) + 1e-9)
        << c.name;
    EXPECT_LE(m->ci_lo, m->value) << c.name;
    EXPECT_GE(m->ci_hi, m->value) << c.name;
    // The bracket covers the full-run value on these timing metrics (the
    // documented energy-bias caveat is exercised by bench/micro_sampling,
    // not asserted here).
    EXPECT_GE(c.full_value, m->ci_lo - 1e-9) << c.name;
    EXPECT_LE(c.full_value, m->ci_hi + 1e-9) << c.name;
  }

  // Re-running the identical spec projects identically (timelines are
  // cached per representative, and replay is deterministic).
  const SampledResult again = runner.run("mapg");
  for (std::size_t i = 0; i < sampled.metrics.size(); ++i) {
    EXPECT_EQ(sampled.metrics[i].value, again.metrics[i].value);
    EXPECT_EQ(sampled.metrics[i].stderr_, again.metrics[i].stderr_);
  }
}

/// A two-phase trace (mcf-like / gamess-like, 50k-instruction phases) in
/// 4096-record chunks, planned into 25k-instruction regions and 4 clusters,
/// and the same plan for every runner built on it.
struct PhasedPlan {
  static constexpr std::uint64_t kCount = 400'000;
  static constexpr std::uint64_t kChunk = 4096;
  explicit PhasedPlan(unsigned clusters = 4) : file(tmp_path("phased")) {
    PhasedTraceGenerator gen(*find_profile("mcf-like"),
                             *find_profile("gamess-like"), 50'000, 5);
    std::string err;
    if (!write_trace_file_v2(file.path, gen, kCount, &err, kChunk))
      throw std::runtime_error(err);
    SampleConfig cfg;
    cfg.region_instructions = 25'000;
    cfg.clusters = clusters;
    cfg.warmup_instructions = 10'000;
    cfg.seed = 42;
    FileTraceSource src(file.path);
    plan = build_sample_plan(src, cfg, 1);
  }
  TempFile file;
  SamplePlan plan;
};

TEST(SampledRun, ConcurrentRepresentativesAreIdenticalForEveryJobsCount) {
  // `none` takes the reference, `mapg` replays, and `idle-timeout:64` is
  // penalized, so it simulates directly: every tier runs on the workers,
  // and no result may depend on how many.
  const PhasedPlan t;
  ASSERT_FALSE(t.plan.exhaustive);
  ASSERT_GE(t.plan.clusters.size(), 4u);
  const std::vector<std::string> policies = {"none", "mapg",
                                             "idle-timeout:64"};
  std::vector<SampledResult> want;
  for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
    FileTraceSource src(t.file.path);
    SampledRunner runner(sim_config(), src, t.plan, "trc", jobs);
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const SampledResult got = runner.run(policies[p]);
      if (jobs == 1) {
        want.push_back(got);
        continue;
      }
      const SampledResult& ref = want[p];
      EXPECT_EQ(got.policy, ref.policy);
      EXPECT_EQ(got.instructions_simulated, ref.instructions_simulated);
      ASSERT_EQ(got.metrics.size(), ref.metrics.size());
      for (std::size_t m = 0; m < got.metrics.size(); ++m) {
        const MetricEstimate& a = got.metrics[m];
        const MetricEstimate& b = ref.metrics[m];
        EXPECT_EQ(a.name, b.name);
        // Bitwise: the projection sums in cluster order after the join.
        EXPECT_EQ(a.value, b.value) << policies[p] << " " << a.name;
        EXPECT_EQ(a.stderr_, b.stderr_) << policies[p] << " " << a.name;
        EXPECT_EQ(a.ci_lo, b.ci_lo) << policies[p] << " " << a.name;
        EXPECT_EQ(a.ci_hi, b.ci_hi) << policies[p] << " " << a.name;
      }
      ASSERT_EQ(got.representative_results.size(),
                ref.representative_results.size());
      for (std::size_t c = 0; c < got.representative_results.size(); ++c)
        EXPECT_EQ(dump(got.representative_results[c]),
                  dump(ref.representative_results[c]))
            << "jobs=" << jobs << " " << policies[p] << " cluster " << c;
    }
  }
  // The penalized policy really is penalized: its projection differs from
  // the replayed one's.
  EXPECT_NE(want[2].find("cycles")->value, want[1].find("cycles")->value);
}

TEST(SampledRun, CorruptChunkInARepresentativeWindowThrowsTheSameErrorForAnyJobs) {
  // Damage one chunk inside each of two representatives' regions (5000
  // instructions in, so no other window's warmup reaches it).  Whichever
  // worker fails first in time, every jobs value must raise the lower
  // cluster's error, and a second run() must not project from the
  // representatives that did record.
  const PhasedPlan t;
  ASSERT_GE(t.plan.clusters.size(), 2u);
  std::vector<std::uint64_t> damaged;
  for (std::size_t c = 0; c < 2; ++c) {
    const RegionSignature& rep =
        t.plan.regions[t.plan.clusters[c].representative];
    damaged.push_back((rep.start + 5'000) / PhasedPlan::kChunk);
  }
  std::string bytes = file_bytes(t.file.path);
  for (const std::uint64_t chunk : damaged) {
    const std::uint64_t offset = le64_at(bytes, 40 + 24 * chunk);  // payload
    ASSERT_LT(offset + 17, bytes.size());
    bytes[offset + 17] = static_cast<char>(bytes[offset + 17] ^ 0x40);
  }
  std::ofstream(t.file.path, std::ios::binary) << bytes;
  const std::string want =
      "chunk " + std::to_string(damaged[0]) + " payload digest mismatch";

  for (const unsigned jobs : {1u, 4u, 8u}) {
    FileTraceSource src(t.file.path);  // index intact: open succeeds
    SampledRunner runner(sim_config(), src, t.plan, "trc", jobs);
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        runner.run("mapg");
        ADD_FAILURE() << "jobs=" << jobs << " attempt " << attempt
                      << ": corrupt windows projected";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << "jobs=" << jobs << " attempt " << attempt << ": " << e.what();
      }
    }
  }
}

/// Every projected metric bit for bit, plus each representative's result.
std::vector<std::string> projection_bits(const SampledResult& r) {
  std::vector<std::string> out;
  char buf[64];
  for (const MetricEstimate& m : r.metrics) {
    std::snprintf(buf, sizeof buf, "=%a~%a", m.value, m.stderr_);
    out.push_back(m.name + buf);
  }
  for (const SimResult& rep : r.representative_results)
    out.push_back(dump(rep));
  return out;
}

std::uint64_t staged_runs() {
  return obs::MetricsRegistry::instance()
      .counter("sim.frontend.staged")
      .value();
}

/// Whether `helpers` front-end helpers fit beside `workers` busy threads
/// on this host (ThreadBudget::process() is one per hardware thread).
bool helpers_fit(unsigned workers, unsigned helpers) {
  const ThreadBudget& process = ThreadBudget::process();
  return obs::kCompiledIn &&
         process.limit() >= process.in_use() + workers + helpers;
}

TEST(SampledRun, StagedWindowsProjectTheSameResults) {
  // Two representatives and four jobs: each recording worker has a thread
  // over, so its window is read and digest-checked by a helper, and so is
  // each idle-timeout:64 fallback's window, read again from the file.
  // Every projection must equal the serial one.
  const PhasedPlan t(2);
  ASSERT_FALSE(t.plan.exhaustive);
  ASSERT_EQ(t.plan.clusters.size(), 2u);
  std::vector<std::string> want;
  for (const unsigned jobs : {1u, 4u}) {
    const std::uint64_t staged0 = staged_runs();
    FileTraceSource src(t.file.path);
    SampledRunner runner(sim_config(), src, t.plan, "trc", jobs);
    std::vector<std::string> got;
    for (const char* spec : {"none", "mapg", "idle-timeout:64"}) {
      const std::vector<std::string> bits = projection_bits(runner.run(spec));
      got.insert(got.end(), bits.begin(), bits.end());
    }
    if (jobs == 1) {
      want = got;
      EXPECT_EQ(staged_runs(), staged0);
      continue;
    }
    EXPECT_EQ(got, want);
    if (helpers_fit(2, 2)) {
      EXPECT_EQ(staged_runs(), staged0 + 4);  // 2 recordings, 2 fallbacks
    }
  }
}

TEST(SampledRun, FallbackRepresentativesEqualADirectRunOverTheirWindow) {
  // idle-timeout:64 is penalized on every representative, so each one is
  // simulated again over its window, re-read from the file.  Each must
  // equal a Simulator run over that window, seeked and limited by hand:
  // the warmup is clamped to the prefix before the region.
  const PhasedPlan t;
  ASSERT_FALSE(t.plan.exhaustive);
  std::vector<std::string> want;
  FileTraceSource direct_src(t.file.path);
  for (const SampleCluster& cl : t.plan.clusters) {
    const RegionSignature& rep = t.plan.regions[cl.representative];
    SimConfig cfg = sim_config();
    cfg.warmup_instructions =
        std::min<std::uint64_t>(t.plan.config.warmup_instructions, rep.start);
    cfg.instructions = rep.length;
    direct_src.seek(rep.start - cfg.warmup_instructions);
    LimitedTraceSource window(direct_src,
                              cfg.warmup_instructions + cfg.instructions);
    want.push_back(
        dump(Simulator(cfg).run(window, "trc", "idle-timeout:64")));
  }
  for (const unsigned jobs : {1u, 4u}) {
    FileTraceSource src(t.file.path);
    SampledRunner runner(sim_config(), src, t.plan, "trc", jobs);
    const SampledResult got = runner.run("idle-timeout:64");
    ASSERT_EQ(got.representative_results.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c)
      EXPECT_EQ(dump(got.representative_results[c]), want[c])
          << "jobs=" << jobs << " cluster " << c;
  }
}

TEST(SampledRun, CorruptChunkInAStagedWindowThrowsTheReadersError) {
  // As CorruptChunkInARepresentativeWindowThrowsTheSameErrorForAnyJobs,
  // on a plan whose two windows are staged at four jobs: the helper's
  // reader error reaches the caller as the lower cluster's, as serially.
  const PhasedPlan t(2);
  ASSERT_EQ(t.plan.clusters.size(), 2u);
  std::vector<std::uint64_t> damaged;
  for (std::size_t c = 0; c < 2; ++c) {
    const RegionSignature& rep =
        t.plan.regions[t.plan.clusters[c].representative];
    damaged.push_back((rep.start + 5'000) / PhasedPlan::kChunk);
  }
  std::string bytes = file_bytes(t.file.path);
  for (const std::uint64_t chunk : damaged) {
    const std::uint64_t offset = le64_at(bytes, 40 + 24 * chunk);
    ASSERT_LT(offset + 17, bytes.size());
    bytes[offset + 17] = static_cast<char>(bytes[offset + 17] ^ 0x40);
  }
  std::ofstream(t.file.path, std::ios::binary) << bytes;
  const std::string want =
      "chunk " + std::to_string(damaged[0]) + " payload digest mismatch";
  for (const unsigned jobs : {1u, 4u}) {
    const std::uint64_t staged0 = staged_runs();
    FileTraceSource src(t.file.path);
    SampledRunner runner(sim_config(), src, t.plan, "trc", jobs);
    try {
      runner.run("mapg");
      ADD_FAILURE() << "jobs=" << jobs << ": corrupt windows projected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << "jobs=" << jobs << ": " << e.what();
    }
    if (jobs > 1 && helpers_fit(2, 2)) {
      EXPECT_EQ(staged_runs(), staged0 + 2);
    }
  }
}

TEST(SampledRun, PoolHasAThreadForEveryWindowHelperItsJobsGrant) {
  // The tight case, forced: two recordings at two jobs, the launched
  // worker's claimed while the calling thread's is in flight, and staged
  // only once that one has ended.  Its budget then grants a helper while
  // the worker recording it is the only other busy thread; a helper queued
  // behind busy threads would leave the recording waiting for its own
  // thread.  A watchdog turns such a hang into a failure.
  const ThreadBudget& process = ThreadBudget::process();
  if (process.limit() < process.in_use() + 2)
    GTEST_SKIP() << "one hardware thread: no helper ever starts";
  ThreadBudget jobs(2);
  std::atomic<bool> worker_claimed{false};
  std::atomic<bool> staged{false};
  std::uint64_t served = 0;
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(60), [&] { return finished; })) {
      std::fprintf(stderr, "a staged recording waited for its own thread\n");
      std::abort();
    }
  });
  {
    ThreadBudget::Slots tasks(jobs, 2);
    for_each_claimed(2, 2, [&](std::size_t, unsigned worker) {
      tasks.run([&] {
        if (worker == 0) {
          while (!worker_claimed.load()) std::this_thread::yield();
          return;
        }
        worker_claimed.store(true);
        while (jobs.in_use() != 1) std::this_thread::yield();
        TraceGenerator gen(*find_profile("mcf-like"), 3);
        TraceFrontEnd front = stage_if_free(gen, 100'000);
        staged.store(front.staged());
        Instr instr;
        while (front.source().next(instr)) ++served;
      });
    });
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    finished = true;
  }
  cv.notify_one();
  watchdog.join();
  EXPECT_TRUE(staged.load());
  EXPECT_EQ(served, 100'000u);
  EXPECT_EQ(jobs.in_use(), 0u);
}

TEST(SampledRun, SuccessivePassesReuseTheExecutorsThreads) {
  // Each pass scans signatures afresh, builds a fresh runner and projects
  // two policies at four jobs.  The first pass may start threads; the
  // eight after it find them parked and start at most a few more (where a
  // thread had not parked yet when the next body came), not a set per
  // pass.
  if (!obs::kCompiledIn) GTEST_SKIP() << "MAPG_OBS=OFF: no thread counter";
  const PhasedPlan t;
  ASSERT_GE(t.plan.clusters.size(), 4u);
  const auto started = [] {
    return obs::MetricsRegistry::instance()
        .counter("exec.threads.started")
        .value();
  };
  const auto pass = [&t] {
    FileTraceSource src(t.file.path);
    const SamplePlan plan = build_sample_plan(src, t.plan.config, 4);
    SampledRunner runner(sim_config(), src, plan, "trc", 4);
    for (const char* spec : {"none", "mapg"}) runner.run(spec);
  };
  pass();
  const std::uint64_t started0 = started();
  for (int i = 0; i < 8; ++i) pass();
  EXPECT_LE(started() - started0, 4u);
}

TEST(SampledRun, TraceReplacedUnderTheRunnerIsRefused) {
  // A worker's reader opens the path again; if the file there now holds a
  // different stream, it must refuse rather than record the wrong content
  // under the caller's plan.
  const PhasedPlan t;
  FileTraceSource src(t.file.path);
  {
    TraceGenerator other(*find_profile("gcc-like"), 9);
    ASSERT_TRUE(write_trace_file_v2(t.file.path, other, PhasedPlan::kCount,
                                    nullptr, PhasedPlan::kChunk));
  }
  SampledRunner runner(sim_config(), src, t.plan, "trc", 2);
  try {
    runner.run("none");
    ADD_FAILURE() << "replaced trace projected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("content changed"),
              std::string::npos)
        << e.what();
  }
}

// --- engine identity -------------------------------------------------------

TEST(TraceBindingIdentity, DigestKeysTheCachePathDoesNot) {
  const SimConfig cfg = sim_config();
  const WorkloadProfile& profile = *find_profile("mcf-like");

  TraceBinding a;
  a.path = "/tmp/a.trc";
  a.digest_hex = "00deadbeef001122";
  a.offset = 0;
  a.name = "trc";
  TraceBinding renamed = a;
  renamed.path = "/somewhere/else.trc";  // same content, different path
  TraceBinding edited = a;
  edited.digest_hex = "ffffffffffffffff";  // different content
  TraceBinding shifted = a;
  shifted.offset = 1'000'000;  // different window

  const std::string key_plain = cache_key(cfg, profile, "mapg");
  const std::string key_a = cache_key(cfg, profile, "mapg", &a);
  const std::string key_renamed = cache_key(cfg, profile, "mapg", &renamed);
  const std::string key_edited = cache_key(cfg, profile, "mapg", &edited);
  const std::string key_shifted = cache_key(cfg, profile, "mapg", &shifted);

  EXPECT_NE(key_a, key_plain);    // trace-bound is a distinct experiment
  EXPECT_EQ(key_a, key_renamed);  // renaming never splits the cache
  EXPECT_NE(key_a, key_edited);   // content changes always miss
  EXPECT_NE(key_a, key_shifted);  // windows are distinct cells
}

}  // namespace
}  // namespace mapg

// Unit tests for src/trace: generator determinism, profile shape, mix
// convergence, dependency distances, the in-memory trace sources, and the
// staged front-end's contract (the on-disk format is pinned in
// test_sampling.cpp).
#include <gtest/gtest.h>

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/profile.h"
#include "trace/staged_source.h"
#include "trace/trace_file.h"
#include "trace/trace_io.h"

namespace mapg {
namespace {

TEST(Profiles, TwelveBuiltinsWithUniqueNames) {
  const auto& profiles = builtin_profiles();
  EXPECT_EQ(profiles.size(), 12u);
  for (std::size_t i = 0; i < profiles.size(); ++i)
    for (std::size_t j = i + 1; j < profiles.size(); ++j)
      EXPECT_NE(profiles[i].name, profiles[j].name);
}

TEST(Profiles, FindByName) {
  EXPECT_NE(find_profile("mcf-like"), nullptr);
  EXPECT_NE(find_profile("gamess-like"), nullptr);
  EXPECT_EQ(find_profile("not-a-profile"), nullptr);
}

TEST(Profiles, MixFractionsSumBelowOne) {
  for (const auto& p : builtin_profiles()) {
    const double sum =
        p.f_load + p.f_store + p.f_branch + p.f_mul + p.f_div + p.f_fp;
    EXPECT_LT(sum, 1.0) << p.name;
    EXPECT_GT(p.f_load, 0.0) << p.name;
    EXPECT_LE(p.p_stream + p.p_cold, 1.0) << p.name;
    EXPECT_LE(p.hot_set_bytes, p.working_set_bytes) << p.name;
  }
}

TEST(Profiles, RepresentativeSubset) {
  const auto reps = representative_profiles();
  ASSERT_EQ(reps.size(), 4u);
  EXPECT_EQ(reps[0].name, "mcf-like");
}

TEST(Generator, DeterministicAcrossInstances) {
  const WorkloadProfile* p = find_profile("mcf-like");
  ASSERT_NE(p, nullptr);
  TraceGenerator a(*p, 5), b(*p, 5);
  Instr ia, ib;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(a.next(ia));
    ASSERT_TRUE(b.next(ib));
    ASSERT_EQ(ia.op, ib.op);
    ASSERT_EQ(ia.addr, ib.addr);
    ASSERT_EQ(ia.dep_dist, ib.dep_dist);
  }
}

TEST(Generator, ResetReplaysIdentically) {
  const WorkloadProfile* p = find_profile("gcc-like");
  ASSERT_NE(p, nullptr);
  TraceGenerator g(*p, 9);
  std::vector<Instr> first;
  Instr instr;
  for (int i = 0; i < 5000; ++i) {
    g.next(instr);
    first.push_back(instr);
  }
  g.reset();
  for (int i = 0; i < 5000; ++i) {
    g.next(instr);
    EXPECT_EQ(instr.addr, first[i].addr);
    EXPECT_EQ(instr.op, first[i].op);
  }
}

TEST(Generator, RunSeedChangesStream) {
  const WorkloadProfile* p = find_profile("mcf-like");
  TraceGenerator a(*p, 1), b(*p, 2);
  Instr ia, ib;
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    a.next(ia);
    b.next(ib);
    if (ia.op == ib.op && ia.addr == ib.addr) ++same;
  }
  EXPECT_LT(same, 700);  // mostly different draws
}

TEST(Generator, MixConvergesToProfile) {
  const WorkloadProfile* p = find_profile("lbm-like");
  TraceGenerator g(*p, 3);
  std::array<int, kNumOpClasses> counts{};
  Instr instr;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    g.next(instr);
    ++counts[static_cast<std::size_t>(instr.op)];
  }
  auto frac = [&](OpClass c) {
    return static_cast<double>(counts[static_cast<std::size_t>(c)]) / n;
  };
  EXPECT_NEAR(frac(OpClass::kLoad), p->f_load, 0.01);
  EXPECT_NEAR(frac(OpClass::kStore), p->f_store, 0.01);
  EXPECT_NEAR(frac(OpClass::kBranch), p->f_branch, 0.01);
  EXPECT_NEAR(frac(OpClass::kDiv), p->f_div, 0.005);
}

TEST(Generator, AddressesStayInWorkingSetAndAligned) {
  for (const auto& p : builtin_profiles()) {
    TraceGenerator g(p, 11);
    Instr instr;
    for (int i = 0; i < 20000; ++i) {
      g.next(instr);
      if (instr.op == OpClass::kLoad || instr.op == OpClass::kStore) {
        ASSERT_LT(instr.addr, p.working_set_bytes) << p.name;
        ASSERT_EQ(instr.addr % 8, 0u) << p.name;
      } else {
        ASSERT_EQ(instr.addr, kNoAddr);
      }
    }
  }
}

TEST(Generator, DepDistWithinBoundsAndLoadsOnly) {
  const WorkloadProfile* p = find_profile("omnetpp-like");
  TraceGenerator g(*p, 13);
  Instr instr;
  bool saw_dep = false;
  for (int i = 0; i < 50000; ++i) {
    g.next(instr);
    if (instr.op != OpClass::kLoad) {
      ASSERT_EQ(instr.dep_dist, 0u);
      continue;
    }
    ASSERT_LE(instr.dep_dist, p->dep_dist_max);
    saw_dep |= instr.dep_dist > 0;
  }
  EXPECT_TRUE(saw_dep);
}

TEST(Generator, PointerChaseForcesDepDistOne) {
  WorkloadProfile p = *find_profile("mcf-like");
  p.p_pointer_chase = 1.0;  // every load chases
  TraceGenerator g(p, 17);
  Instr instr;
  for (int i = 0; i < 20000; ++i) {
    g.next(instr);
    if (instr.op == OpClass::kLoad) {
      ASSERT_EQ(instr.dep_dist, 1u);
    }
  }
}

TEST(Generator, StreamsAdvanceSequentially) {
  WorkloadProfile p = *find_profile("libquantum-like");
  p.p_stream = 1.0;
  p.p_cold = 0.0;
  p.num_streams = 1;
  p.f_load = 1.0;
  p.f_store = p.f_branch = p.f_mul = p.f_div = p.f_fp = 0.0;
  TraceGenerator g(p, 19);
  Instr a, b;
  g.next(a);
  for (int i = 0; i < 1000; ++i) {
    g.next(b);
    // Single stream, pure loads: consecutive addresses advance by the
    // stride (mod wraparound).
    if (b.addr > a.addr) {
      ASSERT_EQ(b.addr - a.addr, p.stream_stride_bytes & ~7ULL);
    }
    a = b;
  }
}

TEST(PhasedGenerator, AlternatesProfilesOnSchedule) {
  const WorkloadProfile* a = find_profile("mcf-like");
  const WorkloadProfile* b = find_profile("gamess-like");
  PhasedTraceGenerator g(*a, *b, 100, 3);
  Instr instr;
  EXPECT_EQ(g.current_phase_name(), "mcf-like");
  for (int i = 0; i < 100; ++i) g.next(instr);
  g.next(instr);  // 101st instruction crosses into phase b
  EXPECT_EQ(g.current_phase_name(), "gamess-like");
  EXPECT_EQ(g.phase_switches(), 1u);
  for (int i = 0; i < 100; ++i) g.next(instr);
  EXPECT_EQ(g.current_phase_name(), "mcf-like");
  EXPECT_EQ(g.phase_switches(), 2u);
}

TEST(PhasedGenerator, ResetReplaysIdentically) {
  const WorkloadProfile* a = find_profile("mcf-like");
  const WorkloadProfile* b = find_profile("lbm-like");
  PhasedTraceGenerator g(*a, *b, 500, 7);
  std::vector<Instr> first;
  Instr instr;
  for (int i = 0; i < 3000; ++i) {
    g.next(instr);
    first.push_back(instr);
  }
  g.reset();
  for (int i = 0; i < 3000; ++i) {
    g.next(instr);
    ASSERT_EQ(instr.addr, first[i].addr);
    ASSERT_EQ(instr.op, first[i].op);
  }
}

TEST(PhasedGenerator, MixReflectsBothPhases) {
  // mcf loads 32%, gamess loads 24%: a balanced phased trace lands between.
  const WorkloadProfile* a = find_profile("mcf-like");
  const WorkloadProfile* b = find_profile("gamess-like");
  PhasedTraceGenerator g(*a, *b, 1000, 11);
  Instr instr;
  int loads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    g.next(instr);
    if (instr.op == OpClass::kLoad) ++loads;
  }
  const double frac = static_cast<double>(loads) / n;
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.31);
}

TEST(VectorSource, ServesAndResets) {
  std::vector<Instr> v(3);
  v[0].op = OpClass::kAlu;
  v[1].op = OpClass::kLoad;
  v[1].addr = 64;
  v[2].op = OpClass::kStore;
  v[2].addr = 128;
  VectorTraceSource src(v);
  Instr instr;
  int n = 0;
  while (src.next(instr)) ++n;
  EXPECT_EQ(n, 3);
  EXPECT_FALSE(src.next(instr));
  src.reset();
  ASSERT_TRUE(src.next(instr));
  EXPECT_EQ(instr.op, OpClass::kAlu);
}

TEST(LimitedSource, CapsAndResets) {
  const WorkloadProfile* p = find_profile("gcc-like");
  TraceGenerator g(*p, 23);
  LimitedTraceSource lim(g, 100);
  Instr instr;
  int n = 0;
  while (lim.next(instr)) ++n;
  EXPECT_EQ(n, 100);
  lim.reset();
  n = 0;
  while (lim.next(instr)) ++n;
  EXPECT_EQ(n, 100);
}

// --- StagedTraceSource: the front-end on a helper thread ---------------

constexpr std::uint64_t kRing = std::uint64_t{StagedTraceSource::kBlocks} *
                                StagedTraceSource::kBlockInstrs;

bool same(const Instr& a, const Instr& b) {
  return a.op == b.op && a.dep_dist == b.dep_dist && a.addr == b.addr;
}

/// Reads `src` to its end (at most `cap` records).  A consumer that pauses
/// after `pause_at` records gives the helper time to fill the whole ring,
/// so a helper that overwrote a block still being served shows up as a
/// record mismatch.
std::vector<Instr> drain(TraceSource& src, std::uint64_t cap,
                         std::uint64_t pause_at = ~0ULL) {
  std::vector<Instr> out;
  Instr instr;
  while (out.size() < cap && src.next(instr)) {
    out.push_back(instr);
    if (out.size() == pause_at)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return out;
}

void expect_same_stream(const std::vector<Instr>& want,
                        const std::vector<Instr>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_TRUE(same(want[i], got[i])) << "record " << i;
}

/// Counts the records a helper pulls from the wrapped source.
class CountingSource final : public TraceSource {
 public:
  explicit CountingSource(TraceSource& inner) : inner_(inner) {}
  bool next(Instr& out) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.next(out);
  }
  void reset() override { inner_.reset(); }
  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  TraceSource& inner_;
  std::atomic<std::uint64_t> calls_{0};
};

TEST(StagedSource, GeneratorStreamIsServedRecordForRecord) {
  // Counts inside one block, on a block boundary, past the ring, and zero;
  // each ends exactly at the count, however often next() is called after.
  const WorkloadProfile& p = *find_profile("mcf-like");
  for (const std::uint64_t count :
       {std::uint64_t{0}, std::uint64_t{5}, kRing, 3 * kRing + 17}) {
    TraceGenerator ref(p, 7);
    const std::vector<Instr> want = drain(ref, count);
    TraceGenerator gen(p, 7);
    StagedTraceSource stage(gen, count);
    expect_same_stream(want, drain(stage, ~0ULL, 1));
    Instr instr;
    EXPECT_FALSE(stage.next(instr)) << count;
    EXPECT_FALSE(stage.next(instr)) << count;
  }
}

TEST(StagedSource, PhasedGeneratorStreamIsServedRecordForRecord) {
  const WorkloadProfile& a = *find_profile("mcf-like");
  const WorkloadProfile& b = *find_profile("gamess-like");
  PhasedTraceGenerator ref(a, b, 5'000, 3);
  const std::vector<Instr> want = drain(ref, 2 * kRing + 999);
  PhasedTraceGenerator gen(a, b, 5'000, 3);
  StagedTraceSource stage(gen, want.size());
  expect_same_stream(want, drain(stage, ~0ULL, 3));
}

TEST(StagedSource, ResetStagesTheStreamAgain) {
  const WorkloadProfile& p = *find_profile("lbm-like");
  TraceGenerator ref(p, 2);
  const std::vector<Instr> want = drain(ref, kRing + 100);
  TraceGenerator gen(p, 2);
  StagedTraceSource stage(gen, want.size());
  drain(stage, 1000);
  stage.reset();
  expect_same_stream(want, drain(stage, ~0ULL));
}

TEST(StagedSource, SourceThatEndsBeforeTheLimitEndsTheStageThere) {
  TraceGenerator gen(*find_profile("gcc-like"), 4);
  const std::vector<Instr> want = drain(gen, kRing + 300);
  VectorTraceSource short_src(want);
  StagedTraceSource stage(short_src, 10 * kRing);
  expect_same_stream(want, drain(stage, ~0ULL, 1));
  Instr instr;
  EXPECT_FALSE(stage.next(instr));
}

/// A MAPGTRC2 file in small chunks, removed with the test.
struct ChunkedTraceFile {
  static constexpr std::uint64_t kChunk = 1000;
  explicit ChunkedTraceFile(std::uint64_t count)
      : path("test_trace_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()) +
             "_" + std::to_string(::getpid()) + ".tmp") {
    TraceGenerator gen(*find_profile("omnetpp-like"), 11);
    records = drain(gen, count);
    VectorTraceSource src(records);
    EXPECT_TRUE(write_trace_file_v2(path, src, count, nullptr, kChunk));
  }
  ~ChunkedTraceFile() { std::remove(path.c_str()); }
  std::string path;
  std::vector<Instr> records;
};

TEST(StagedSource, FileWindowAcrossChunksIsServedRecordForRecord) {
  // A window that starts inside one chunk and ends inside another, many
  // chunks on, as the sampled runner and the engine's trace cells read it.
  const ChunkedTraceFile f(3 * kRing);
  const std::uint64_t start = 1'234, count = 2 * kRing + 345;
  FileTraceSource file(f.path);
  file.seek(start);
  LimitedTraceSource window(file, count);
  const std::vector<Instr> want(f.records.begin() + start,
                                f.records.begin() + start + count);
  {
    StagedTraceSource stage(window, count);
    expect_same_stream(want, drain(stage, ~0ULL, 1));
  }
  EXPECT_EQ(file.pos(), start + count);  // nothing read past the window
}

TEST(StagedSource, CorruptChunkServesTheIntactRecordsThenTheReadersError) {
  // The TraceFile.CorruptChunkThrowsAfterServingTheIntactChunks file
  // (test_sampling.cpp): 4'099 records in 1024-record chunks, one payload
  // byte flipped in the third chunk.  Staged, the core must see the same
  // 2048 records and then the same exception text as from the reader.
  TraceGenerator gen(*find_profile("gcc-like"), 42);
  const std::vector<Instr> ref = drain(gen, 4'099);
  const std::string path =
      "test_trace_corrupt_" + std::to_string(::getpid()) + ".tmp";
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(path, s, ref.size(), nullptr, 1024));
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::size_t payload_off = 40 + 5 * 24 + 2 * 1024 * 11 + 17;
  ASSERT_LT(payload_off, bytes.size());
  bytes[payload_off] = static_cast<char>(bytes[payload_off] ^ 0x40);
  std::ofstream(path, std::ios::binary) << bytes;

  std::string unstaged_error;
  {
    FileTraceSource src(path);
    Instr instr;
    try {
      while (src.next(instr)) {
      }
    } catch (const std::runtime_error& e) {
      unstaged_error = e.what();
    }
  }
  ASSERT_FALSE(unstaged_error.empty());

  FileTraceSource src(path);
  StagedTraceSource stage(src, ref.size());
  Instr instr;
  std::uint64_t served = 0;
  try {
    while (stage.next(instr)) {
      ASSERT_TRUE(same(instr, ref[served])) << "record " << served;
      ++served;
    }
    ADD_FAILURE() << "a corrupt chunk ended the stream cleanly";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), unstaged_error);
  }
  EXPECT_EQ(served, 2u * 1024u);
  // The error stays raised, as the reader's does.
  EXPECT_THROW(stage.next(instr), std::runtime_error);
  std::remove(path.c_str());
}

TEST(StagedSource, ConsumerThatStopsEarlyAgainstAFullRingJoinsTheHelper) {
  // The consumer holds the first block; the helper fills the other blocks
  // and then waits for room.  It reads exactly one ring's worth, and
  // destroying the stage stops it there and waits for it.
  for (int round = 0; round < 20; ++round) {
    TraceGenerator gen(*find_profile("mcf-like"), 1);
    CountingSource counted(gen);
    {
      StagedTraceSource stage(counted, 100 * kRing);
      Instr instr;
      ASSERT_TRUE(stage.next(instr));
      while (counted.calls() < kRing) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(counted.calls(), kRing) << "round " << round;
  }
}

TEST(StagedSource, ConsumerThatUnwindsJoinsTheHelper) {
  TraceGenerator gen(*find_profile("mcf-like"), 1);
  CountingSource counted(gen);
  try {
    StagedTraceSource stage(counted, 100 * kRing);
    drain(stage, kRing + 3);
    throw std::runtime_error("consumer failed");
  } catch (const std::runtime_error&) {
  }
  const std::uint64_t calls = counted.calls();
  EXPECT_LE(calls, 2 * kRing);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(counted.calls(), calls);  // nothing reads it after the join
}

TEST(StagedSource, ExecutorHelperServesTheStreamAndIsWaitedFor) {
  // Helpers run on executor threads that park for the next body: the same
  // stream each round, and an early stop waits for the helper to let go.
  const WorkloadProfile& p = *find_profile("hmmer-like");
  TraceGenerator ref(p, 9);
  const std::vector<Instr> want = drain(ref, 2 * kRing + 5);
  for (int round = 0; round < 3; ++round) {
    TraceGenerator gen(p, 9);
    StagedTraceSource stage(gen, want.size());
    expect_same_stream(want, drain(stage, ~0ULL, 1));
  }
  TraceGenerator gen(p, 9);
  CountingSource counted(gen);
  {
    StagedTraceSource stage(counted, 100 * kRing);
    Instr instr;
    ASSERT_TRUE(stage.next(instr));
  }
  const std::uint64_t calls = counted.calls();
  EXPECT_LE(calls, kRing);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(counted.calls(), calls);
}

/// A source whose next() blocks until open() is called.
class GatedSource final : public TraceSource {
 public:
  bool next(Instr& out) override {
    inside_.fetch_add(1);
    while (!open_.load()) std::this_thread::yield();
    out = Instr{};
    inside_.fetch_sub(1);
    return true;
  }
  void reset() override {}
  void open() { open_.store(true); }
  int inside() const { return inside_.load(); }

 private:
  std::atomic<bool> open_{false};
  std::atomic<int> inside_{0};
};

TEST(StagedSource, DestroyingAStageWaitsForAHelperInsideItsSource) {
  // A stage must not let go of its source while the helper is still inside
  // the source's next().
  GatedSource gated;
  auto stage = std::make_unique<StagedTraceSource>(gated, 100);
  while (gated.inside() == 0) std::this_thread::yield();
  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    stage.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(destroyed.load()) << "destroyed under a reading helper";
  gated.open();
  destroyer.join();
  EXPECT_EQ(gated.inside(), 0);
}

TEST(StagedSource, HelpersStartOnlyWhereTheCallersBudgetHasRoom) {
  TraceGenerator gen(*find_profile("gcc-like"), 5);
  ThreadBudget& process = ThreadBudget::process();
  const std::size_t process0 = process.in_use();
  ThreadBudget jobs1(1);  // --jobs=1: the task itself fills it
  ThreadBudget::Slots(jobs1, 1).run([&] {
    EXPECT_EQ(ThreadBudget::current(), &jobs1);
    EXPECT_FALSE(stage_if_free(gen, 1000).staged());
    EXPECT_EQ(jobs1.in_use(), 1u);
  });
  EXPECT_EQ(jobs1.in_use(), 0u);
  if (process.limit() - process.in_use() < 2)
    GTEST_SKIP() << "one hardware thread: no helper ever starts";
  ThreadBudget jobs2(2);  // one task, one thread over
  ThreadBudget::Slots(jobs2, 1).run([&] {
    const TraceFrontEnd front = stage_if_free(gen, 1000);
    ASSERT_TRUE(front.staged());
    EXPECT_EQ(jobs2.in_use(), 2u);
    EXPECT_EQ(process.in_use(), process0 + 2);  // the task and its helper
    TraceGenerator other(*find_profile("gcc-like"), 6);
    EXPECT_FALSE(stage_if_free(other, 1000).staged());  // budget spent
  });
  EXPECT_EQ(ThreadBudget::current(), nullptr);
  EXPECT_EQ(jobs2.in_use(), 0u);
  EXPECT_EQ(process.in_use(), process0);
}

TEST(StagedSource, HelpersNeverPassOneBusyThreadPerHardwareThread) {
  // Outside any task the simulating thread counts itself, so a helper
  // needs two free process slots.
  ThreadBudget& process = ThreadBudget::process();
  const std::size_t process0 = process.in_use();
  if (process.limit() - process0 < 2) GTEST_SKIP() << "one hardware thread";
  TraceGenerator gen(*find_profile("gcc-like"), 5);
  {
    const ThreadBudget::Slots others(process, process.limit() - process0 - 1);
    EXPECT_FALSE(stage_if_free(gen, 1000).staged());
  }
  {
    const ThreadBudget::Slots others(process, process.limit() - process0 - 2);
    const TraceFrontEnd front = stage_if_free(gen, 1000);
    EXPECT_TRUE(front.staged());
    EXPECT_EQ(process.in_use(), process.limit());
  }
  // Inside a task with --jobs to spare but the process full, the run reads
  // inline and keeps no slot of its task's budget for the helper it lacks.
  ThreadBudget jobs(2);
  ThreadBudget::Slots(jobs, 1).run([&] {
    const ThreadBudget::Slots others(process,
                                     process.limit() - process.in_use());
    const TraceFrontEnd front = stage_if_free(gen, 1000);
    EXPECT_FALSE(front.staged());
    EXPECT_EQ(jobs.in_use(), 1u);
  });
  EXPECT_EQ(process.in_use(), process0);
}

TEST(StagedSource, EverySlotComesBackWhateverATaskOrItsHelperThrows) {
  // A task that throws gives its slot back, as do the tasks never run
  // after it.  (A helper that cannot start:
  // StagedSourceDeathTest.HelperWithNoThreadLeavesTheRunInline.)
  ThreadBudget& process = ThreadBudget::process();
  const std::size_t process0 = process.in_use();
  ThreadBudget jobs(4);
  try {
    ThreadBudget::Slots tasks(jobs, 3);
    tasks.run([] {});
    EXPECT_EQ(jobs.in_use(), 2u);
    tasks.run([] { throw std::runtime_error("task failed"); });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(jobs.in_use(), 0u);
  EXPECT_EQ(process.in_use(), process0);
}

// A helper the executor has no thread for leaves the run reading inline,
// with every slot given back.  The child makes every thread start fail
// without starting any (no 64 TiB stack can be mapped); it is a fresh
// process, so no parked thread can take the helper either.
TEST(StagedSourceDeathTest, HelperWithNoThreadLeavesTheRunInline) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ThreadBudget& process = ThreadBudget::process();
        const std::size_t process0 = process.in_use();
        if (process.limit() - process0 < 2) std::_Exit(0);  // never staged
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setstacksize(&attr, std::size_t{1} << 46);
        if (pthread_setattr_default_np(&attr) != 0) std::_Exit(2);
        const WorkloadProfile& p = *find_profile("gcc-like");
        TraceGenerator ref(p, 5);
        const std::vector<Instr> want = drain(ref, 1000);
        TraceGenerator gen(p, 5);
        ThreadBudget jobs(4);
        int code = 0;
        ThreadBudget::Slots(jobs, 1).run([&] {
          TraceFrontEnd front = stage_if_free(gen, 1000);
          if (front.staged()) code = 3;
          else if (jobs.in_use() != 1) code = 4;
          else if (process.in_use() != process0 + 1) code = 5;
          else if (const std::vector<Instr> got = drain(front.source(), 1000);
                   !std::equal(got.begin(), got.end(), want.begin(),
                               want.end(), same))
            code = 6;
        });
        if (code == 0 && (jobs.in_use() != 0 || process.in_use() != process0))
          code = 7;
        std::_Exit(code);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace mapg

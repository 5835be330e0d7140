// Unit tests for the core model: issue timing, dependence stalls, MLP
// crediting, stall-event reporting, and the StallHandler contract.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "mem/hierarchy.h"
#include "trace/trace_io.h"

namespace mapg {
namespace {

HierarchyConfig tiny_mem() {
  HierarchyConfig h;
  h.l1d = CacheConfig{.name = "L1D",
                      .size_bytes = 1024,
                      .assoc = 2,
                      .line_bytes = 64,
                      .hit_latency = 3};
  h.l2 = CacheConfig{.name = "L2",
                     .size_bytes = 8192,
                     .assoc = 4,
                     .line_bytes = 64,
                     .hit_latency = 12};
  h.mc_request_latency = 10;
  h.fill_return_latency = 15;
  return h;
}

Instr alu() { return Instr{.op = OpClass::kAlu}; }
Instr load(Addr a, std::uint16_t dep) {
  return Instr{.op = OpClass::kLoad, .dep_dist = dep, .addr = a};
}

/// Distinct cold addresses guaranteed to miss to DRAM (new row each).
Addr cold(int i) { return 1 << 20 | static_cast<Addr>(i) * 16384; }

struct RecordingHandler final : StallHandler {
  std::vector<StallEvent> events;
  Cycle extra = 0;  ///< penalty added beyond data_ready
  Cycle on_stall(const StallEvent& ev) override {
    events.push_back(ev);
    return ev.data_ready + extra;
  }
};

struct UnderbidHandler final : StallHandler {
  Cycle on_stall(const StallEvent& ev) override {
    return ev.start;  // tries to resume before the data is ready
  }
};

CoreStats run_core(const std::vector<Instr>& prog, MemoryHierarchy& mem,
                   StallHandler* h = nullptr, CoreConfig cfg = {}) {
  VectorTraceSource src(prog);
  Core core(cfg, mem, h);
  core.run(src, prog.size());
  return core.stats();
}

TEST(Core, PureAluRunsAtIpcOne) {
  MemoryHierarchy mem(tiny_mem());
  const std::vector<Instr> prog(1000, alu());
  const CoreStats s = run_core(prog, mem);
  EXPECT_EQ(s.instrs, 1000u);
  EXPECT_EQ(s.cycles, 1000u);
  EXPECT_DOUBLE_EQ(s.ipc(), 1.0);
  EXPECT_EQ(s.idle_cycles(), 0u);
  EXPECT_EQ(s.busy_cycles(), 1000u);
}

TEST(Core, DivBlocksIssueForItsLatency) {
  MemoryHierarchy mem(tiny_mem());
  CoreConfig cfg;
  std::vector<Instr> prog(10, Instr{.op = OpClass::kDiv});
  const CoreStats s = run_core(prog, mem, nullptr, cfg);
  EXPECT_EQ(s.cycles, 10 * cfg.div_latency);
  EXPECT_EQ(s.idle_cycles(), 0u);  // the divider is busy, not idle
}

TEST(Core, MulAndFpArePipelined) {
  MemoryHierarchy mem(tiny_mem());
  std::vector<Instr> prog;
  for (int i = 0; i < 50; ++i) {
    prog.push_back(Instr{.op = OpClass::kMul});
    prog.push_back(Instr{.op = OpClass::kFp});
    prog.push_back(Instr{.op = OpClass::kBranch});
  }
  const CoreStats s = run_core(prog, mem);
  EXPECT_EQ(s.cycles, 150u);
}

TEST(Core, L1HitDependenceStallsForHitLatency) {
  MemoryHierarchy mem2(tiny_mem());
  mem2.load(0, 0);  // pre-fill line 0; lands ~cycle 592 (t=0 refresh window)
  RecordingHandler h;
  // Pad with leading ALUs so the load issues after the fill has landed and
  // hits in L1: load(0) at t completes t+3; its consumer at t+1 waits 2.
  std::vector<Instr> padded(700, alu());
  padded.push_back(load(0, 1));
  padded.push_back(alu());
  padded.push_back(alu());
  Core core({}, mem2, &h);
  VectorTraceSource src(padded);
  core.run(src, padded.size());
  ASSERT_EQ(h.events.size(), 1u);
  EXPECT_FALSE(h.events[0].dram);
  EXPECT_EQ(h.events[0].length(), 2u);  // hit latency 3, issued 1 cycle ago
  EXPECT_EQ(core.stats().stall_cycles_other, 2u);
  EXPECT_EQ(core.stats().stalls_other, 1u);
}

TEST(Core, DepDistZeroNeverStalls) {
  MemoryHierarchy mem(tiny_mem());
  std::vector<Instr> prog;
  for (int i = 0; i < 20; ++i) {
    prog.push_back(load(cold(i), 0));  // prefetch-like: no consumer
    for (int j = 0; j < 30; ++j) prog.push_back(alu());
  }
  CoreConfig cfg;
  cfg.mlp_window = 64;  // never hit the credit limit
  const CoreStats s = run_core(prog, mem, nullptr, cfg);
  EXPECT_EQ(s.stalls_dram + s.stalls_other, 0u);
  EXPECT_EQ(s.cycles, prog.size());
}

TEST(Core, DramDependenceStallReportsEventFields) {
  MemoryHierarchy mem(tiny_mem());
  RecordingHandler h;
  const std::vector<Instr> prog = {load(cold(0), 2), alu(), alu(), alu()};
  Core core({}, mem, &h);
  VectorTraceSource src(prog);
  core.run(src, prog.size());
  ASSERT_EQ(h.events.size(), 1u);
  const StallEvent& ev = h.events[0];
  EXPECT_TRUE(ev.dram);
  EXPECT_EQ(ev.reason, StallReason::kDependence);
  EXPECT_EQ(ev.start, 2u);  // load at 0, alu at 1, consumer blocks at 2
  EXPECT_GT(ev.data_ready, ev.start + 100);  // a DRAM round trip
  EXPECT_GT(ev.commit, 0u);
  EXPECT_LE(ev.commit, ev.data_ready);
  EXPECT_GT(ev.estimate, ev.start);
  EXPECT_EQ(core.stats().stalls_dram, 1u);
  EXPECT_EQ(core.stats().dram_stall_hist.total(), 1u);
}

TEST(Core, HandlerPenaltyDelaysResumeAndIsCounted) {
  MemoryHierarchy mem_a(tiny_mem()), mem_b(tiny_mem());
  const std::vector<Instr> prog = {load(cold(0), 1), alu(), alu()};
  RecordingHandler none;
  const CoreStats base = run_core(prog, mem_a, &none);
  RecordingHandler pay;
  pay.extra = 25;
  const CoreStats slow = run_core(prog, mem_b, &pay);
  EXPECT_EQ(slow.cycles, base.cycles + 25);
  EXPECT_EQ(slow.penalty_cycles, 25u);
  EXPECT_EQ(base.penalty_cycles, 0u);
  // The raw stall length is identical; only the penalty differs.
  EXPECT_EQ(slow.stall_cycles_dram, base.stall_cycles_dram);
}

TEST(Core, HandlerCannotResumeBeforeDataReady) {
  MemoryHierarchy mem_a(tiny_mem()), mem_b(tiny_mem());
  const std::vector<Instr> prog = {load(cold(0), 1), alu(), alu()};
  UnderbidHandler under;
  const CoreStats clamped = run_core(prog, mem_a, &under);
  RecordingHandler none;
  const CoreStats base = run_core(prog, mem_b, &none);
  EXPECT_EQ(clamped.cycles, base.cycles);
}

TEST(Core, MlpWindowLimitsOutstandingMisses) {
  CoreConfig cfg;
  cfg.mlp_window = 2;
  MemoryHierarchy mem(tiny_mem());
  RecordingHandler h;
  // Three back-to-back independent DRAM loads: the third must wait for a
  // credit (kMlpLimit), even with no data dependences.
  const std::vector<Instr> prog = {load(cold(0), 0), load(cold(1), 0),
                                   load(cold(2), 0), alu()};
  Core core(cfg, mem, &h);
  VectorTraceSource src(prog);
  core.run(src, prog.size());
  ASSERT_GE(h.events.size(), 1u);
  EXPECT_EQ(h.events[0].reason, StallReason::kMlpLimit);
  EXPECT_TRUE(h.events[0].dram);
  EXPECT_EQ(core.stats().mlp_limit_stalls, 1u);
}

TEST(Core, WideMlpWindowOverlapsMisses) {
  // With enough credits, k independent DRAM misses overlap: total time is
  // far below k serialized round trips.
  CoreConfig narrow, wide;
  narrow.mlp_window = 1;
  wide.mlp_window = 16;
  std::vector<Instr> prog;
  for (int i = 0; i < 16; ++i) prog.push_back(load(cold(i), 0));
  prog.push_back(load(cold(99), 1));  // final blocking consumer
  prog.push_back(alu());

  MemoryHierarchy mem_n(tiny_mem()), mem_w(tiny_mem());
  const CoreStats sn = run_core(prog, mem_n, nullptr, narrow);
  const CoreStats sw = run_core(prog, mem_w, nullptr, wide);
  EXPECT_LT(sw.cycles * 3, sn.cycles);  // overlap at least 3x faster
}

TEST(Core, ScoreboardKeepsLatestFinishingProducer) {
  MemoryHierarchy mem(tiny_mem());
  RecordingHandler h;
  // Two loads whose consumers collide on the same instruction: an L1-fast
  // load (dep 2) and a DRAM-slow load (dep 1) both feed instruction 2.
  // The stall must last until the *slow* one returns.
  mem.load(0, 0);  // warm line 0 so the first load hits in L1 later
  std::vector<Instr> prog(200, alu());  // let the warm fill land
  prog.push_back(load(0, 2));          // fast producer -> consumer +2
  prog.push_back(load(cold(5), 1));    // slow producer -> same consumer
  prog.push_back(alu());               // the shared consumer
  Core core({}, mem, &h);
  VectorTraceSource src(prog);
  core.run(src, prog.size());
  ASSERT_EQ(h.events.size(), 1u);
  EXPECT_TRUE(h.events[0].dram);             // classified by the slow one
  EXPECT_GT(h.events[0].length(), 100u);
}

TEST(Core, DepDistReachingScoreboardWindowThrows) {
  // The scoreboard is a ring of `window` slots, so a consumer `window` or
  // more instructions ahead has no slot of its own; window - 1 is the
  // farthest a load may reach.
  CoreConfig cfg;
  cfg.scoreboard_window = 37;
  MemoryHierarchy mem(tiny_mem());
  EXPECT_EQ(run_core({alu(), load(0, 36), alu()}, mem, nullptr, cfg).instrs,
            3u);

  Core core(cfg, mem);
  VectorTraceSource src({alu(), alu(), alu(), load(64, 37)});
  try {
    core.run(src, 4);
    ADD_FAILURE() << "dep_dist == window accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("instruction 3"), std::string::npos) << what;
    EXPECT_NE(what.find("dep_dist 37"), std::string::npos) << what;
    EXPECT_NE(what.find("window of 37"), std::string::npos) << what;
    EXPECT_NE(what.find("core.scoreboard"), std::string::npos) << what;
  }
}

TEST(Core, StoresNeverBlockIssue) {
  MemoryHierarchy mem(tiny_mem());
  std::vector<Instr> prog;
  for (int i = 0; i < 100; ++i)
    prog.push_back(Instr{.op = OpClass::kStore,
                         .addr = cold(i)});
  const CoreStats s = run_core(prog, mem);
  EXPECT_EQ(s.cycles, 100u);
  EXPECT_EQ(s.idle_cycles(), 0u);
}

TEST(Core, InstrClassCountsMatch) {
  MemoryHierarchy mem(tiny_mem());
  std::vector<Instr> prog;
  prog.insert(prog.end(), 5, alu());
  prog.insert(prog.end(), 3, Instr{.op = OpClass::kMul});
  prog.insert(prog.end(), 2, Instr{.op = OpClass::kStore, .addr = 0});
  const CoreStats s = run_core(prog, mem);
  EXPECT_EQ(s.instr_by_class[static_cast<int>(OpClass::kAlu)], 5u);
  EXPECT_EQ(s.instr_by_class[static_cast<int>(OpClass::kMul)], 3u);
  EXPECT_EQ(s.instr_by_class[static_cast<int>(OpClass::kStore)], 2u);
  EXPECT_EQ(s.instrs, 10u);
}

TEST(Core, ResetStatsCountsOnlyNewWork) {
  MemoryHierarchy mem(tiny_mem());
  VectorTraceSource src(std::vector<Instr>(500, alu()));
  Core core({}, mem);
  core.run(src, 200);
  core.reset_stats();
  core.run(src, 300);
  EXPECT_EQ(core.stats().instrs, 300u);
  EXPECT_EQ(core.stats().cycles, 300u);
  EXPECT_EQ(core.now(), 500u);  // absolute time keeps running
}

TEST(Core, MergedLoadsDoNotConsumeMlpCredits) {
  CoreConfig cfg;
  cfg.mlp_window = 1;
  MemoryHierarchy mem(tiny_mem());
  RecordingHandler h;
  // Two loads to the SAME line back-to-back: the second merges into the
  // in-flight fill and must not trigger an MLP-limit stall.
  const std::vector<Instr> prog = {load(cold(0), 0), load(cold(0) + 8, 0),
                                   alu()};
  Core core(cfg, mem, &h);
  VectorTraceSource src(prog);
  core.run(src, prog.size());
  EXPECT_EQ(core.stats().mlp_limit_stalls, 0u);
  EXPECT_EQ(core.stats().cycles, 3u);
}

TEST(Core, IssueWidthTwoHalvesAluTime) {
  MemoryHierarchy mem(tiny_mem());
  CoreConfig wide;
  wide.issue_width = 2;
  const std::vector<Instr> prog(1000, alu());
  const CoreStats s = run_core(prog, mem, nullptr, wide);
  EXPECT_EQ(s.cycles, 500u);
  EXPECT_DOUBLE_EQ(s.ipc(), 2.0);
}

TEST(Core, IssueWidthRoundsUpPartialGroups) {
  MemoryHierarchy mem(tiny_mem());
  CoreConfig wide;
  wide.issue_width = 4;
  const std::vector<Instr> prog(10, alu());  // 2 full groups + 2 leftovers
  const CoreStats s = run_core(prog, mem, nullptr, wide);
  EXPECT_EQ(s.cycles, 2u);  // leftovers issued in cycle 2, clock not bumped
}

TEST(Core, DivFlushesIssueGroup) {
  MemoryHierarchy mem(tiny_mem());
  CoreConfig wide;
  wide.issue_width = 2;
  // alu+div+alu+alu: alu at slot0; div flushes (+20); then two alus pair up.
  const std::vector<Instr> prog = {alu(), Instr{.op = OpClass::kDiv}, alu(),
                                   alu()};
  const CoreStats s = run_core(prog, mem, nullptr, wide);
  EXPECT_EQ(s.cycles, wide.div_latency + 1);
}

TEST(Core, WiderIssueIncreasesMemoryPressureStalls) {
  // The same load-heavy program on a wider core reaches its loads sooner, so
  // total runtime shrinks but the DRAM-stall share of time grows — the
  // mechanism behind the issue-width sensitivity in R-Tab.2.
  std::vector<Instr> prog;
  for (int i = 0; i < 50; ++i) {
    prog.push_back(load(cold(i), 2));
    for (int j = 0; j < 20; ++j) prog.push_back(alu());
  }
  CoreConfig narrow, wide;
  wide.issue_width = 4;
  MemoryHierarchy mem_n(tiny_mem()), mem_w(tiny_mem());
  const CoreStats sn = run_core(prog, mem_n, nullptr, narrow);
  const CoreStats sw = run_core(prog, mem_w, nullptr, wide);
  EXPECT_LT(sw.cycles, sn.cycles);
  const double frac_n = static_cast<double>(sn.stall_cycles_dram) /
                        static_cast<double>(sn.cycles);
  const double frac_w = static_cast<double>(sw.stall_cycles_dram) /
                        static_cast<double>(sw.cycles);
  EXPECT_GT(frac_w, frac_n);
}

TEST(Core, CyclesDecomposeIntoBusyAndIdle) {
  MemoryHierarchy mem(tiny_mem());
  RecordingHandler h;
  h.extra = 10;
  std::vector<Instr> prog;
  for (int i = 0; i < 20; ++i) {
    prog.push_back(load(cold(i), 1));
    prog.push_back(alu());
    for (int j = 0; j < 5; ++j) prog.push_back(alu());
  }
  Core core({}, mem, &h);
  VectorTraceSource src(prog);
  core.run(src, prog.size());
  const CoreStats& s = core.stats();
  EXPECT_EQ(s.busy_cycles() + s.idle_cycles(), s.cycles);
  EXPECT_EQ(s.penalty_cycles, 10u * s.stalls_dram);
}

}  // namespace
}  // namespace mapg

// Multi-standard DRAM timing table, the page-policy axis, and the FR-FCFS
// posted-write queue (docs/DRAM.md): preset/default identity, parse round
// trips, depth-0 bit-identity, the starvation bound as a property, row-hit
// ordering, overflow, drain completeness, and exact page-policy latencies.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/prng.h"
#include "core/sim.h"
#include "mem/dram.h"
#include "power/dram_energy.h"

namespace mapg {
namespace {

Addr make_line(const DramConfig& c, std::uint32_t channel, std::uint32_t bank,
               std::uint64_t row, std::uint64_t col = 0) {
  std::uint64_t line_no = row;
  line_no = line_no * c.banks_per_channel + bank;
  line_no = line_no * c.lines_per_row() + col;
  line_no = line_no * c.channels + channel;
  return line_no * c.line_bytes;
}

// ---------------------------------------------------------------------------
// Standard table
// ---------------------------------------------------------------------------

// The DDR3-1600 preset IS the default DramConfig: this is what makes
// --dram-standard=ddr3-1600 byte-identical to a default run, and what keeps
// every historical golden valid.  apply_dram_standard's DDR3 block and the
// member initializers in mem/dram.h must never drift apart.
TEST(StandardTable, Ddr3PresetIsTheDefault) {
  const DramConfig def;
  DramConfig c;
  apply_dram_standard(c, DramStandard::kDdr3_1600);
  EXPECT_EQ(c.row_bytes, def.row_bytes);
  EXPECT_EQ(c.t_rcd, def.t_rcd);
  EXPECT_EQ(c.t_rp, def.t_rp);
  EXPECT_EQ(c.t_cl, def.t_cl);
  EXPECT_EQ(c.t_bl, def.t_bl);
  EXPECT_EQ(c.t_ras, def.t_ras);
  EXPECT_EQ(c.t_rfc, def.t_rfc);
  EXPECT_EQ(c.t_refi, def.t_refi);
  EXPECT_EQ(c.power.t_pd, def.power.t_pd);
  EXPECT_EQ(c.power.t_xp, def.power.t_xp);
  EXPECT_EQ(c.power.t_cke, def.power.t_cke);
  EXPECT_EQ(c.power.t_xs, def.power.t_xs);
  EXPECT_EQ(c.power.powerdown_timeout, def.power.powerdown_timeout);
  EXPECT_EQ(c.standard, DramStandard::kDdr3_1600);  // == the default label
  EXPECT_EQ(def.standard, DramStandard::kDdr3_1600);
}

TEST(StandardTable, PresetsAreValidAndDistinct) {
  for (DramStandard s : {DramStandard::kDdr3_1600, DramStandard::kDdr4_2400,
                         DramStandard::kLpddr4_3200}) {
    SimConfig cfg;
    DramConfig& c = cfg.mem.dram;
    apply_dram_standard(c, s);
    EXPECT_NO_THROW(check_platform(cfg)) << to_string(s);
    EXPECT_EQ(c.standard, s);
  }
  DramConfig ddr4, lp4;
  apply_dram_standard(ddr4, DramStandard::kDdr4_2400);
  apply_dram_standard(lp4, DramStandard::kLpddr4_3200);
  EXPECT_EQ(ddr4.t_bl, 10u);       // 2400 MT/s moves a burst faster
  EXPECT_EQ(lp4.row_bytes, 2048u); // LPDDR4's small pages
  EXPECT_LT(lp4.t_refi, ddr4.t_refi);  // and its 3.9 us refresh interval
}

TEST(StandardTable, PresetLeavesOrthogonalAxesAlone) {
  DramConfig c;
  c.channels = 4;
  c.line_bytes = 128;
  c.page_policy = PagePolicy::kClosed;
  c.queue_depth = 8;
  c.power.mode = DramPowerMode::kCoordinated;
  c.power.selfrefresh_timeout = 5000;
  apply_dram_standard(c, DramStandard::kLpddr4_3200);
  EXPECT_EQ(c.channels, 4u);
  EXPECT_EQ(c.line_bytes, 128u);
  EXPECT_EQ(c.page_policy, PagePolicy::kClosed);
  EXPECT_EQ(c.queue_depth, 8u);
  EXPECT_EQ(c.power.mode, DramPowerMode::kCoordinated);
  EXPECT_EQ(c.power.selfrefresh_timeout, Cycle{5000});
}

TEST(StandardTable, CustomIsALabelOnly) {
  DramConfig c;
  c.t_cl = 77;
  apply_dram_standard(c, DramStandard::kCustom);
  EXPECT_EQ(c.t_cl, Cycle{77});
  EXPECT_EQ(c.standard, DramStandard::kCustom);
}

TEST(StandardTable, ParseRoundTrips) {
  for (DramStandard s : {DramStandard::kCustom, DramStandard::kDdr3_1600,
                         DramStandard::kDdr4_2400, DramStandard::kLpddr4_3200}) {
    DramStandard out = DramStandard::kCustom;
    EXPECT_TRUE(parse_dram_standard(to_string(s), out));
    EXPECT_EQ(out, s);
  }
  for (PagePolicy p :
       {PagePolicy::kOpen, PagePolicy::kClosed, PagePolicy::kHybrid}) {
    PagePolicy out = PagePolicy::kOpen;
    EXPECT_TRUE(parse_page_policy(to_string(p), out));
    EXPECT_EQ(out, p);
  }
  DramStandard s = DramStandard::kDdr4_2400;
  EXPECT_FALSE(parse_dram_standard("ddr5-4800", s));
  EXPECT_EQ(s, DramStandard::kDdr4_2400);  // untouched on failure
  PagePolicy p = PagePolicy::kHybrid;
  EXPECT_FALSE(parse_page_policy("adaptive", p));
  EXPECT_EQ(p, PagePolicy::kHybrid);
}

TEST(StandardTable, EnergyPresetsValidAndOrdered) {
  const DramEnergyParams ddr3 =
      dram_energy_for_standard(DramStandard::kDdr3_1600);
  const DramEnergyParams ddr4 =
      dram_energy_for_standard(DramStandard::kDdr4_2400);
  const DramEnergyParams lp4 =
      dram_energy_for_standard(DramStandard::kLpddr4_3200);
  for (const DramEnergyParams& p : {ddr3, ddr4, lp4}) {
    SimConfig cfg;
    cfg.dram_energy = p;
    EXPECT_NO_THROW(check_platform(cfg));
  }
  // The process story: every generation trims background power, and the
  // mobile part's low-power states are an order of magnitude deeper.
  EXPECT_GT(ddr3.background_w_per_channel, ddr4.background_w_per_channel);
  EXPECT_GT(ddr4.background_w_per_channel, lp4.background_w_per_channel);
  EXPECT_GT(ddr3.powerdown_w_per_channel, lp4.powerdown_w_per_channel);
  EXPECT_GT(ddr3.selfrefresh_w_per_channel, lp4.selfrefresh_w_per_channel);
  // kCustom / kDdr3_1600 are the header defaults.
  const DramEnergyParams def;
  EXPECT_EQ(ddr3.background_w_per_channel, def.background_w_per_channel);
  EXPECT_EQ(dram_energy_for_standard(DramStandard::kCustom).read_nj,
            def.read_nj);
}

TEST(StandardTable, QueueConfigLegality) {
  SimConfig cfg;
  DramConfig& c = cfg.mem.dram;
  EXPECT_NO_THROW(check_platform(cfg));
  c.queue_depth = 4;
  EXPECT_NO_THROW(check_platform(cfg));
  c.write_starve_limit = 0;
  // A queue with no starvation bound is illegal.
  EXPECT_THROW(check_platform(cfg), std::invalid_argument);
  c.queue_depth = 0;
  // Depth 0 does not care about the bound.
  EXPECT_NO_THROW(check_platform(cfg));
  c.write_starve_limit = 512;
  c.hybrid_addr_bits = 64;
  EXPECT_THROW(check_platform(cfg), std::invalid_argument);  // shift width
}

// ---------------------------------------------------------------------------
// FR-FCFS posted-write queue
// ---------------------------------------------------------------------------

// A read-only stream never populates the queue, so any depth must be
// bit-identical to the legacy synchronous path — results AND stats.
TEST(Sched, ReadOnlyStreamIsDepthInvariant) {
  DramConfig legacy;
  DramConfig queued = legacy;
  queued.queue_depth = 16;
  Dram a(legacy), b(queued);

  Prng rng(7);
  Cycle now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += rng.range(0, 200);
    const Addr line = make_line(legacy, rng.range(0, legacy.channels - 1),
                                rng.range(0, legacy.banks_per_channel - 1),
                                rng.range(0, 63), rng.range(0, 7));
    const DramResult ra = a.access(line, /*is_write=*/false, now);
    const DramResult rb = b.access(line, /*is_write=*/false, now);
    ASSERT_EQ(ra.completion, rb.completion);
    ASSERT_EQ(ra.commit, rb.commit);
    ASSERT_EQ(ra.estimate, rb.estimate);
    ASSERT_EQ(ra.outcome, rb.outcome);
  }
  EXPECT_EQ(a.stats().row_hits, b.stats().row_hits);
  EXPECT_EQ(a.stats().refresh_delays, b.stats().refresh_delays);
  EXPECT_EQ(b.stats().writes_queued, 0u);
  EXPECT_EQ(b.stats().write_queue_peak, 0u);
}

TEST(Sched, WritesArePostedNotServiced) {
  DramConfig c;
  c.queue_depth = 8;
  Dram d(c);
  const DramResult r =
      d.access(make_line(c, 0, 0, /*row=*/1), /*is_write=*/true, 1000);
  EXPECT_EQ(r.completion, Cycle{1000});  // placeholder: posted, not serviced
  EXPECT_EQ(d.stats().writes, 0u);       // not issued yet
  EXPECT_EQ(d.stats().writes_queued, 1u);
  EXPECT_EQ(d.write_queue(0).size(), 1u);

  d.drain_writes(2000);
  EXPECT_EQ(d.stats().writes, 1u);
  EXPECT_EQ(d.stats().writes_drained, 1u);
  EXPECT_EQ(d.stats().write_wait_cycles, 1000u);
  EXPECT_EQ(d.stats().write_wait_max, 1000u);
  EXPECT_EQ(d.write_queue(0).size(), 0u);
}

// FR-FCFS core ordering: a read that misses the open row lets row-hitting
// writes issue first; a read that hits goes straight through.
TEST(Sched, RowHitWritesIssueBeforeAMissingRead) {
  DramConfig c;
  c.channels = 1;
  c.queue_depth = 8;
  c.write_starve_limit = 100000;  // keep the starvation bound out of the way
  Dram d(c);

  // Open row 5 in bank 0 (read at t=1000, past the cycle-0 refresh window).
  d.access(make_line(c, 0, 0, 5), false, 1000);
  // Post one write that hits the open row and one that does not.
  d.access(make_line(c, 0, 0, 5, /*col=*/1), true, 2000);  // row hit
  d.access(make_line(c, 0, 1, 9), true, 2000);             // bank 1: closed
  ASSERT_EQ(d.write_queue(0).size(), 2u);

  // A read to a DIFFERENT row of bank 0 misses -> the row-hitting write
  // issues first (as a row hit), the non-hitting write stays queued.
  const std::uint64_t writes_before = d.stats().writes;
  const std::uint64_t hits_before = d.stats().row_hits;
  d.access(make_line(c, 0, 0, 6), false, 3000);
  EXPECT_EQ(d.stats().writes, writes_before + 1);
  EXPECT_EQ(d.stats().row_hits, hits_before + 1);  // the write hit row 5
  ASSERT_EQ(d.write_queue(0).size(), 1u);
  std::uint32_t wch = 0, wbank = 0;
  std::uint64_t wrow = 0;
  d.map_address(d.write_queue(0)[0].line_addr, wch, wbank, wrow);
  EXPECT_EQ(wbank, 1u);  // the closed-bank write is the one left behind
  EXPECT_EQ(d.stats().writes_starved, 0u);  // ordering, not the bound
}

TEST(Sched, RowHitReadDoesNotWaitForQueuedWrites) {
  DramConfig c;
  c.channels = 1;
  c.queue_depth = 8;
  c.write_starve_limit = 100000;
  Dram d(c);

  d.access(make_line(c, 0, 0, 5), false, 1000);            // open row 5
  d.access(make_line(c, 0, 0, 5, /*col=*/1), true, 2000);  // row-hit write

  // The read also hits row 5: reads are latency-critical, so it wins the
  // tie and the write stays posted.
  const std::uint64_t writes_before = d.stats().writes;
  d.access(make_line(c, 0, 0, 5, /*col=*/2), false, 3000);
  EXPECT_EQ(d.stats().writes, writes_before);
  EXPECT_EQ(d.write_queue(0).size(), 1u);
}

TEST(Sched, OverflowForcesTheOldestWriteOut) {
  DramConfig c;
  c.channels = 1;
  c.queue_depth = 2;
  Dram d(c);

  d.access(make_line(c, 0, 0, 1), true, 1000);
  d.access(make_line(c, 0, 1, 2), true, 1100);
  EXPECT_EQ(d.stats().writes_overflowed, 0u);
  d.access(make_line(c, 0, 2, 3), true, 1200);  // third write: over depth 2
  EXPECT_EQ(d.stats().writes_overflowed, 1u);
  EXPECT_EQ(d.stats().writes, 1u);  // the forced issue

  const auto& q = d.write_queue(0);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q[0].enqueued, Cycle{1100});  // the t=1000 write was evicted
  EXPECT_EQ(q[1].enqueued, Cycle{1200});
  EXPECT_EQ(d.stats().write_queue_peak, 3u);  // peak counts the transient
}

TEST(Sched, SettlePowerDrainsTheQueue) {
  DramConfig c;
  c.queue_depth = 8;
  Dram d(c);
  for (int i = 0; i < 5; ++i)
    d.access(make_line(c, static_cast<std::uint32_t>(i % c.channels),
                       static_cast<std::uint32_t>(i % c.banks_per_channel),
                       static_cast<std::uint64_t>(i)),
             true, 1000 + static_cast<Cycle>(i));
  d.settle_power(5000);  // every snapshot point in the run loop calls this
  EXPECT_EQ(d.stats().writes, 5u);
  EXPECT_EQ(d.stats().writes_drained, 5u);
  for (std::uint32_t ch = 0; ch < c.channels; ++ch)
    EXPECT_TRUE(d.write_queue(ch).empty()) << ch;
}

TEST(Sched, DrainIsANoOpAtDepthZero) {
  Dram d(DramConfig{});
  d.access(make_line(DramConfig{}, 0, 0, 1), true, 1000);  // serviced inline
  EXPECT_EQ(d.stats().writes, 1u);
  d.drain_writes(2000);
  EXPECT_EQ(d.stats().writes_drained, 0u);
}

// The starvation bound as a property: at every read (= every scheduling
// point on the channel), no surviving queued write on that channel may have
// waited write_starve_limit cycles or more.  Single channel so every read is
// a scheduling point for every queued write.  Also checks conservation:
// every queued write is issued exactly once.
TEST(Sched, StarvationBoundHolds) {
  DramConfig c;
  c.channels = 1;
  c.queue_depth = 12;
  c.write_starve_limit = 300;
  Dram d(c);

  Prng rng(42);
  Cycle now = 0;
  for (int i = 0; i < 4000; ++i) {
    now += rng.range(1, 60);
    const Addr line = make_line(c, 0, rng.range(0, c.banks_per_channel - 1),
                                rng.range(0, 31), rng.range(0, 7));
    if (rng.bernoulli(0.4)) {
      d.access(line, true, now);
    } else {
      d.access(line, false, now);
      for (const Dram::PendingWrite& w : d.write_queue(0))
        ASSERT_LT(now - w.enqueued, c.write_starve_limit);
    }
  }
  d.settle_power(now + 10000);
  const DramStats& s = d.stats();
  EXPECT_EQ(s.reads + s.writes,
            s.reads + s.writes_queued);  // every write issued exactly once
  EXPECT_GT(s.writes_starved, 0u);      // the bound actually fired
  EXPECT_EQ(s.writes_queued,
            s.writes);  // nothing lost, nothing double-issued
  EXPECT_GE(s.write_wait_max, 1u);
  EXPECT_LE(s.write_queue_peak, static_cast<std::uint64_t>(c.queue_depth) + 1);
}

// ---------------------------------------------------------------------------
// Page-policy axis
// ---------------------------------------------------------------------------

// Exact latency pins for the closed policy (DDR3-1600 numbers, t=1000 lands
// after the cycle-0 refresh window [0, 480)):
//   first read, closed bank: ACT at 1000, column at 1041, data [1082, 1097).
//   auto-precharge: PRE at max(col + tBL, act + tRAS) = 1105, bank ready at
//   1105 + tRP = 1146.
//   second read of the SAME row at 2000: the row was closed, so it pays the
//   full ACT + CAS again — outcome kClosed, completion 2097, never kHit.
TEST(PagePolicyAxis, ClosedPolicyExactLatencies) {
  DramConfig c;
  c.page_policy = PagePolicy::kClosed;
  Dram d(c);
  const Addr line = make_line(c, 0, 0, /*row=*/3);

  const DramResult first = d.access(line, false, 1000);
  EXPECT_EQ(first.outcome, RowBufferOutcome::kClosed);
  EXPECT_EQ(first.commit, Cycle{1041});
  EXPECT_EQ(first.completion, Cycle{1097});
  EXPECT_EQ(d.bank_ready(0, 0), Cycle{1146});  // pre at 1105 + tRP 41

  const DramResult second = d.access(line, false, 2000);
  EXPECT_EQ(second.outcome, RowBufferOutcome::kClosed);  // never a hit
  EXPECT_EQ(second.completion, Cycle{2097});
  EXPECT_EQ(d.stats().row_hits, 0u);
  EXPECT_EQ(d.stats().row_conflicts, 0u);  // auto-precharge: no conflicts
}

TEST(PagePolicyAxis, OpenPolicySecondAccessHits) {
  Dram d(DramConfig{});  // kOpen
  const Addr line = make_line(DramConfig{}, 0, 0, 3);
  d.access(line, false, 1000);
  const DramResult second = d.access(line, false, 2000);
  EXPECT_EQ(second.outcome, RowBufferOutcome::kHit);
  EXPECT_EQ(second.completion, Cycle{2000 + 41 + 15});  // CAS + burst only
}

// Hybrid (HAPPY-style, hybrid_addr_bits = 2): rows with (row & 3) == 0
// close, all others stay open.
TEST(PagePolicyAxis, HybridClosesOnlyPredictedRows) {
  DramConfig c;
  c.page_policy = PagePolicy::kHybrid;
  c.hybrid_addr_bits = 2;
  Dram d(c);

  // Row 4 (4 & 3 == 0): treated as reuse-poor, closes.
  const Addr closing = make_line(c, 0, 0, 4);
  d.access(closing, false, 1000);
  EXPECT_EQ(d.access(closing, false, 2000).outcome, RowBufferOutcome::kClosed);

  // Row 5 (5 & 3 != 0): stays open.
  const Addr open = make_line(c, 0, 1, 5);
  d.access(open, false, 3000);
  EXPECT_EQ(d.access(open, false, 4000).outcome, RowBufferOutcome::kHit);
}

// The page policy composes with the write queue: a queued write to a row the
// policy closes leaves the bank closed after issue.
TEST(PagePolicyAxis, ClosedPolicyComposesWithQueue) {
  DramConfig c;
  c.channels = 1;
  c.page_policy = PagePolicy::kClosed;
  c.queue_depth = 4;
  Dram d(c);
  d.access(make_line(c, 0, 0, 2), true, 1000);  // posted
  d.drain_writes(2000);
  EXPECT_EQ(d.stats().writes, 1u);
  // The written row did not stay open: reading it again is kClosed.
  EXPECT_EQ(d.access(make_line(c, 0, 0, 2), false, 5000).outcome,
            RowBufferOutcome::kClosed);
}

}  // namespace
}  // namespace mapg

// Multi-standard main-memory timing model (DDR3 / DDR4 / LPDDR4 class).
//
// This is the substrate MAPG's early-wakeup mechanism depends on: once the
// controller issues the column command for a request, the data-return cycle
// is deterministic (tCL + burst + return path).  The model therefore reports,
// for every request, three timestamps:
//   estimate   -- the controller's latency estimate at enqueue time,
//   commit     -- the cycle at which the exact return time becomes known
//                 (column-command issue),
//   completion -- the cycle data leaves the DRAM data bus.
// The policy layer is only ever allowed to act on `estimate` before `commit`
// and on `completion` after it; the clairvoyant Oracle baseline may peek.
//
// Modeled: per-bank row buffers, activate/precharge/CAS timing, tRAS
// row-occupancy, per-channel data-bus contention, periodic refresh
// (tREFI/tRFC), per-channel low-power states (precharge power-down and
// self-refresh; see DramPowerConfig and docs/MEMORY_POWER.md), a
// named-standard timing table (DramStandard; apply_dram_standard), an
// explicit page-management policy axis (PagePolicy: open / closed /
// HAPPY-style hybrid keyed by row-address bits), and a per-channel FR-FCFS
// posted-write queue (row-hit-first, then oldest, with a starvation bound
// and a bounded depth; DramConfig::queue_depth, 0 = legacy synchronous
// service).  The full memory-model spec lives in docs/DRAM.md.
// Simplifications (documented in docs/DRAM.md §6): demand reads are serviced
// at arrival (the in-order core exposes at most its MLP window of reads, so
// arrival order is service order among reads; FR-FCFS reordering applies
// between an arriving read and the posted writes), single rank per channel,
// and refresh checked at request start -- where "start" includes any
// low-power exit shift, so a self-refresh exit that lands inside a refresh
// window pays the remainder of that window instead of silently skipping it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace mapg {

/// Named timing standards for the parameter table (docs/DRAM.md §2).  Every
/// timing field of DramConfig/DramPowerConfig stays individually overridable
/// after a preset is applied -- that is the custom path; kCustom itself is a
/// pure provenance label that applies no preset.
enum class DramStandard : std::uint8_t {
  kCustom = 0,      ///< hand-set parameters; apply_dram_standard is a no-op
  kDdr3_1600 = 1,   ///< DDR3-1600 CL11 (the historical repo default)
  kDdr4_2400 = 2,   ///< DDR4-2400 CL17, 8 Gb-class tRFC
  kLpddr4_3200 = 3, ///< LPDDR4-3200 RL28, 2 KiB pages, deep low-power states
};

/// Page-management policy axis (docs/DRAM.md §4; HAPPY, arXiv 1509.03740).
enum class PagePolicy : std::uint8_t {
  kOpen = 0,    ///< rows stay open until a conflict or low-power entry
  kClosed = 1,  ///< auto-precharge after every column command
  /// HAPPY-style hybrid: keep a row open iff a predictor keyed by the low
  /// `hybrid_addr_bits` bits of the row address says so (the degenerate
  /// address-indexed table: rows whose selected bits are all zero close).
  kHybrid = 2,
};

const char* to_string(DramStandard s);
const char* to_string(PagePolicy p);
/// Parse "ddr3-1600" / "ddr4-2400" / "lpddr4-3200" / "custom" (and the
/// page-policy spellings "open" / "closed" / "hybrid").  Return false and
/// leave `out` untouched on an unrecognized name.
bool parse_dram_standard(const std::string& name, DramStandard& out);
bool parse_page_policy(const std::string& name, PagePolicy& out);

/// DRAM low-power operating mode (docs/MEMORY_POWER.md).
enum class DramPowerMode : std::uint8_t {
  kOff = 0,      ///< always-active background power (legacy behavior)
  kTimeout = 1,  ///< controller-side idle timeouts drive PD / self-refresh
  /// The power-gating controller coordinates channel power-down with core
  /// gating: residency is accounted in GatingStats (src/pg/dram_coordinator.h)
  /// and the DRAM-side timeout machinery stays off, so the two accounting
  /// paths never overlap.
  kCoordinated = 2,
};

/// Low-power state parameters.  All timing in core cycles; defaults are
/// DDR3-1600 datasheet values (tCK 1.25 ns) seen from a 3 GHz core -- see the
/// per-standard parameter table in docs/DRAM.md §2 for the ns-level sources
/// (apply_dram_standard rewrites these fields per standard).
struct DramPowerConfig {
  DramPowerMode mode = DramPowerMode::kOff;

  Cycle t_pd = 8;    ///< CKE-low to low-power state established (tCPDED-class)
  Cycle t_xp = 18;   ///< power-down exit to first valid command (tXP, 6 ns)
  Cycle t_cke = 17;  ///< minimum CKE-low pulse width (tCKE(min), 5.625 ns)
  Cycle t_xs = 510;  ///< self-refresh exit to first command (tXS ~ tRFC+10 ns)

  /// Idle cycles before the timeout controller drops a channel into
  /// precharge power-down (0 disables the state).  Only used in kTimeout.
  Cycle powerdown_timeout = 192;
  /// Idle cycles before the timeout controller escalates an idle channel to
  /// self-refresh (0 disables the state).  Only used in kTimeout.
  Cycle selfrefresh_timeout = 0;

  bool enabled() const { return mode != DramPowerMode::kOff; }
  bool valid() const {
    if (mode == DramPowerMode::kOff) return true;
    if (t_pd == 0 || t_xp == 0 || t_cke == 0) return false;
    if (t_xs < t_xp) return false;
    if (powerdown_timeout > 0 && selfrefresh_timeout > 0 &&
        selfrefresh_timeout < powerdown_timeout)
      return false;
    return true;
  }
};

/// All timing in *core* cycles.  Defaults: DDR3-1600 (tCK 1.25 ns, CL 11)
/// seen from a 3 GHz core -- identical to apply_dram_standard(kDdr3_1600),
/// so a default-constructed config IS the DDR3-1600 preset.
struct DramConfig {
  std::uint32_t channels = 2;
  std::uint32_t banks_per_channel = 8;
  std::uint32_t line_bytes = 64;
  std::uint32_t row_bytes = 8192;  ///< row-buffer (page) size

  Cycle t_rcd = 41;   ///< ACT -> column command
  Cycle t_rp = 41;    ///< PRE -> ACT
  Cycle t_cl = 41;    ///< column command -> first data beat
  Cycle t_bl = 15;    ///< burst duration on the data bus (BL8)
  Cycle t_ras = 105;  ///< ACT -> earliest PRE
  Cycle t_rfc = 480;  ///< refresh duration
  Cycle t_refi = 23400;  ///< refresh interval

  /// Provenance label for the timing set above (set by apply_dram_standard
  /// and the `dram.standard` config key).  Informational plus part of the
  /// experiment identity; the cycle-level behavior is fully determined by
  /// the individual fields.
  DramStandard standard = DramStandard::kDdr3_1600;

  /// Page-management policy (docs/DRAM.md §4).
  PagePolicy page_policy = PagePolicy::kOpen;
  /// Row-address bits consulted by PagePolicy::kHybrid.
  std::uint32_t hybrid_addr_bits = 2;

  /// Per-channel FR-FCFS posted-write queue depth.  0 = legacy synchronous
  /// service (writes issue at arrival, bit-identical to the historical
  /// model).  >0 = victim/writeback writes are posted into a per-channel
  /// queue and scheduled row-hit-first, then oldest, around demand reads.
  std::uint32_t queue_depth = 0;
  /// A queued write older than this (cycles) issues ahead of everything at
  /// the next scheduling point on its channel -- the FR-FCFS starvation
  /// bound.  Must be >0 when queue_depth > 0.
  Cycle write_starve_limit = 512;

  DramPowerConfig power{};  ///< low-power states (off by default)

  /// Typical no-contention latency quoted by the controller as its enqueue
  /// estimate for requests whose service time is not yet committed.
  Cycle estimate_latency() const { return t_rcd + t_cl + t_bl; }

  std::uint32_t lines_per_row() const { return row_bytes / line_bytes; }
  bool valid() const;
};

/// Overwrite the timing-table fields of `cfg` (row_bytes, tRCD/tRP/tCL/tBL/
/// tRAS/tRFC/tREFI, and the low-power tPD/tXP/tCKE/tXS + powerdown timeout)
/// with the named standard's preset, and stamp cfg.standard.  Channel/bank
/// geometry, line size, page policy, queue knobs, the power MODE, and the
/// self-refresh timeout are left untouched (orthogonal axes).  kCustom only
/// stamps the label.  Cycle values assume a 3 GHz core; docs/DRAM.md §2
/// records the ns-level datasheet provenance.
void apply_dram_standard(DramConfig& cfg, DramStandard standard);

enum class RowBufferOutcome : std::uint8_t {
  kHit,       ///< open row matched
  kClosed,    ///< bank had no open row
  kConflict,  ///< different row open; precharge required
};

struct DramResult {
  Cycle completion = 0;  ///< last data beat has left the bus
  Cycle commit = 0;      ///< column-command issue: return time now exact
  Cycle estimate = 0;    ///< controller estimate at enqueue
  RowBufferOutcome outcome = RowBufferOutcome::kClosed;
  std::uint32_t channel = 0;
  std::uint32_t bank = 0;
};

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_closed = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t refresh_delays = 0;
  RunningStat read_latency;  ///< enqueue -> completion, reads only

  // FR-FCFS posted-write queue (all zero when DramConfig::queue_depth == 0).
  // Every queued write is eventually issued by exactly one of the three
  // issue causes, so
  //   writes_queued == writes_starved + writes_overflowed + writes_drained
  //                    + (writes issued by row-hit / read-order scheduling)
  // and writes (above) counts each write once, at issue.
  std::uint64_t writes_queued = 0;      ///< writes that entered the queue
  std::uint64_t writes_starved = 0;     ///< issued by the starvation bound
  std::uint64_t writes_overflowed = 0;  ///< issued because the queue was full
  std::uint64_t writes_drained = 0;     ///< issued by drain_writes()
  std::uint64_t write_queue_peak = 0;   ///< max per-channel occupancy seen
  std::uint64_t write_wait_cycles = 0;  ///< total enqueue -> issue wait
  std::uint64_t write_wait_max = 0;     ///< worst single enqueue -> issue wait

  // Low-power residency (channel-cycles; every accounted channel-cycle is in
  // exactly one of the four classes, so
  //   active + refresh + powerdown + selfrefresh == accounted
  // is an equality -- enforced by tests/test_dram_power.cpp).  All zero when
  // DramPowerConfig::mode != kTimeout.
  std::uint64_t active_cycles = 0;       ///< busy, idle-shallow, entry/exit
  std::uint64_t refresh_cycles = 0;      ///< in a refresh window (not in LP)
  std::uint64_t powerdown_cycles = 0;    ///< precharge power-down established
  std::uint64_t selfrefresh_cycles = 0;  ///< self-refresh established
  std::uint64_t powerdown_entries = 0;
  std::uint64_t selfrefresh_entries = 0;
  std::uint64_t lowpower_exit_delay = 0;  ///< total tXP/tXS cycles imposed

  std::uint64_t accounted_cycles() const {
    return active_cycles + refresh_cycles + powerdown_cycles +
           selfrefresh_cycles;
  }

  double row_hit_rate() const {
    const std::uint64_t n = row_hits + row_closed + row_conflicts;
    return n ? static_cast<double>(row_hits) / static_cast<double>(n) : 0.0;
  }
};

class Dram {
 public:
  /// A posted write awaiting FR-FCFS issue (queue_depth > 0 only).
  struct PendingWrite {
    Addr line_addr = 0;
    Cycle enqueued = 0;  ///< controller arrival time
  };

  explicit Dram(DramConfig config);
  ~Dram();  ///< flushes residency tallies into the obs registry

  /// Service one line-granular request arriving at the controller at `now`.
  /// `now` must be monotonically non-decreasing across calls.  With
  /// queue_depth > 0, writes are posted (queued; the returned result is a
  /// placeholder whose completion==now — no caller consumes write
  /// completions, see MemoryHierarchy) and reads trigger FR-FCFS
  /// arbitration against the channel's queued writes.
  DramResult access(Addr line_addr, bool is_write, Cycle now);

  /// Issue every queued posted write at `now` (oldest first, per channel).
  /// Called from settle_power() so every stats snapshot point in the run
  /// loop flushes the write buffer; also available directly for tests.
  void drain_writes(Cycle now);

  /// Earliest cycle at which the controller could accept and serve a request
  /// to an idle bank (used by tests and the controller occupancy stats).
  Cycle bank_ready(std::uint32_t channel, std::uint32_t bank) const;

  /// Flush the posted-write queue, then fold idle time up to `now` into the
  /// low-power residency counters (kTimeout mode; residency is a no-op
  /// otherwise).  Idempotent; call with non-decreasing `now` before
  /// snapshotting stats so trailing idle is classified.  Does not disturb
  /// timing state beyond the flushed writes: a later access still sees the
  /// correct power-down / self-refresh exit penalty.
  void settle_power(Cycle now);

  const DramConfig& config() const { return config_; }
  const DramStats& stats() const { return stats_; }
  void reset_stats() { stats_ = DramStats{}; }

  /// The channel's posted writes still waiting to issue, oldest first
  /// (always empty when queue_depth == 0).  For tests.
  const std::vector<PendingWrite>& write_queue(std::uint32_t channel) const {
    return channels_[channel].write_queue;
  }

  /// Decompose an address for tests.
  void map_address(Addr line_addr, std::uint32_t& channel, std::uint32_t& bank,
                   std::uint64_t& row) const;

 private:
  /// Per-bank row-buffer and command-timing state.
  struct Bank {
    std::uint64_t open_row = ~0ULL;
    bool row_open = false;
    Cycle ready_at = 0;     ///< earliest next command dispatch
    Cycle activated_at = 0; ///< for the tRAS constraint
  };
  struct Channel {
    std::vector<Bank> banks;
    Cycle bus_free_at = 0;
    /// FR-FCFS posted-write queue, oldest first (empty when queue_depth==0).
    std::vector<PendingWrite> write_queue;
    // Low-power accounting (kTimeout mode only).
    Cycle idle_from = 0;        ///< cycle the channel last went idle
    Cycle accounted_until = 0;  ///< residency classified up to here
  };

  Cycle skip_refresh(Cycle start);
  /// Refresh-window overlap with [begin, end) (closed form, same recurrence
  /// as power/interval_energy.h::refresh_window_overlap).
  Cycle refresh_overlap(Cycle begin, Cycle end) const;
  /// Classify channel-cycles [ch.accounted_until, upto) into
  /// active/refresh/powerdown/selfrefresh residency.
  void settle_channel(Channel& ch, Cycle upto);
  /// Settle the channel at a request arriving at `now`, close any low-power
  /// state it is in, and return the extra delay before the first command
  /// (tXP with the tCKE(min) hold, or tXS).  Precharge power-down closes the
  /// channel's open rows.
  Cycle power_exit_shift(Channel& ch, Cycle now);
  /// The single-request service path (the historical access() body): power
  /// exit, refresh, row outcome, bus contention, page-policy close, stats.
  DramResult service_request(Channel& ch, std::uint32_t ch_idx,
                             std::uint32_t bank_idx, std::uint64_t row,
                             bool is_write, Cycle now);
  /// Pop and service the write at queue position `pos` at time `now`.
  void issue_queued_write(Channel& ch, std::uint32_t ch_idx, std::size_t pos,
                          Cycle now);
  /// FR-FCFS arbitration ahead of a demand read to (bank_idx, row): first
  /// issue starved writes (oldest first), then — if the read itself would
  /// not row-hit — issue row-hitting writes (oldest first).
  void schedule_before_read(Channel& ch, std::uint32_t ch_idx,
                            std::uint32_t bank_idx, std::uint64_t row,
                            Cycle now);
  /// True when the page policy closes this row after a column command.
  bool policy_closes_row(std::uint64_t row) const;

  DramConfig config_;
  std::vector<Channel> channels_;
  DramStats stats_;
};

}  // namespace mapg

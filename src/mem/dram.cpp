#include "mem/dram.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/obs.h"

namespace mapg {

namespace {
/// Sentinel for "this transition never happens".
constexpr Cycle kNever = ~Cycle{0};
}  // namespace

const char* to_string(DramStandard s) {
  switch (s) {
    case DramStandard::kCustom: return "custom";
    case DramStandard::kDdr3_1600: return "ddr3-1600";
    case DramStandard::kDdr4_2400: return "ddr4-2400";
    case DramStandard::kLpddr4_3200: return "lpddr4-3200";
  }
  return "custom";
}

const char* to_string(PagePolicy p) {
  switch (p) {
    case PagePolicy::kOpen: return "open";
    case PagePolicy::kClosed: return "closed";
    case PagePolicy::kHybrid: return "hybrid";
  }
  return "open";
}

bool parse_dram_standard(const std::string& name, DramStandard& out) {
  if (name == "custom") out = DramStandard::kCustom;
  else if (name == "ddr3-1600") out = DramStandard::kDdr3_1600;
  else if (name == "ddr4-2400") out = DramStandard::kDdr4_2400;
  else if (name == "lpddr4-3200") out = DramStandard::kLpddr4_3200;
  else return false;
  return true;
}

bool parse_page_policy(const std::string& name, PagePolicy& out) {
  if (name == "open") out = PagePolicy::kOpen;
  else if (name == "closed") out = PagePolicy::kClosed;
  else if (name == "hybrid") out = PagePolicy::kHybrid;
  else return false;
  return true;
}

void apply_dram_standard(DramConfig& cfg, DramStandard standard) {
  // Core cycles at 3 GHz: cycles = ceil(ns * 3).  Datasheet provenance for
  // every row is tabulated in docs/DRAM.md §2; the DDR3-1600 column must
  // stay equal to DramConfig's member defaults (pinned by
  // tests/test_dram_sched.cpp: StandardTable.Ddr3PresetIsTheDefault).
  cfg.standard = standard;
  switch (standard) {
    case DramStandard::kCustom:
      break;  // label only; keep whatever the caller configured
    case DramStandard::kDdr3_1600:
      // DDR3-1600 CL11-11-11, 4 Gb x8, 8 KiB row (tCK 1.25 ns).
      cfg.row_bytes = 8192;
      cfg.t_rcd = 41;     // 13.75 ns
      cfg.t_rp = 41;      // 13.75 ns
      cfg.t_cl = 41;      // 13.75 ns
      cfg.t_bl = 15;      // BL8 @ 1600 MT/s = 5 ns
      cfg.t_ras = 105;    // 35 ns
      cfg.t_rfc = 480;    // 160 ns (4 Gb)
      cfg.t_refi = 23400; // 7.8 us
      cfg.power.t_pd = 8;
      cfg.power.t_xp = 18;    // 6 ns
      cfg.power.t_cke = 17;   // 5.625 ns
      cfg.power.t_xs = 510;   // tRFC + 10 ns
      cfg.power.powerdown_timeout = 192;
      break;
    case DramStandard::kDdr4_2400:
      // DDR4-2400 CL17-17-17, 8 Gb x8, 8 KiB row (tCK 0.833 ns).
      cfg.row_bytes = 8192;
      cfg.t_rcd = 43;     // 14.16 ns
      cfg.t_rp = 43;      // 14.16 ns
      cfg.t_cl = 43;      // 14.16 ns
      cfg.t_bl = 10;      // BL8 @ 2400 MT/s = 3.33 ns
      cfg.t_ras = 96;     // 32 ns
      cfg.t_rfc = 1050;   // 350 ns (8 Gb)
      cfg.t_refi = 23400; // 7.8 us
      cfg.power.t_pd = 8;
      cfg.power.t_xp = 20;    // 6.4 ns
      cfg.power.t_cke = 15;   // 5 ns
      cfg.power.t_xs = 1080;  // tRFC + 10 ns
      cfg.power.powerdown_timeout = 192;
      break;
    case DramStandard::kLpddr4_3200:
      // LPDDR4-3200 RL28, 8 Gb x16, 2 KiB row (tCK 0.625 ns).
      cfg.row_bytes = 2048;
      cfg.t_rcd = 54;     // 18 ns
      cfg.t_rp = 54;      // 18 ns (tRPpb)
      cfg.t_cl = 53;      // RL28 = 17.5 ns
      cfg.t_bl = 15;      // BL16 @ 3200 MT/s = 5 ns
      cfg.t_ras = 126;    // 42 ns
      cfg.t_rfc = 840;    // 280 ns (tRFCab, 8 Gb)
      cfg.t_refi = 11700; // 3.9 us
      cfg.power.t_pd = 8;
      cfg.power.t_xp = 23;    // 7.5 ns
      cfg.power.t_cke = 23;   // 7.5 ns
      cfg.power.t_xs = 863;   // tRFCab + 7.5 ns (tXSR)
      cfg.power.powerdown_timeout = 96;  // mobile parts park aggressively
      break;
  }
}

bool DramConfig::valid() const {
  if (channels == 0 || banks_per_channel == 0) return false;
  if (line_bytes == 0 || !std::has_single_bit(line_bytes)) return false;
  if (row_bytes < line_bytes || row_bytes % line_bytes != 0) return false;
  if (t_cl == 0 || t_bl == 0) return false;
  if (t_refi > 0 && t_rfc >= t_refi) return false;
  if (queue_depth > 0 && write_starve_limit == 0) return false;
  if (hybrid_addr_bits >= 64) return false;
  if (!power.valid()) return false;
  return true;
}

Dram::Dram(DramConfig config) : config_(config) {
  assert(config_.valid() && "invalid DRAM configuration");
  channels_.resize(config_.channels);
  for (auto& ch : channels_) ch.banks.resize(config_.banks_per_channel);
}

Dram::~Dram() {
  MAPG_OBS_ONLY({
    if (stats_.powerdown_cycles || stats_.selfrefresh_cycles) {
      MAPG_OBS_COUNTER_ADD("sim.dram.powerdown_cycles",
                           stats_.powerdown_cycles);
      MAPG_OBS_COUNTER_ADD("sim.dram.selfrefresh_cycles",
                           stats_.selfrefresh_cycles);
      MAPG_OBS_COUNTER_ADD("sim.dram.powerdown_entries",
                           stats_.powerdown_entries);
      MAPG_OBS_COUNTER_ADD("sim.dram.selfrefresh_entries",
                           stats_.selfrefresh_entries);
    }
    if (stats_.writes_queued) {
      MAPG_OBS_COUNTER_ADD("sim.dram.writes_queued", stats_.writes_queued);
      MAPG_OBS_COUNTER_ADD("sim.dram.write_wait_cycles",
                           stats_.write_wait_cycles);
    }
  });
}

void Dram::map_address(Addr line_addr, std::uint32_t& channel,
                       std::uint32_t& bank, std::uint64_t& row) const {
  // Line-interleave across channels, then column within the row, then bank:
  // sequential lines hit the same row (per channel) until the row is
  // exhausted, which is what gives streaming workloads row-buffer locality.
  std::uint64_t line_no = line_addr / config_.line_bytes;
  channel = static_cast<std::uint32_t>(line_no % config_.channels);
  line_no /= config_.channels;
  line_no /= config_.lines_per_row();  // discard column-in-row bits
  bank = static_cast<std::uint32_t>(line_no % config_.banks_per_channel);
  row = line_no / config_.banks_per_channel;
}

Cycle Dram::skip_refresh(Cycle start) {
  if (config_.t_refi == 0) return start;
  const Cycle window_start = (start / config_.t_refi) * config_.t_refi;
  if (start < window_start + config_.t_rfc) {
    ++stats_.refresh_delays;
    return window_start + config_.t_rfc;
  }
  return start;
}

Cycle Dram::refresh_overlap(Cycle begin, Cycle end) const {
  if (config_.t_refi == 0 || config_.t_rfc == 0 || end <= begin) return 0;
  const Cycle per = std::min(config_.t_rfc, config_.t_refi);
  const auto busy = [&](Cycle bound) {
    return (bound / config_.t_refi) * per +
           std::min(bound % config_.t_refi, per);
  };
  return busy(end) - busy(begin);
}

void Dram::settle_channel(Channel& ch, Cycle upto) {
  const DramPowerConfig& p = config_.power;
  if (upto <= ch.accounted_until) return;

  const auto account_active = [&](Cycle b, Cycle e) {
    const Cycle ref = refresh_overlap(b, e);
    stats_.refresh_cycles += ref;
    stats_.active_cycles += (e - b) - ref;
  };

  Cycle cur = ch.accounted_until;
  ch.accounted_until = upto;

  // The tail of the previous burst (and any exit ramp) is active time.
  const Cycle busy_end = std::min(upto, std::max(cur, ch.idle_from));
  if (busy_end > cur) {
    account_active(cur, busy_end);
    cur = busy_end;
  }
  if (cur >= upto) return;

  // Idle gap: the timeout machinery.  Entry ramps ([*_at, *_at + t_pd))
  // count as active; residency counts once the state is established.
  const Cycle pd_at = p.powerdown_timeout > 0
                          ? ch.idle_from + p.powerdown_timeout
                          : kNever;
  const Cycle sr_at = p.selfrefresh_timeout > 0
                          ? ch.idle_from + p.selfrefresh_timeout
                          : kNever;
  const Cycle pd_est = pd_at == kNever ? kNever : pd_at + p.t_pd;
  const Cycle sr_est = sr_at == kNever ? kNever : sr_at + p.t_pd;

  const Cycle active_end = std::min(upto, std::min(pd_est, sr_est));
  if (active_end > cur) {
    account_active(cur, active_end);
    cur = active_end;
  }
  if (pd_est < sr_est && upto > pd_est) {
    // Power-down holds until self-refresh is established (CKE stays low
    // across the escalation, so the PD->SR ramp is charged as PD).
    const Cycle pd_end = std::min(upto, sr_est);
    if (cur <= pd_est && pd_end > pd_est) ++stats_.powerdown_entries;
    if (pd_end > cur) {
      stats_.powerdown_cycles += pd_end - cur;
      cur = pd_end;
    }
  }
  if (sr_est != kNever && upto > sr_est) {
    if (cur <= sr_est) ++stats_.selfrefresh_entries;
    if (upto > cur) {
      stats_.selfrefresh_cycles += upto - cur;
      cur = upto;
    }
  }
}

Cycle Dram::power_exit_shift(Channel& ch, Cycle now) {
  const DramPowerConfig& p = config_.power;
  settle_channel(ch, now);
  if (now <= ch.idle_from) return 0;  // channel still busy: no state entered

  const Cycle pd_at = p.powerdown_timeout > 0
                          ? ch.idle_from + p.powerdown_timeout
                          : kNever;
  const Cycle sr_at = p.selfrefresh_timeout > 0
                          ? ch.idle_from + p.selfrefresh_timeout
                          : kNever;

  Cycle shift = 0;
  if (sr_at != kNever && now >= sr_at + p.t_pd) {
    // In self-refresh: exit initiates immediately, first command after tXS.
    shift = p.t_xs;
  } else if (pd_at != kNever && now >= pd_at + p.t_pd) {
    // In power-down: CKE may not rise before tCKE(min) has elapsed since it
    // fell, then the exit ramp takes tXP.  The hold remainder [now,
    // exit_start) delays timing but is classified as active by the next
    // settle (like entry ramps) — advancing accounted_until past `now` here
    // would let a warmup-boundary reset lose those cycles and break the
    // residency-conservation equality.
    const Cycle exit_start = std::max(now, pd_at + p.t_cke);
    shift = (exit_start - now) + p.t_xp;
  } else {
    return 0;  // idle but no state established (entry in progress is free)
  }

  // Both states require all banks precharged: entering closed the rows.
  for (auto& bank : ch.banks) {
    bank.row_open = false;
    bank.open_row = ~0ULL;
  }
  stats_.lowpower_exit_delay += shift;
  return shift;
}

void Dram::settle_power(Cycle now) {
  drain_writes(now);
  if (config_.power.mode != DramPowerMode::kTimeout) return;
  for (auto& ch : channels_) settle_channel(ch, now);
}

Cycle Dram::bank_ready(std::uint32_t channel, std::uint32_t bank) const {
  return channels_.at(channel).banks.at(bank).ready_at;
}

bool Dram::policy_closes_row(std::uint64_t row) const {
  switch (config_.page_policy) {
    case PagePolicy::kOpen:
      return false;
    case PagePolicy::kClosed:
      return true;
    case PagePolicy::kHybrid: {
      // Address-keyed predictor (HAPPY-style, degenerate identity-indexed
      // table): rows whose selected low bits are all zero are predicted
      // reuse-poor and close; every other row stays open.  Deterministic in
      // the row address, so a row's policy never flips mid-run.
      const std::uint64_t mask = (1ULL << config_.hybrid_addr_bits) - 1;
      return (row & mask) == 0;
    }
  }
  return false;
}

DramResult Dram::service_request(Channel& ch, std::uint32_t ch_idx,
                                 std::uint32_t bank_idx, std::uint64_t row,
                                 bool is_write, Cycle now) {
  // Low-power exit: a sleeping channel delays the request by its exit
  // latency.  Applied before the refresh check so an exit that lands inside
  // a refresh window pays the remainder of that window (the device still
  // owes the deferred auto-refresh; see docs/MEMORY_POWER.md).
  Cycle wake = 0;
  if (config_.power.mode == DramPowerMode::kTimeout)
    wake = power_exit_shift(ch, now);

  Bank& bank = ch.banks[bank_idx];

  DramResult res;
  res.channel = ch_idx;
  res.bank = bank_idx;
  res.estimate = now + config_.estimate_latency();

  // Command dispatch can begin once the channel is awake, the bank has
  // finished its prior work, and any refresh in progress has completed.
  Cycle start = skip_refresh(std::max(now + wake, bank.ready_at));

  Cycle col_ready;  // earliest cycle the column command may issue
  if (bank.row_open && bank.open_row == row) {
    res.outcome = RowBufferOutcome::kHit;
    ++stats_.row_hits;
    col_ready = start;
  } else if (!bank.row_open) {
    res.outcome = RowBufferOutcome::kClosed;
    ++stats_.row_closed;
    const Cycle act = start;
    col_ready = act + config_.t_rcd;
    bank.activated_at = act;
    bank.row_open = true;
    bank.open_row = row;
  } else {
    res.outcome = RowBufferOutcome::kConflict;
    ++stats_.row_conflicts;
    // Precharge may not begin before tRAS has elapsed since activation.
    const Cycle pre = std::max(start, bank.activated_at + config_.t_ras);
    const Cycle act = pre + config_.t_rp;
    col_ready = act + config_.t_rcd;
    bank.activated_at = act;
    bank.open_row = row;
  }

  // Data-bus contention: the burst [col + tCL, col + tCL + tBL) must not
  // overlap an earlier burst on this channel.
  Cycle col = col_ready;
  if (col + config_.t_cl < ch.bus_free_at)
    col = ch.bus_free_at - config_.t_cl;
  const Cycle data_start = col + config_.t_cl;
  const Cycle data_end = data_start + config_.t_bl;
  ch.bus_free_at = data_end;

  // The bank can dispatch its next command once this burst's column phase is
  // done (approximates tCCD/tBL spacing between column commands).
  bank.ready_at = col + config_.t_bl;

  // Page-policy close: auto-precharge after the column command.  The
  // precharge may not start before the burst's column phase is done nor
  // before tRAS has elapsed since activation; the bank re-opens only with a
  // fresh ACT (so the next access is kClosed, never kConflict).
  if (policy_closes_row(row)) {
    const Cycle pre = std::max(col + config_.t_bl,
                               bank.activated_at + config_.t_ras);
    bank.ready_at = pre + config_.t_rp;
    bank.row_open = false;
    bank.open_row = ~0ULL;
  }

  res.commit = col;
  res.completion = data_end;

  if (config_.power.mode == DramPowerMode::kTimeout) {
    // The channel is busy until the burst drains; the idle-timeout clock
    // restarts there.
    ch.idle_from = std::max(ch.idle_from, data_end);
  }

  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
    stats_.read_latency.add(static_cast<double>(data_end - now));
  }
  return res;
}

void Dram::issue_queued_write(Channel& ch, std::uint32_t ch_idx,
                              std::size_t pos, Cycle now) {
  const PendingWrite w = ch.write_queue[pos];
  ch.write_queue.erase(ch.write_queue.begin() +
                       static_cast<std::ptrdiff_t>(pos));
  std::uint32_t wch = 0, wbank = 0;
  std::uint64_t wrow = 0;
  map_address(w.line_addr, wch, wbank, wrow);
  const Cycle wait = now - w.enqueued;
  stats_.write_wait_cycles += wait;
  stats_.write_wait_max = std::max(stats_.write_wait_max, wait);
  service_request(ch, ch_idx, wbank, wrow, /*is_write=*/true, now);
}

void Dram::schedule_before_read(Channel& ch, std::uint32_t ch_idx,
                                std::uint32_t bank_idx, std::uint64_t row,
                                Cycle now) {
  // 1. Starvation bound: any write that has waited write_starve_limit or
  // longer issues ahead of everything, oldest first (the queue is in age
  // order, so the front is always the oldest).
  while (!ch.write_queue.empty() &&
         now - ch.write_queue.front().enqueued >= config_.write_starve_limit) {
    ++stats_.writes_starved;
    issue_queued_write(ch, ch_idx, 0, now);
  }

  // 2. Row-hit-first: when the arriving read would NOT hit an open row, any
  // queued write that WOULD hit one issues first (FR-FCFS: column commands
  // to open rows beat activates), oldest first.  When the read itself is a
  // row hit it wins the tie against row-hitting writes by age — it is the
  // newest request, but reads are latency-critical and demand reads are
  // prioritized over victim writes (see MemoryHierarchy), which is the
  // documented read-priority tilt of this FR-FCFS implementation.
  const Bank& rb = ch.banks[bank_idx];
  const bool read_hits = rb.row_open && rb.open_row == row;
  if (read_hits) return;
  for (std::size_t i = 0; i < ch.write_queue.size();) {
    std::uint32_t wch = 0, wbank = 0;
    std::uint64_t wrow = 0;
    map_address(ch.write_queue[i].line_addr, wch, wbank, wrow);
    const Bank& wb = ch.banks[wbank];
    if (wb.row_open && wb.open_row == wrow) {
      issue_queued_write(ch, ch_idx, i, now);
      // restart the scan: issuing may have changed open-row state
      i = 0;
    } else {
      ++i;
    }
  }
}

void Dram::drain_writes(Cycle now) {
  if (config_.queue_depth == 0) return;
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    Channel& ch = channels_[c];
    while (!ch.write_queue.empty()) {
      ++stats_.writes_drained;
      issue_queued_write(ch, c, 0, now);
    }
  }
}

DramResult Dram::access(Addr line_addr, bool is_write, Cycle now) {
  std::uint32_t ch_idx = 0, bank_idx = 0;
  std::uint64_t row = 0;
  map_address(line_addr, ch_idx, bank_idx, row);
  Channel& ch = channels_[ch_idx];

  if (config_.queue_depth == 0)  // legacy synchronous path, bit-identical
    return service_request(ch, ch_idx, bank_idx, row, is_write, now);

  if (is_write) {
    // Posted write: park it in the channel queue.  A full queue forces the
    // oldest write out immediately (bounded depth).
    ch.write_queue.push_back({line_addr, now});
    ++stats_.writes_queued;
    stats_.write_queue_peak =
        std::max<std::uint64_t>(stats_.write_queue_peak,
                                ch.write_queue.size());
    if (ch.write_queue.size() > config_.queue_depth) {
      ++stats_.writes_overflowed;
      issue_queued_write(ch, ch_idx, 0, now);
    }
    // No caller consumes a write's completion (stores are posted through the
    // hierarchy's write buffer; see MemoryHierarchy::store) — return a
    // placeholder carrying only the mapping and the enqueue estimate.
    DramResult res;
    res.channel = ch_idx;
    res.bank = bank_idx;
    res.estimate = now + config_.estimate_latency();
    res.commit = now;
    res.completion = now;
    return res;
  }

  schedule_before_read(ch, ch_idx, bank_idx, row, now);
  return service_request(ch, ch_idx, bank_idx, row, /*is_write=*/false, now);
}

}  // namespace mapg

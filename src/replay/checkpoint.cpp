#include "replay/checkpoint.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "replay/replay.h"

namespace mapg {
namespace {

/// Streaming FNV-1a over a canonical little-endian byte encoding.  Every
/// field of every state struct goes through here in a fixed order; doubles
/// are hashed by bit pattern, not value, so -0.0 vs 0.0 and NaN payloads
/// all count (the golden pins bit-exactness, nothing weaker).
class Fnv {
 public:
  void u8(std::uint8_t v) { byte(v); }
  void b(bool v) { byte(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i, v >>= 8) byte(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) byte(static_cast<std::uint8_t>(v));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t digest() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void hash(Fnv& f, const RunningStat& s) {
  f.u64(s.count());
  f.f64(s.mean());
  f.f64(s.m2());
  f.f64(s.min());
  f.f64(s.max());
}

void hash(Fnv& f, const Histogram& h) {
  f.f64(h.lo());
  f.f64(h.hi());
  f.u64(h.buckets());
  for (std::size_t i = 0; i < h.buckets(); ++i) f.u64(h.bucket_count(i));
  f.u64(h.underflow());
  f.u64(h.overflow());
  f.u64(h.total());
}

void hash(Fnv& f, const CoreStats& s) {
  f.u64(s.instrs);
  f.u64(s.cycles);
  for (const std::uint64_t n : s.instr_by_class) f.u64(n);
  f.u64(s.stalls_dram);
  f.u64(s.stalls_other);
  f.u64(s.stall_cycles_dram);
  f.u64(s.stall_cycles_other);
  f.u64(s.penalty_cycles);
  f.u64(s.mlp_limit_stalls);
  hash(f, s.dram_stall_hist);
  hash(f, s.outstanding_at_stall);
}

void hash(Fnv& f, const MemAccessResult& r) {
  f.u64(r.complete);
  f.u64(r.commit);
  f.u64(r.estimate);
  f.u8(static_cast<std::uint8_t>(r.served_by));
  f.b(r.merged);
  f.b(r.prefetched);
}

void hash(Fnv& f, const Core::State& s) {
  f.u64(s.now);
  f.u32(s.slot);
  f.u64(s.stats_base);
  f.u64(s.next_id);
  f.u64(s.scoreboard.size());
  for (const Core::Blocker& b : s.scoreboard) {
    f.u64(b.ready);
    f.u64(b.commit);
    f.u64(b.estimate);
    f.b(b.dram);
  }
  f.u64(s.outstanding.size());
  for (const MemAccessResult& r : s.outstanding) hash(f, r);
  hash(f, s.stats);
}

void hash(Fnv& f, const CacheStats& s) {
  f.u64(s.read_hits);
  f.u64(s.read_misses);
  f.u64(s.write_hits);
  f.u64(s.write_misses);
  f.u64(s.writebacks);
  f.u64(s.evictions);
  f.u64(s.prefetch_fills);
}

void hash(Fnv& f, const Cache::State& s) {
  f.u64(s.lines.size());
  for (const Cache::Line& l : s.lines) {
    f.u64(l.tag);
    f.b(l.valid);
    f.b(l.dirty);
    f.b(l.prefetched);
    f.u64(l.lru_stamp);
  }
  f.u64(s.plru_bits.size());
  for (const std::uint8_t b : s.plru_bits) f.u8(b);
  f.u64(s.stamp);
  for (const std::uint64_t w : s.victim_prng) f.u64(w);
  hash(f, s.stats);
}

void hash(Fnv& f, const Dram::State& s) {
  f.u64(s.channels.size());
  for (const Dram::Channel& ch : s.channels) {
    f.u64(ch.banks.size());
    for (const Dram::Bank& b : ch.banks) {
      f.u64(b.open_row);
      f.b(b.row_open);
      f.u64(b.ready_at);
      f.u64(b.activated_at);
    }
    f.u64(ch.bus_free_at);
    // The posted-write queue is live controller state: a resumed run must
    // re-issue exactly these writes at exactly the deferred times the
    // from-zero run would (docs/DRAM.md §3).
    f.u64(ch.write_queue.size());
    for (const Dram::PendingWrite& w : ch.write_queue) {
      f.u64(w.line_addr);
      f.u64(w.enqueued);
    }
    f.u64(ch.idle_from);
    f.u64(ch.accounted_until);
  }
  f.u64(s.stats.reads);
  f.u64(s.stats.writes);
  f.u64(s.stats.row_hits);
  f.u64(s.stats.row_closed);
  f.u64(s.stats.row_conflicts);
  f.u64(s.stats.refresh_delays);
  f.u64(s.stats.writes_queued);
  f.u64(s.stats.writes_starved);
  f.u64(s.stats.writes_overflowed);
  f.u64(s.stats.writes_drained);
  f.u64(s.stats.write_queue_peak);
  f.u64(s.stats.write_wait_cycles);
  f.u64(s.stats.write_wait_max);
  hash(f, s.stats.read_latency);
  f.u64(s.stats.active_cycles);
  f.u64(s.stats.refresh_cycles);
  f.u64(s.stats.powerdown_cycles);
  f.u64(s.stats.selfrefresh_cycles);
  f.u64(s.stats.powerdown_entries);
  f.u64(s.stats.selfrefresh_entries);
  f.u64(s.stats.lowpower_exit_delay);
}

void hash(Fnv& f, const StreamPrefetcher::State& s) {
  f.u64(s.table.size());
  for (const StreamPrefetcher::Stream& st : s.table) {
    f.u64(st.next_demand);
    f.u64(st.next_issue);
    f.u8(static_cast<std::uint8_t>(st.dir));
    f.u32(st.hits);
    f.u64(st.lru);
  }
  f.u64(s.tick);
  f.u64(s.stats.trained);
  f.u64(s.stats.issued);
  f.u64(s.stats.streams);
}

void hash(Fnv& f, const MemoryHierarchy::State& s) {
  hash(f, s.l1);
  hash(f, s.l2);
  hash(f, s.dram);
  hash(f, s.prefetcher);
  f.u64(s.stats.loads);
  f.u64(s.stats.stores);
  f.u64(s.stats.served_l1);
  f.u64(s.stats.served_l2);
  f.u64(s.stats.served_dram);
  f.u64(s.stats.merged);
  f.u64(s.stats.dram_fills);
  f.u64(s.stats.prefetch_issued);
  f.u64(s.stats.prefetch_merges);
  // The merge table is kept in insertion order, which is not canonical;
  // sort by line address so equal tables always hash equal.
  std::vector<std::pair<Addr, MemAccessResult>> inflight(s.inflight.begin(),
                                                         s.inflight.end());
  std::sort(inflight.begin(), inflight.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  f.u64(inflight.size());
  for (const auto& [addr, r] : inflight) {
    f.u64(addr);
    hash(f, r);
  }
}

}  // namespace

SimCheckpoint capture_checkpoint(const Core& core, const MemoryHierarchy& mem,
                                 std::uint64_t instr_pos, bool in_warmup,
                                 std::uint64_t windows) {
  SimCheckpoint ck;
  ck.instr_pos = instr_pos;
  ck.windows = windows;
  ck.in_warmup = in_warmup;
  ck.core = core.export_state();
  ck.mem = mem.export_state();
  return ck;
}

std::uint64_t checkpoint_fingerprint(const SimCheckpoint& ck) {
  Fnv f;
  f.u64(ck.instr_pos);
  f.u64(ck.windows);
  f.b(ck.in_warmup);
  hash(f, ck.core);
  hash(f, ck.mem);
  return f.digest();
}

SimResult resume_from_checkpoint(const StallTimeline& timeline,
                                 const SimCheckpoint& ck,
                                 const std::string& policy_spec) {
  const SimConfig& cfg = timeline.config;
  const PgCircuit circuit(cfg.pg, cfg.tech);
  const std::unique_ptr<PgPolicy> policy =
      build_policy(policy_spec, PgController::make_context(circuit));
  const StallKernelParams kparams = make_stall_kernel_params(cfg, circuit);
  PgController controller(*policy, circuit, nullptr, kparams);

  // Rebuild the controller at the checkpoint by feeding the recorded event
  // prefix — exactly what replay_policy does, stats reset at the warmup
  // boundary included.  The precondition (every prefix event penalty-free
  // under this policy) makes the rebuilt state identical to the direct
  // run's controller at this instruction position; the resume cycles the
  // prefix feed returns are therefore already reflected in ck and are
  // discarded here.
  const StallSeries& warm = timeline.record.warmup_stalls;
  const StallSeries& meas = timeline.record.stalls;
  if (ck.in_warmup) {
    for (std::uint64_t i = 0; i < ck.windows; ++i) controller.on_stall(warm[i]);
  } else {
    for (std::size_t i = 0; i < warm.size(); ++i) controller.on_stall(warm[i]);
    controller.reset_stats();  // no-op when warmup==0, matching run_impl
    const std::uint64_t measured = ck.windows - warm.size();
    for (std::uint64_t i = 0; i < measured; ++i) controller.on_stall(meas[i]);
  }

  MemoryHierarchy mem(cfg.mem);
  Core core(cfg.core, mem, &controller);
  core.set_step_mode(kparams.mode);
  core.import_state(ck.core);
  mem.import_state(ck.mem);

  SharedTraceView trace(timeline.record.trace);
  trace.seek(static_cast<std::size_t>(ck.instr_pos));

  // Continue direct simulation, replicating run_impl's phase sequence from
  // the restore point on.  A boundary checkpoint (in_warmup == false,
  // instr_pos == warmup) was captured after the boundary settle/reset, so
  // the else branch needs no boundary handling.  The run-level obs roll-up
  // is intentionally not repeated here, matching replay_policy.
  if (ck.in_warmup) {
    core.run(trace, cfg.warmup_instructions - ck.instr_pos);
    cross_warmup_boundary(core, mem, controller);
    core.run(trace, cfg.instructions);
  } else {
    core.run(trace,
             cfg.warmup_instructions + cfg.instructions - ck.instr_pos);
  }
  return finish_run(cfg, circuit, timeline.profile.name, *policy, core, mem,
                    controller);
}

ResumeOutcome resume_policy(const StallTimeline& timeline,
                            const std::string& policy_spec,
                            std::uint64_t max_prefix_windows) {
  ResumeOutcome out;
  // Latest eligible checkpoint: the most instructions skipped while every
  // prefix event stays strictly before the first penalized window.
  const SimCheckpoint* best = nullptr;
  for (const SimCheckpoint& ck : timeline.checkpoints) {
    if (ck.windows > max_prefix_windows) continue;
    if (best == nullptr || ck.instr_pos > best->instr_pos) best = &ck;
  }
  if (best == nullptr) return out;

  out.result = resume_from_checkpoint(timeline, *best, policy_spec);
  out.ok = true;
  out.from_instr = best->instr_pos;
  out.windows_replayed = best->windows;
  MAPG_OBS_COUNTER_INC("sim.replay.prefix_resumes");
  MAPG_OBS_COUNTER_ADD("sim.replay.windows_saved", best->windows);
  return out;
}

}  // namespace mapg

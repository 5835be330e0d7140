#include "exec/serialize.h"

#include <cstdio>
#include <stdexcept>

namespace mapg {

namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

Json hist_to_json(const Histogram& h) {
  Json j = Json::object();
  j["lo"] = Json::number(h.lo());
  j["hi"] = Json::number(h.hi());
  j["underflow"] = Json::number(h.underflow());
  j["overflow"] = Json::number(h.overflow());
  Json counts = Json::array();
  for (std::size_t i = 0; i < h.buckets(); ++i)
    counts.push(Json::number(h.bucket_count(i)));
  j["counts"] = std::move(counts);
  return j;
}

Histogram hist_from_json(const Json& j) {
  const Json& counts = j.get("counts");
  std::vector<std::uint64_t> c(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) c[i] = counts.at(i).as_u64();
  return Histogram::restore(j.get("lo").as_double(), j.get("hi").as_double(),
                            std::move(c), j.get("underflow").as_u64(),
                            j.get("overflow").as_u64());
}

Json rstat_to_json(const RunningStat& s) {
  Json j = Json::object();
  j["n"] = Json::number(s.count());
  j["mean"] = Json::number(s.mean());
  j["m2"] = Json::number(s.m2());
  j["min"] = Json::number(s.min());
  j["max"] = Json::number(s.max());
  return j;
}

RunningStat rstat_from_json(const Json& j) {
  return RunningStat::restore(j.get("n").as_u64(), j.get("mean").as_double(),
                              j.get("m2").as_double(),
                              j.get("min").as_double(),
                              j.get("max").as_double());
}

// ---------------------------------------------------------------------------
// Experiment identity (cache key input) — every field, fixed key names.
// ---------------------------------------------------------------------------

Json cache_config_json(const CacheConfig& c) {
  Json j = Json::object();
  j["size_bytes"] = Json::number(c.size_bytes);
  j["assoc"] = Json::number(c.assoc);
  j["line_bytes"] = Json::number(c.line_bytes);
  j["hit_latency"] = Json::number(c.hit_latency);
  j["repl"] = Json::number(static_cast<int>(c.repl));
  j["write_back"] = Json::boolean(c.write_back);
  return j;
}

Json config_json(const SimConfig& c) {
  Json j = Json::object();

  Json core = Json::object();
  core["mul_latency"] = Json::number(c.core.mul_latency);
  core["fp_latency"] = Json::number(c.core.fp_latency);
  core["div_latency"] = Json::number(c.core.div_latency);
  core["issue_width"] = Json::number(c.core.issue_width);
  core["mlp_window"] = Json::number(c.core.mlp_window);
  core["scoreboard_window"] = Json::number(c.core.scoreboard_window);
  j["core"] = std::move(core);

  Json mem = Json::object();
  mem["l1d"] = cache_config_json(c.mem.l1d);
  mem["l2"] = cache_config_json(c.mem.l2);
  Json dram = Json::object();
  dram["channels"] = Json::number(c.mem.dram.channels);
  dram["banks_per_channel"] = Json::number(c.mem.dram.banks_per_channel);
  dram["line_bytes"] = Json::number(c.mem.dram.line_bytes);
  dram["row_bytes"] = Json::number(c.mem.dram.row_bytes);
  dram["t_rcd"] = Json::number(c.mem.dram.t_rcd);
  dram["t_rp"] = Json::number(c.mem.dram.t_rp);
  dram["t_cl"] = Json::number(c.mem.dram.t_cl);
  dram["t_bl"] = Json::number(c.mem.dram.t_bl);
  dram["t_ras"] = Json::number(c.mem.dram.t_ras);
  dram["t_rfc"] = Json::number(c.mem.dram.t_rfc);
  dram["t_refi"] = Json::number(c.mem.dram.t_refi);
  dram["standard"] = Json::number(static_cast<int>(c.mem.dram.standard));
  dram["page_policy"] = Json::number(static_cast<int>(c.mem.dram.page_policy));
  dram["hybrid_addr_bits"] = Json::number(c.mem.dram.hybrid_addr_bits);
  dram["queue_depth"] = Json::number(c.mem.dram.queue_depth);
  dram["write_starve_limit"] = Json::number(c.mem.dram.write_starve_limit);
  Json dpw = Json::object();
  dpw["mode"] = Json::number(static_cast<int>(c.mem.dram.power.mode));
  dpw["t_pd"] = Json::number(c.mem.dram.power.t_pd);
  dpw["t_xp"] = Json::number(c.mem.dram.power.t_xp);
  dpw["t_cke"] = Json::number(c.mem.dram.power.t_cke);
  dpw["t_xs"] = Json::number(c.mem.dram.power.t_xs);
  dpw["powerdown_timeout"] = Json::number(c.mem.dram.power.powerdown_timeout);
  dpw["selfrefresh_timeout"] =
      Json::number(c.mem.dram.power.selfrefresh_timeout);
  dram["power"] = std::move(dpw);
  mem["dram"] = std::move(dram);
  mem["mc_request_latency"] = Json::number(c.mem.mc_request_latency);
  mem["fill_return_latency"] = Json::number(c.mem.fill_return_latency);
  Json pf = Json::object();
  pf["enable"] = Json::boolean(c.mem.prefetch.enable);
  pf["degree"] = Json::number(c.mem.prefetch.degree);
  pf["table_entries"] = Json::number(c.mem.prefetch.table_entries);
  pf["confirm_after"] = Json::number(c.mem.prefetch.confirm_after);
  mem["prefetch"] = std::move(pf);
  j["mem"] = std::move(mem);

  Json tech = Json::object();
  tech["freq_ghz"] = Json::number(c.tech.freq_ghz);
  tech["vdd"] = Json::number(c.tech.vdd);
  tech["core_leakage_w"] = Json::number(c.tech.core_leakage_w);
  tech["gated_fraction"] = Json::number(c.tech.gated_fraction);
  tech["l1_leakage_w"] = Json::number(c.tech.l1_leakage_w);
  tech["l2_leakage_w"] = Json::number(c.tech.l2_leakage_w);
  tech["other_leakage_w"] = Json::number(c.tech.other_leakage_w);
  tech["idle_clock_w"] = Json::number(c.tech.idle_clock_w);
  Json dyn = Json::array();
  for (const double e : c.tech.dyn_energy_nj) dyn.push(Json::number(e));
  tech["dyn_energy_nj"] = std::move(dyn);
  j["tech"] = std::move(tech);

  Json pg = Json::object();
  pg["c_vrail_nf"] = Json::number(c.pg.c_vrail_nf);
  pg["rail_swing_frac"] = Json::number(c.pg.rail_swing_frac);
  pg["gate_charge_nj"] = Json::number(c.pg.gate_charge_nj);
  pg["wakeup_stages"] = Json::number(c.pg.wakeup_stages);
  pg["stage_delay_ns"] = Json::number(c.pg.stage_delay_ns);
  pg["settle_ns"] = Json::number(c.pg.settle_ns);
  pg["entry_ns"] = Json::number(c.pg.entry_ns);
  pg["overhead_scale"] = Json::number(c.pg.overhead_scale);
  pg["light_swing_frac"] = Json::number(c.pg.light_swing_frac);
  pg["light_save_frac"] = Json::number(c.pg.light_save_frac);
  pg["light_wakeup_stages"] = Json::number(c.pg.light_wakeup_stages);
  j["pg"] = std::move(pg);

  Json de = Json::object();
  de["background_w_per_channel"] =
      Json::number(c.dram_energy.background_w_per_channel);
  de["powerdown_w_per_channel"] =
      Json::number(c.dram_energy.powerdown_w_per_channel);
  de["selfrefresh_w_per_channel"] =
      Json::number(c.dram_energy.selfrefresh_w_per_channel);
  de["activate_nj"] = Json::number(c.dram_energy.activate_nj);
  de["read_nj"] = Json::number(c.dram_energy.read_nj);
  de["write_nj"] = Json::number(c.dram_energy.write_nj);
  de["refresh_nj"] = Json::number(c.dram_energy.refresh_nj);
  j["dram_energy"] = std::move(de);

  Json th = Json::object();
  th["enable"] = Json::boolean(c.thermal.enable);
  th["t_ambient_c"] = Json::number(c.thermal.t_ambient_c);
  th["r_th_k_per_w"] = Json::number(c.thermal.r_th_k_per_w);
  th["tau_ms"] = Json::number(c.thermal.tau_ms);
  th["t_ref_c"] = Json::number(c.thermal.t_ref_c);
  th["leak_doubling_c"] = Json::number(c.thermal.leak_doubling_c);
  th["epoch_instructions"] = Json::number(c.thermal.epoch_instructions);
  j["thermal"] = std::move(th);

  j["instructions"] = Json::number(c.instructions);
  j["warmup_instructions"] = Json::number(c.warmup_instructions);
  j["run_seed"] = Json::number(c.run_seed);
  j["fast_forward"] = Json::boolean(c.fast_forward);
  return j;
}

Json profile_json(const WorkloadProfile& p) {
  // Every behaviour-affecting field; `description` is cosmetic and
  // deliberately excluded so doc edits don't invalidate cached results.
  Json j = Json::object();
  j["name"] = Json::string(p.name);
  j["f_load"] = Json::number(p.f_load);
  j["f_store"] = Json::number(p.f_store);
  j["f_branch"] = Json::number(p.f_branch);
  j["f_mul"] = Json::number(p.f_mul);
  j["f_div"] = Json::number(p.f_div);
  j["f_fp"] = Json::number(p.f_fp);
  j["working_set_bytes"] = Json::number(p.working_set_bytes);
  j["hot_set_bytes"] = Json::number(p.hot_set_bytes);
  j["num_streams"] = Json::number(p.num_streams);
  j["stream_stride_bytes"] = Json::number(p.stream_stride_bytes);
  j["p_stream"] = Json::number(p.p_stream);
  j["p_cold"] = Json::number(p.p_cold);
  j["p_pointer_chase"] = Json::number(p.p_pointer_chase);
  j["dep_dist_mean"] = Json::number(p.dep_dist_mean);
  j["p_no_consumer"] = Json::number(p.p_no_consumer);
  j["dep_dist_max"] = Json::number(std::uint64_t{p.dep_dist_max});
  j["seed"] = Json::number(p.seed);
  return j;
}

// ---------------------------------------------------------------------------
// SimResult <-> JSON
// ---------------------------------------------------------------------------

Json core_stats_json(const CoreStats& s) {
  Json j = Json::object();
  j["instrs"] = Json::number(s.instrs);
  j["cycles"] = Json::number(s.cycles);
  Json by_class = Json::array();
  for (const std::uint64_t n : s.instr_by_class) by_class.push(Json::number(n));
  j["instr_by_class"] = std::move(by_class);
  j["stalls_dram"] = Json::number(s.stalls_dram);
  j["stalls_other"] = Json::number(s.stalls_other);
  j["stall_cycles_dram"] = Json::number(s.stall_cycles_dram);
  j["stall_cycles_other"] = Json::number(s.stall_cycles_other);
  j["penalty_cycles"] = Json::number(s.penalty_cycles);
  j["mlp_limit_stalls"] = Json::number(s.mlp_limit_stalls);
  j["dram_stall_hist"] = hist_to_json(s.dram_stall_hist);
  j["outstanding_at_stall"] = rstat_to_json(s.outstanding_at_stall);
  return j;
}

CoreStats core_stats_from_json(const Json& j) {
  CoreStats s;
  s.instrs = j.get("instrs").as_u64();
  s.cycles = j.get("cycles").as_u64();
  const Json& by_class = j.get("instr_by_class");
  for (std::size_t i = 0; i < s.instr_by_class.size() && i < by_class.size();
       ++i)
    s.instr_by_class[i] = by_class.at(i).as_u64();
  s.stalls_dram = j.get("stalls_dram").as_u64();
  s.stalls_other = j.get("stalls_other").as_u64();
  s.stall_cycles_dram = j.get("stall_cycles_dram").as_u64();
  s.stall_cycles_other = j.get("stall_cycles_other").as_u64();
  s.penalty_cycles = j.get("penalty_cycles").as_u64();
  s.mlp_limit_stalls = j.get("mlp_limit_stalls").as_u64();
  s.dram_stall_hist = hist_from_json(j.get("dram_stall_hist"));
  s.outstanding_at_stall = rstat_from_json(j.get("outstanding_at_stall"));
  return s;
}

Json cache_stats_json(const CacheStats& s) {
  Json j = Json::object();
  j["read_hits"] = Json::number(s.read_hits);
  j["read_misses"] = Json::number(s.read_misses);
  j["write_hits"] = Json::number(s.write_hits);
  j["write_misses"] = Json::number(s.write_misses);
  j["writebacks"] = Json::number(s.writebacks);
  j["evictions"] = Json::number(s.evictions);
  j["prefetch_fills"] = Json::number(s.prefetch_fills);
  return j;
}

CacheStats cache_stats_from_json(const Json& j) {
  CacheStats s;
  s.read_hits = j.get("read_hits").as_u64();
  s.read_misses = j.get("read_misses").as_u64();
  s.write_hits = j.get("write_hits").as_u64();
  s.write_misses = j.get("write_misses").as_u64();
  s.writebacks = j.get("writebacks").as_u64();
  s.evictions = j.get("evictions").as_u64();
  s.prefetch_fills = j.get("prefetch_fills").as_u64();
  return s;
}

}  // namespace

Json result_to_json(const SimResult& r) {
  Json j = Json::object();
  j["schema"] = Json::number(kExecSchemaVersion);
  j["workload"] = Json::string(r.workload);
  j["policy"] = Json::string(r.policy);

  Json ctx = Json::object();
  ctx["entry_latency"] = Json::number(r.ctx.entry_latency);
  ctx["wakeup_latency"] = Json::number(r.ctx.wakeup_latency);
  ctx["break_even"] = Json::number(r.ctx.break_even);
  ctx["light_wakeup_latency"] = Json::number(r.ctx.light_wakeup_latency);
  ctx["light_break_even"] = Json::number(r.ctx.light_break_even);
  ctx["light_save_frac"] = Json::number(r.ctx.light_save_frac);
  j["ctx"] = std::move(ctx);

  j["core"] = core_stats_json(r.core);

  Json hier = Json::object();
  hier["loads"] = Json::number(r.hier.loads);
  hier["stores"] = Json::number(r.hier.stores);
  hier["served_l1"] = Json::number(r.hier.served_l1);
  hier["served_l2"] = Json::number(r.hier.served_l2);
  hier["served_dram"] = Json::number(r.hier.served_dram);
  hier["merged"] = Json::number(r.hier.merged);
  hier["dram_fills"] = Json::number(r.hier.dram_fills);
  hier["prefetch_issued"] = Json::number(r.hier.prefetch_issued);
  hier["prefetch_merges"] = Json::number(r.hier.prefetch_merges);
  j["hier"] = std::move(hier);

  j["l1"] = cache_stats_json(r.l1);
  j["l2"] = cache_stats_json(r.l2);

  Json dram = Json::object();
  dram["reads"] = Json::number(r.dram.reads);
  dram["writes"] = Json::number(r.dram.writes);
  dram["row_hits"] = Json::number(r.dram.row_hits);
  dram["row_closed"] = Json::number(r.dram.row_closed);
  dram["row_conflicts"] = Json::number(r.dram.row_conflicts);
  dram["refresh_delays"] = Json::number(r.dram.refresh_delays);
  dram["writes_queued"] = Json::number(r.dram.writes_queued);
  dram["writes_starved"] = Json::number(r.dram.writes_starved);
  dram["writes_overflowed"] = Json::number(r.dram.writes_overflowed);
  dram["writes_drained"] = Json::number(r.dram.writes_drained);
  dram["write_queue_peak"] = Json::number(r.dram.write_queue_peak);
  dram["write_wait_cycles"] = Json::number(r.dram.write_wait_cycles);
  dram["write_wait_max"] = Json::number(r.dram.write_wait_max);
  dram["active_cycles"] = Json::number(r.dram.active_cycles);
  dram["refresh_cycles"] = Json::number(r.dram.refresh_cycles);
  dram["powerdown_cycles"] = Json::number(r.dram.powerdown_cycles);
  dram["selfrefresh_cycles"] = Json::number(r.dram.selfrefresh_cycles);
  dram["powerdown_entries"] = Json::number(r.dram.powerdown_entries);
  dram["selfrefresh_entries"] = Json::number(r.dram.selfrefresh_entries);
  dram["lowpower_exit_delay"] = Json::number(r.dram.lowpower_exit_delay);
  dram["read_latency"] = rstat_to_json(r.dram.read_latency);
  j["dram"] = std::move(dram);

  Json gating = Json::object();
  Json act = Json::object();
  act["transitions"] = Json::number(r.gating.activity.transitions);
  act["gated_cycles"] = Json::number(r.gating.activity.gated_cycles);
  act["entry_cycles"] = Json::number(r.gating.activity.entry_cycles);
  act["wake_cycles"] = Json::number(r.gating.activity.wake_cycles);
  act["deep_transitions"] = Json::number(r.gating.activity.deep_transitions);
  act["light_transitions"] = Json::number(r.gating.activity.light_transitions);
  act["deep_gated_cycles"] =
      Json::number(r.gating.activity.deep_gated_cycles);
  act["light_gated_cycles"] =
      Json::number(r.gating.activity.light_gated_cycles);
  gating["activity"] = std::move(act);
  gating["eligible_stalls"] = Json::number(r.gating.eligible_stalls);
  gating["gated_events"] = Json::number(r.gating.gated_events);
  gating["skipped_events"] = Json::number(r.gating.skipped_events);
  gating["timeout_missed"] = Json::number(r.gating.timeout_missed);
  gating["aborted_entries"] = Json::number(r.gating.aborted_entries);
  gating["unprofitable_events"] = Json::number(r.gating.unprofitable_events);
  gating["penalty_cycles"] = Json::number(r.gating.penalty_cycles);
  gating["idle_ungated_cycles"] = Json::number(r.gating.idle_ungated_cycles);
  gating["refresh_window_cycles"] =
      Json::number(r.gating.refresh_window_cycles);
  gating["dram_pd_channel_cycles"] =
      Json::number(r.gating.dram_pd_channel_cycles);
  gating["dram_pd_windows"] = Json::number(r.gating.dram_pd_windows);
  gating["gated_len_hist"] = hist_to_json(r.gating.gated_len_hist);
  j["gating"] = std::move(gating);

  Json energy = Json::object();
  energy["dynamic_j"] = Json::number(r.energy.dynamic_j);
  energy["core_leak_j"] = Json::number(r.energy.core_leak_j);
  energy["ungated_leak_j"] = Json::number(r.energy.ungated_leak_j);
  energy["idle_clock_j"] = Json::number(r.energy.idle_clock_j);
  energy["pg_overhead_j"] = Json::number(r.energy.pg_overhead_j);
  energy["dram_j"] = Json::number(r.energy.dram_j);
  energy["dram_background_j"] = Json::number(r.energy.dram_background_j);
  energy["dram_lowpower_saved_j"] =
      Json::number(r.energy.dram_lowpower_saved_j);
  energy["core_leak_baseline_j"] =
      Json::number(r.energy.core_leak_baseline_j);
  j["energy"] = std::move(energy);

  return j;
}

SimResult result_from_json(const Json& j) {
  if (!j.is_object() ||
      j.get("schema").as_u64() != static_cast<std::uint64_t>(
                                      kExecSchemaVersion))
    throw std::runtime_error("SimResult JSON: missing or wrong schema tag");

  SimResult r;
  r.workload = j.get("workload").as_string();
  r.policy = j.get("policy").as_string();

  const Json& ctx = j.get("ctx");
  r.ctx.entry_latency = ctx.get("entry_latency").as_u64();
  r.ctx.wakeup_latency = ctx.get("wakeup_latency").as_u64();
  r.ctx.break_even = ctx.get("break_even").as_u64();
  r.ctx.light_wakeup_latency = ctx.get("light_wakeup_latency").as_u64();
  r.ctx.light_break_even = ctx.get("light_break_even").as_u64();
  r.ctx.light_save_frac = ctx.get("light_save_frac").as_double();

  r.core = core_stats_from_json(j.get("core"));

  const Json& hier = j.get("hier");
  r.hier.loads = hier.get("loads").as_u64();
  r.hier.stores = hier.get("stores").as_u64();
  r.hier.served_l1 = hier.get("served_l1").as_u64();
  r.hier.served_l2 = hier.get("served_l2").as_u64();
  r.hier.served_dram = hier.get("served_dram").as_u64();
  r.hier.merged = hier.get("merged").as_u64();
  r.hier.dram_fills = hier.get("dram_fills").as_u64();
  r.hier.prefetch_issued = hier.get("prefetch_issued").as_u64();
  r.hier.prefetch_merges = hier.get("prefetch_merges").as_u64();

  r.l1 = cache_stats_from_json(j.get("l1"));
  r.l2 = cache_stats_from_json(j.get("l2"));

  const Json& dram = j.get("dram");
  r.dram.reads = dram.get("reads").as_u64();
  r.dram.writes = dram.get("writes").as_u64();
  r.dram.row_hits = dram.get("row_hits").as_u64();
  r.dram.row_closed = dram.get("row_closed").as_u64();
  r.dram.row_conflicts = dram.get("row_conflicts").as_u64();
  r.dram.refresh_delays = dram.get("refresh_delays").as_u64();
  r.dram.writes_queued = dram.get("writes_queued").as_u64();
  r.dram.writes_starved = dram.get("writes_starved").as_u64();
  r.dram.writes_overflowed = dram.get("writes_overflowed").as_u64();
  r.dram.writes_drained = dram.get("writes_drained").as_u64();
  r.dram.write_queue_peak = dram.get("write_queue_peak").as_u64();
  r.dram.write_wait_cycles = dram.get("write_wait_cycles").as_u64();
  r.dram.write_wait_max = dram.get("write_wait_max").as_u64();
  r.dram.active_cycles = dram.get("active_cycles").as_u64();
  r.dram.refresh_cycles = dram.get("refresh_cycles").as_u64();
  r.dram.powerdown_cycles = dram.get("powerdown_cycles").as_u64();
  r.dram.selfrefresh_cycles = dram.get("selfrefresh_cycles").as_u64();
  r.dram.powerdown_entries = dram.get("powerdown_entries").as_u64();
  r.dram.selfrefresh_entries = dram.get("selfrefresh_entries").as_u64();
  r.dram.lowpower_exit_delay = dram.get("lowpower_exit_delay").as_u64();
  r.dram.read_latency = rstat_from_json(dram.get("read_latency"));

  const Json& gating = j.get("gating");
  const Json& act = gating.get("activity");
  r.gating.activity.transitions = act.get("transitions").as_u64();
  r.gating.activity.gated_cycles = act.get("gated_cycles").as_u64();
  r.gating.activity.entry_cycles = act.get("entry_cycles").as_u64();
  r.gating.activity.wake_cycles = act.get("wake_cycles").as_u64();
  r.gating.activity.deep_transitions = act.get("deep_transitions").as_u64();
  r.gating.activity.light_transitions = act.get("light_transitions").as_u64();
  r.gating.activity.deep_gated_cycles =
      act.get("deep_gated_cycles").as_u64();
  r.gating.activity.light_gated_cycles =
      act.get("light_gated_cycles").as_u64();
  r.gating.eligible_stalls = gating.get("eligible_stalls").as_u64();
  r.gating.gated_events = gating.get("gated_events").as_u64();
  r.gating.skipped_events = gating.get("skipped_events").as_u64();
  r.gating.timeout_missed = gating.get("timeout_missed").as_u64();
  r.gating.aborted_entries = gating.get("aborted_entries").as_u64();
  r.gating.unprofitable_events = gating.get("unprofitable_events").as_u64();
  r.gating.penalty_cycles = gating.get("penalty_cycles").as_u64();
  r.gating.idle_ungated_cycles = gating.get("idle_ungated_cycles").as_u64();
  r.gating.refresh_window_cycles =
      gating.get("refresh_window_cycles").as_u64();
  r.gating.dram_pd_channel_cycles =
      gating.get("dram_pd_channel_cycles").as_u64();
  r.gating.dram_pd_windows = gating.get("dram_pd_windows").as_u64();
  r.gating.gated_len_hist = hist_from_json(gating.get("gated_len_hist"));

  const Json& energy = j.get("energy");
  r.energy.dynamic_j = energy.get("dynamic_j").as_double();
  r.energy.core_leak_j = energy.get("core_leak_j").as_double();
  r.energy.ungated_leak_j = energy.get("ungated_leak_j").as_double();
  r.energy.idle_clock_j = energy.get("idle_clock_j").as_double();
  r.energy.pg_overhead_j = energy.get("pg_overhead_j").as_double();
  r.energy.dram_j = energy.get("dram_j").as_double();
  r.energy.dram_background_j = energy.get("dram_background_j").as_double();
  r.energy.dram_lowpower_saved_j =
      energy.get("dram_lowpower_saved_j").as_double();
  r.energy.core_leak_baseline_j =
      energy.get("core_leak_baseline_j").as_double();

  return r;
}

bool results_equal(const SimResult& a, const SimResult& b) {
  return result_to_json(a).dump() == result_to_json(b).dump();
}

Json experiment_identity(const SimConfig& config,
                         const WorkloadProfile& profile,
                         const std::string& policy_spec,
                         const TraceBinding* trace) {
  Json j = Json::object();
  j["schema"] = Json::number(kExecSchemaVersion);
  j["config"] = config_json(config);
  j["profile"] = profile_json(profile);
  j["policy_spec"] = Json::string(policy_spec);
  if (trace != nullptr) {
    // Content only: the path is resolution machinery, not identity.
    Json t = Json::object();
    t["digest"] = Json::string(trace->digest_hex);
    t["offset"] = Json::number(trace->offset);
    t["name"] = Json::string(trace->name);
    j["trace"] = std::move(t);
  }
  return j;
}

std::uint64_t fnv1a64(const std::string& bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string cache_key(const SimConfig& config, const WorkloadProfile& profile,
                      const std::string& policy_spec,
                      const TraceBinding* trace) {
  const std::string canon =
      experiment_identity(config, profile, policy_spec, trace).dump();
  // Two independently-seeded FNV-1a streams -> 128 bits; plenty for the
  // few thousand cells any reproduction sweep produces.
  const std::uint64_t a = fnv1a64(canon);
  const std::uint64_t b = fnv1a64(canon, 0x9e3779b97f4a7c15ULL);
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

}  // namespace mapg

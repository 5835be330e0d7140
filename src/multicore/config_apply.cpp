#include "multicore/config_apply.h"

#include <optional>
#include <set>

namespace mapg {
namespace {

/// Keys consumed by apply_sim_config.
const std::set<std::string>& sim_keys() {
  static const std::set<std::string> keys = {
      "instructions", "warmup", "seed",
      "core.mlp_window", "core.div_latency", "core.mul_latency",
      "core.fp_latency", "core.scoreboard",
      "l1.size_kib", "l1.assoc", "l1.latency",
      "l2.size_kib", "l2.assoc", "l2.latency",
      "mem.mc_latency", "mem.fill_latency", "mem.line_bytes",
      "dram.channels", "dram.banks", "dram.row_bytes",
      "dram.standard", "dram.page_policy", "dram.hybrid_bits",
      "dram.queue_depth", "dram.write_starve",
      "dram.t_rcd", "dram.t_rp", "dram.t_cl", "dram.t_bl",
      "dram.t_ras", "dram.t_rfc", "dram.t_refi",
      "dram.power.mode", "dram.power.t_pd", "dram.power.t_xp",
      "dram.power.t_cke", "dram.power.t_xs", "dram.power.pd_timeout",
      "dram.power.sr_timeout",
      "prefetch.enable", "prefetch.degree", "prefetch.table",
      "prefetch.confirm",
      "tech.freq_ghz", "tech.vdd", "tech.core_leakage_w",
      "tech.gated_fraction", "tech.l1_leakage_w", "tech.l2_leakage_w",
      "tech.other_leakage_w", "tech.idle_clock_w",
      "pg.c_vrail_nf", "pg.rail_swing", "pg.gate_charge_nj", "pg.stages",
      "pg.stage_delay_ns", "pg.settle_ns", "pg.entry_ns",
      "pg.overhead_scale", "pg.light_swing", "pg.light_save",
      "pg.light_stages",
      "dram_energy.background_w", "dram_energy.powerdown_w",
      "dram_energy.selfrefresh_w", "dram_energy.activate_nj",
      "dram_energy.read_nj", "dram_energy.write_nj",
      "dram_energy.refresh_nj",
      "thermal.enable", "thermal.ambient_c", "thermal.r_th",
      "thermal.tau_ms", "thermal.t_ref_c", "thermal.doubling_c",
      "thermal.epoch_instrs",
  };
  return keys;
}

const std::set<std::string>& multicore_keys() {
  static const std::set<std::string> keys = {"cores", "arbiter_slots",
                                             "addr_stride_log2"};
  return keys;
}

void collect_unknown(const KvConfig& kv, std::vector<std::string>* unknown) {
  if (unknown == nullptr) return;
  // Keys owned by front-end tools, not by the platform configuration.
  static const std::set<std::string> tool_keys = {
      "config", "workload", "policy",   "csv",      "seeds", "list",
      "help",   "jobs",     "cache-dir", "no-cache", "progress", "runlog",
      "dram-power", "dram-standard", "page-policy",
      "replay", "print-metrics", "metrics-out",
      "trace-out", "trace-buf", "trace", "trace-name", "sample-regions",
      "sample-clusters", "sample-warmup", "sample-seed", "sample-sig-cache"};
  for (const auto& [key, value] : kv.all()) {
    (void)value;
    if (key.rfind("run.", 0) == 0) continue;  // reserved for tools
    if (tool_keys.count(key) != 0) continue;
    if (sim_keys().count(key) != 0) continue;
    // The multicore keys are always recognized (a single-core front end
    // simply ignores them), so "--cores=1" never warns.
    if (multicore_keys().count(key) != 0) continue;
    unknown->push_back(key);
  }
}

/// Everything except the run-length fields, shared by both entry points.
void apply_platform(const KvConfig& kv, CoreConfig& core,
                    HierarchyConfig& mem, TechParams& tech,
                    PgCircuitConfig& pg, DramEnergyParams& de) {
  core.mlp_window = static_cast<std::uint32_t>(
      kv.get_uint("core.mlp_window", core.mlp_window));
  core.div_latency = kv.get_uint("core.div_latency", core.div_latency);
  core.mul_latency = kv.get_uint("core.mul_latency", core.mul_latency);
  core.fp_latency = kv.get_uint("core.fp_latency", core.fp_latency);
  core.scoreboard_window = static_cast<std::uint32_t>(
      kv.get_uint("core.scoreboard", core.scoreboard_window));

  mem.l1d.size_bytes = kv.get_uint("l1.size_kib",
                                   mem.l1d.size_bytes / 1024) * 1024;
  mem.l1d.assoc =
      static_cast<std::uint32_t>(kv.get_uint("l1.assoc", mem.l1d.assoc));
  mem.l1d.hit_latency = kv.get_uint("l1.latency", mem.l1d.hit_latency);
  mem.l2.size_bytes = kv.get_uint("l2.size_kib",
                                  mem.l2.size_bytes / 1024) * 1024;
  mem.l2.assoc =
      static_cast<std::uint32_t>(kv.get_uint("l2.assoc", mem.l2.assoc));
  mem.l2.hit_latency = kv.get_uint("l2.latency", mem.l2.hit_latency);
  mem.mc_request_latency =
      kv.get_uint("mem.mc_latency", mem.mc_request_latency);
  mem.fill_return_latency =
      kv.get_uint("mem.fill_latency", mem.fill_return_latency);
  const auto line = static_cast<std::uint32_t>(
      kv.get_uint("mem.line_bytes", mem.l1d.line_bytes));
  mem.l1d.line_bytes = mem.l2.line_bytes = mem.dram.line_bytes = line;

  mem.dram.channels = static_cast<std::uint32_t>(
      kv.get_uint("dram.channels", mem.dram.channels));
  mem.dram.banks_per_channel = static_cast<std::uint32_t>(
      kv.get_uint("dram.banks", mem.dram.banks_per_channel));

  // The named standard is applied FIRST so every individual timing key below
  // can override its preset — that is the custom path (docs/DRAM.md §2).
  // "--dram-standard" is the front-end spelling (bench_util), "dram.standard"
  // the config-file key; the preset also swaps in the standard's IDD-class
  // energy set, again overridable by explicit dram_energy.* keys below.
  {
    const auto std_name = kv.get("dram.standard");
    const auto std_flag = kv.get("dram-standard");
    const std::string* name =
        std_name ? &*std_name : (std_flag ? &*std_flag : nullptr);
    if (name != nullptr) {
      DramStandard standard;
      if (parse_dram_standard(*name, standard)) {
        apply_dram_standard(mem.dram, standard);
        de = dram_energy_for_standard(standard);
      }
    }
  }
  if (const auto policy = kv.get("dram.page_policy")) {
    PagePolicy p;
    if (parse_page_policy(*policy, p)) mem.dram.page_policy = p;
  }
  if (const auto policy = kv.get("page-policy")) {
    PagePolicy p;
    if (parse_page_policy(*policy, p)) mem.dram.page_policy = p;
  }
  mem.dram.hybrid_addr_bits = static_cast<std::uint32_t>(
      kv.get_uint("dram.hybrid_bits", mem.dram.hybrid_addr_bits));
  mem.dram.queue_depth = static_cast<std::uint32_t>(
      kv.get_uint("dram.queue_depth", mem.dram.queue_depth));
  mem.dram.write_starve_limit =
      kv.get_uint("dram.write_starve", mem.dram.write_starve_limit);

  mem.dram.row_bytes = static_cast<std::uint32_t>(
      kv.get_uint("dram.row_bytes", mem.dram.row_bytes));
  mem.dram.t_rcd = kv.get_uint("dram.t_rcd", mem.dram.t_rcd);
  mem.dram.t_rp = kv.get_uint("dram.t_rp", mem.dram.t_rp);
  mem.dram.t_cl = kv.get_uint("dram.t_cl", mem.dram.t_cl);
  mem.dram.t_bl = kv.get_uint("dram.t_bl", mem.dram.t_bl);
  mem.dram.t_ras = kv.get_uint("dram.t_ras", mem.dram.t_ras);
  mem.dram.t_rfc = kv.get_uint("dram.t_rfc", mem.dram.t_rfc);
  mem.dram.t_refi = kv.get_uint("dram.t_refi", mem.dram.t_refi);

  // Low-power states (docs/MEMORY_POWER.md).  The mode is textual so config
  // files read naturally; anything unrecognized keeps the current mode.
  // "--dram-power" is the front-end spelling; an explicit dram.power.mode
  // wins over it.
  std::optional<std::string> mode = kv.get("dram.power.mode");
  if (!mode) mode = kv.get("dram-power");
  if (mode) {
    if (*mode == "off") mem.dram.power.mode = DramPowerMode::kOff;
    else if (*mode == "timeout") mem.dram.power.mode = DramPowerMode::kTimeout;
    else if (*mode == "coordinated")
      mem.dram.power.mode = DramPowerMode::kCoordinated;
  }
  mem.dram.power.t_pd = kv.get_uint("dram.power.t_pd", mem.dram.power.t_pd);
  mem.dram.power.t_xp = kv.get_uint("dram.power.t_xp", mem.dram.power.t_xp);
  mem.dram.power.t_cke = kv.get_uint("dram.power.t_cke", mem.dram.power.t_cke);
  mem.dram.power.t_xs = kv.get_uint("dram.power.t_xs", mem.dram.power.t_xs);
  mem.dram.power.powerdown_timeout = kv.get_uint(
      "dram.power.pd_timeout", mem.dram.power.powerdown_timeout);
  mem.dram.power.selfrefresh_timeout = kv.get_uint(
      "dram.power.sr_timeout", mem.dram.power.selfrefresh_timeout);

  mem.prefetch.enable = kv.get_bool("prefetch.enable", mem.prefetch.enable);
  mem.prefetch.degree = static_cast<std::uint32_t>(
      kv.get_uint("prefetch.degree", mem.prefetch.degree));
  mem.prefetch.table_entries = static_cast<std::uint32_t>(
      kv.get_uint("prefetch.table", mem.prefetch.table_entries));
  mem.prefetch.confirm_after = static_cast<std::uint32_t>(
      kv.get_uint("prefetch.confirm", mem.prefetch.confirm_after));

  tech.freq_ghz = kv.get_double("tech.freq_ghz", tech.freq_ghz);
  tech.vdd = kv.get_double("tech.vdd", tech.vdd);
  tech.core_leakage_w =
      kv.get_double("tech.core_leakage_w", tech.core_leakage_w);
  tech.gated_fraction =
      kv.get_double("tech.gated_fraction", tech.gated_fraction);
  tech.l1_leakage_w = kv.get_double("tech.l1_leakage_w", tech.l1_leakage_w);
  tech.l2_leakage_w = kv.get_double("tech.l2_leakage_w", tech.l2_leakage_w);
  tech.other_leakage_w =
      kv.get_double("tech.other_leakage_w", tech.other_leakage_w);
  tech.idle_clock_w = kv.get_double("tech.idle_clock_w", tech.idle_clock_w);

  pg.c_vrail_nf = kv.get_double("pg.c_vrail_nf", pg.c_vrail_nf);
  pg.rail_swing_frac = kv.get_double("pg.rail_swing", pg.rail_swing_frac);
  pg.gate_charge_nj = kv.get_double("pg.gate_charge_nj", pg.gate_charge_nj);
  pg.wakeup_stages = static_cast<std::uint32_t>(
      kv.get_uint("pg.stages", pg.wakeup_stages));
  pg.stage_delay_ns = kv.get_double("pg.stage_delay_ns", pg.stage_delay_ns);
  pg.settle_ns = kv.get_double("pg.settle_ns", pg.settle_ns);
  pg.entry_ns = kv.get_double("pg.entry_ns", pg.entry_ns);
  pg.overhead_scale = kv.get_double("pg.overhead_scale", pg.overhead_scale);
  pg.light_swing_frac = kv.get_double("pg.light_swing", pg.light_swing_frac);
  pg.light_save_frac = kv.get_double("pg.light_save", pg.light_save_frac);
  pg.light_wakeup_stages = static_cast<std::uint32_t>(
      kv.get_uint("pg.light_stages", pg.light_wakeup_stages));

  de.background_w_per_channel =
      kv.get_double("dram_energy.background_w", de.background_w_per_channel);
  de.powerdown_w_per_channel =
      kv.get_double("dram_energy.powerdown_w", de.powerdown_w_per_channel);
  de.selfrefresh_w_per_channel = kv.get_double(
      "dram_energy.selfrefresh_w", de.selfrefresh_w_per_channel);
  de.activate_nj = kv.get_double("dram_energy.activate_nj", de.activate_nj);
  de.read_nj = kv.get_double("dram_energy.read_nj", de.read_nj);
  de.write_nj = kv.get_double("dram_energy.write_nj", de.write_nj);
  de.refresh_nj = kv.get_double("dram_energy.refresh_nj", de.refresh_nj);
}

}  // namespace

SimConfig apply_sim_config(const KvConfig& kv, SimConfig base,
                           std::vector<std::string>* unknown) {
  collect_unknown(kv, unknown);
  apply_platform(kv, base.core, base.mem, base.tech, base.pg,
                 base.dram_energy);
  base.thermal.enable = kv.get_bool("thermal.enable", base.thermal.enable);
  base.thermal.t_ambient_c =
      kv.get_double("thermal.ambient_c", base.thermal.t_ambient_c);
  base.thermal.r_th_k_per_w =
      kv.get_double("thermal.r_th", base.thermal.r_th_k_per_w);
  base.thermal.tau_ms = kv.get_double("thermal.tau_ms", base.thermal.tau_ms);
  base.thermal.t_ref_c =
      kv.get_double("thermal.t_ref_c", base.thermal.t_ref_c);
  base.thermal.leak_doubling_c =
      kv.get_double("thermal.doubling_c", base.thermal.leak_doubling_c);
  base.thermal.epoch_instructions =
      kv.get_uint("thermal.epoch_instrs", base.thermal.epoch_instructions);
  base.instructions = kv.get_uint("instructions", base.instructions);
  base.warmup_instructions = kv.get_uint("warmup", base.warmup_instructions);
  base.run_seed = kv.get_uint("seed", base.run_seed);
  return base;
}

MulticoreConfig apply_multicore_config(const KvConfig& kv,
                                       MulticoreConfig base,
                                       std::vector<std::string>* unknown) {
  collect_unknown(kv, unknown);
  apply_platform(kv, base.core, base.mem, base.tech, base.pg,
                 base.dram_energy);
  base.instructions_per_core =
      kv.get_uint("instructions", base.instructions_per_core);
  base.warmup_instructions = kv.get_uint("warmup", base.warmup_instructions);
  base.run_seed = kv.get_uint("seed", base.run_seed);
  base.num_cores =
      static_cast<std::uint32_t>(kv.get_uint("cores", base.num_cores));
  base.wake_arbiter_slots = static_cast<std::uint32_t>(
      kv.get_uint("arbiter_slots", base.wake_arbiter_slots));
  const auto stride_log2 = kv.get_uint("addr_stride_log2", 40);
  base.core_addr_stride = 1ULL << stride_log2;
  return base;
}

}  // namespace mapg

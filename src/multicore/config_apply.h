// Textual configuration -> simulator configs.
//
// One place maps "key=value" pairs (from config files or command lines) onto
// every knob in SimConfig / MulticoreConfig, so the CLI tool, examples, and
// scripts all speak the same dialect.  Unknown keys are reported, not
// silently ignored — config typos in experiments are a classic way to
// publish wrong numbers.
//
// Supported keys (defaults in parentheses are the DESIGN.md §7 platform):
//   instructions, warmup, seed
//   core.mlp_window (8), core.div_latency (20), core.mul_latency (3),
//   core.fp_latency (4), core.scoreboard (128)
//   l1.size_kib (32), l1.assoc (8), l1.latency (3)
//   l2.size_kib (1024), l2.assoc (16), l2.latency (12)
//   mem.mc_latency (10), mem.fill_latency (15), mem.line_bytes (64)
//   dram.channels (2), dram.banks (8), dram.row_bytes (8192),
//   dram.t_rcd (41), dram.t_rp (41), dram.t_cl (41), dram.t_bl (15),
//   dram.t_ras (105), dram.t_rfc (480), dram.t_refi (23400)
//   dram.standard (ddr3-1600 | ddr4-2400 | lpddr4-3200 | custom; applied
//   before the dram.t_* and dram_energy.* keys, which override it),
//   dram.page_policy (open | closed | hybrid), dram.hybrid_bits (2),
//   dram.queue_depth (0), dram.write_starve (512)
//   dram.power.mode (off | timeout | coordinated), dram.power.t_pd (8),
//   dram.power.t_xp (18), dram.power.t_cke (17), dram.power.t_xs (510),
//   dram.power.pd_timeout (192), dram.power.sr_timeout (0)
//   dram-power (alias for dram.power.mode; an explicit dram.power.mode wins)
//   prefetch.enable (0), prefetch.degree (2), prefetch.table (16),
//   prefetch.confirm (1)
//   tech.freq_ghz (3.0), tech.vdd (1.0), tech.core_leakage_w (0.5),
//   tech.gated_fraction (0.95), tech.l1_leakage_w (0.05),
//   tech.l2_leakage_w (0.25), tech.other_leakage_w (0.08),
//   tech.idle_clock_w (0.10)
//   pg.c_vrail_nf (6), pg.rail_swing (0.9), pg.gate_charge_nj (2),
//   pg.stages (8), pg.stage_delay_ns (1), pg.settle_ns (2), pg.entry_ns (2),
//   pg.overhead_scale (1), pg.light_swing (0.25), pg.light_save (0.55),
//   pg.light_stages (2)
//   dram_energy.background_w (0.35), dram_energy.powerdown_w (0.12),
//   dram_energy.selfrefresh_w (0.045), dram_energy.activate_nj (12),
//   dram_energy.read_nj (10), dram_energy.write_nj (11),
//   dram_energy.refresh_nj (110)
//   thermal.enable (0), thermal.ambient_c (70), thermal.r_th (30),
//   thermal.tau_ms (1), thermal.t_ref_c (85), thermal.doubling_c (25),
//   thermal.epoch_instrs (20000)   [single-core run_thermal only]
// MulticoreConfig additionally:
//   cores (4), arbiter_slots (0), addr_stride_log2 (40)
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "core/sim.h"
#include "multicore/multicore.h"

namespace mapg {

/// Apply recognized keys onto `base`; unrecognized keys (outside the
/// reserved tool namespace "run.*") are appended to `unknown` when given.
SimConfig apply_sim_config(const KvConfig& kv, SimConfig base = {},
                           std::vector<std::string>* unknown = nullptr);

/// Multicore variant; shares all SimConfig keys plus the multicore ones.
MulticoreConfig apply_multicore_config(const KvConfig& kv,
                                       MulticoreConfig base = {},
                                       std::vector<std::string>* unknown =
                                           nullptr);

}  // namespace mapg

#include "power/dram_energy.h"

#include <algorithm>

namespace mapg {

DramEnergyParams dram_energy_for_standard(DramStandard standard) {
  DramEnergyParams p;  // defaults == DDR3-1600 2 Gb x8 class
  switch (standard) {
    case DramStandard::kCustom:
    case DramStandard::kDdr3_1600:
      break;
    case DramStandard::kDdr4_2400:
      // 8 Gb x8 at 1.2 V: lower standby and per-bit event energy than DDR3,
      // but the bigger die makes each refresh event costlier.
      p.background_w_per_channel = 0.30;
      p.powerdown_w_per_channel = 0.09;
      p.selfrefresh_w_per_channel = 0.030;
      p.activate_nj = 10.0;
      p.read_nj = 8.0;
      p.write_nj = 9.0;
      p.refresh_nj = 130.0;
      break;
    case DramStandard::kLpddr4_3200:
      // 8 Gb x16 at 1.1 V with a 0.6 V VDDQ: mobile-class background draw
      // and aggressive low-power states (IDD2P/IDD6 an order of magnitude
      // below the DDR3 numbers), smaller 2 KiB pages so cheaper ACTs.
      p.background_w_per_channel = 0.10;
      p.powerdown_w_per_channel = 0.025;
      p.selfrefresh_w_per_channel = 0.008;
      p.activate_nj = 6.0;
      p.read_nj = 4.0;
      p.write_nj = 4.5;
      p.refresh_nj = 60.0;
      break;
  }
  return p;
}

DramEnergyBreakdown compute_dram_energy_breakdown(
    const DramStats& stats, const DramConfig& config, const TechParams& tech,
    const DramEnergyParams& params, Cycle duration,
    std::uint64_t coordinated_pd_channel_cycles) {
  const double seconds =
      tech.cycles_to_seconds(static_cast<double>(duration));

  DramEnergyBreakdown b;
  b.background_j =
      params.background_w_per_channel * config.channels * seconds;

  // Low-power residency reduces the background term: each channel-cycle in
  // power-down (timeout-driven or gating-coordinated) or self-refresh burns
  // the state's power instead of the active background power.
  const double pd_s = tech.cycles_to_seconds(static_cast<double>(
      stats.powerdown_cycles + coordinated_pd_channel_cycles));
  const double sr_s =
      tech.cycles_to_seconds(static_cast<double>(stats.selfrefresh_cycles));
  b.lowpower_saved_j =
      (params.background_w_per_channel - params.powerdown_w_per_channel) *
          pd_s +
      (params.background_w_per_channel - params.selfrefresh_w_per_channel) *
          sr_s;

  const double activations =
      static_cast<double>(stats.row_closed + stats.row_conflicts);
  b.events_j = (activations * params.activate_nj +
                static_cast<double>(stats.reads) * params.read_nj +
                static_cast<double>(stats.writes) * params.write_nj) *
               1e-9;

  if (config.t_refi > 0) {
    // Channel-cycles spent in self-refresh need no controller refresh: the
    // device refreshes itself (its energy is inside selfrefresh_w).
    const double refreshes = std::max(
        0.0, static_cast<double>(duration) /
                     static_cast<double>(config.t_refi) * config.channels -
                 static_cast<double>(stats.selfrefresh_cycles) /
                     static_cast<double>(config.t_refi));
    b.refresh_j = refreshes * params.refresh_nj * 1e-9;
  }
  return b;
}

double compute_dram_energy_j(const DramStats& stats, const DramConfig& config,
                             const TechParams& tech,
                             const DramEnergyParams& params, Cycle duration,
                             std::uint64_t coordinated_pd_channel_cycles) {
  return compute_dram_energy_breakdown(stats, config, tech, params, duration,
                                       coordinated_pd_channel_cycles)
      .total_j();
}

}  // namespace mapg

// DRAM energy model (substrate extension): turns the controller's event
// counts into joules so experiments can report full-system energy, not just
// the core domain.  Event energies are DDR3-1600 2 Gb x8 class (datasheet
// IDD-derived, per 64 B line burst); the background term covers standby,
// clocking and ODT averaged over activity, with per-state reductions while a
// channel sits in precharge power-down or self-refresh (IDD2P / IDD6 class;
// parameter sources in docs/MEMORY_POWER.md).
//
// Policy relevance: gating the core does not change the DRAM *access stream*,
// but with low-power states enabled the DRAM's energy is no longer
// policy-independent — a policy that stretches runtime pays extra background
// energy for the whole stretch, and a coordinated policy that knows the
// data-return cycle can park idle channels in power-down during stalls
// (src/pg/dram_coordinator.h).
#pragma once

#include "mem/dram.h"
#include "power/tech_params.h"

namespace mapg {

struct DramEnergyParams {
  double background_w_per_channel = 0.35;
  /// Background power while a channel sits in precharge power-down
  /// (IDD2P-class; CKE low, DLL frozen).
  double powerdown_w_per_channel = 0.12;
  /// Background power while a channel sits in self-refresh (IDD6-class; the
  /// device refreshes itself, so no controller refresh events are charged
  /// for that residency).
  double selfrefresh_w_per_channel = 0.045;
  double activate_nj = 12.0;  ///< ACT + PRE pair, per row activation
  double read_nj = 10.0;      ///< per 64 B read burst
  double write_nj = 11.0;     ///< per 64 B write burst
  double refresh_nj = 110.0;  ///< per refresh event, per channel
};

/// IDD-class draw set for a named timing standard (docs/DRAM.md §5).  The
/// defaults above ARE the DDR3-1600 set; DDR4 trims every term and LPDDR4 is
/// the mobile part: much lower background and far deeper low-power states —
/// which is what moves MAPG's coordinated-gating crossover (R-Tab.9).
/// kCustom returns the defaults unchanged.
DramEnergyParams dram_energy_for_standard(DramStandard standard);

/// Component split of the DRAM energy over a run.  `total_j()` is what lands
/// in EnergyBreakdown::dram_j; the background / low-power split is reported
/// separately so experiments can show what residency bought.
struct DramEnergyBreakdown {
  double background_j = 0;      ///< all-channels-always-active background
  double lowpower_saved_j = 0;  ///< background removed by PD/SR residency
  double events_j = 0;          ///< ACT/PRE + read + write bursts
  double refresh_j = 0;         ///< controller refresh events (net of SR)

  double total_j() const {
    return background_j - lowpower_saved_j + events_j + refresh_j;
  }
};

/// Energy consumed by the DRAM subsystem over `duration` core cycles given
/// the observed controller statistics.  Row activations are the closed +
/// conflict accesses (each required an ACT); refresh events fire every
/// t_REFI per channel, minus the refreshes the devices performed internally
/// while in self-refresh.  `coordinated_pd_channel_cycles` is the extra
/// power-down residency accumulated by the gating-coordinated path
/// (GatingStats::dram_pd_channel_cycles) — the DRAM-side counters and the
/// coordinated counters are mutually exclusive by construction, so the sum
/// never double-counts.
DramEnergyBreakdown compute_dram_energy_breakdown(
    const DramStats& stats, const DramConfig& config, const TechParams& tech,
    const DramEnergyParams& params, Cycle duration,
    std::uint64_t coordinated_pd_channel_cycles = 0);

/// Total of the breakdown above (convenience wrapper).
double compute_dram_energy_j(const DramStats& stats, const DramConfig& config,
                             const TechParams& tech,
                             const DramEnergyParams& params, Cycle duration,
                             std::uint64_t coordinated_pd_channel_cycles = 0);

}  // namespace mapg

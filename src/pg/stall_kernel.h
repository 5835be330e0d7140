// The two stall-resolution kernels behind PgController.
//
// A full-core stall window [start, resume) is fully determined at onset: the
// data-return cycle is known (StallEvent), the policy's decision is a pure
// function of the event, and the circuit latencies are constants.  The
// fast-forward kernel (resolve_stall_fast) therefore resolves the whole
// window in closed form — timeout edge, entry, gated phase, wake request,
// arbiter grant, resume — without ever iterating a cycle.
//
// SteppedStallKernel is the cycle-accurate reference: a per-cycle loop that
// dispatches tick(t) to clocked components (the gating-phase FSM, a DRAM
// refresh-occupancy meter, an energy integrator) and advances one cycle at a
// time, the way a naive cycle-driven simulator is written.  It fires the
// timeout/break-even/wakeup edges at the exact cycle the condition first
// holds and calls the policy and the wake arbiter at the same logical points
// as the fast path.
//
// Contract (enforced by tests/test_differential.cpp): both kernels produce
// identical StallWindowOutcome integer fields and identical policy/arbiter
// call sequences for every event; window_energy_j agrees to floating-point
// tolerance (closed-form products vs per-cycle summation).
//
// Window-independence contract (docs/MODEL.md §4b): neither kernel carries
// mutable state ACROSS windows — each resolution is a pure function of
// (StallEvent, GateDecision, StallKernelParams).  In particular the
// refresh-occupancy meter is anchored in ABSOLUTE time (windows at
// multiples of t_refi, same recurrence as Dram::skip_refresh), never in
// elapsed-since-last-window time.  This is what makes a replayed controller
// exact: feeding it the recorded event sequence reproduces the direct run's
// gating with no hidden phase between windows.  tests/test_replay.cpp
// falsifies this cell by cell.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "cpu/core.h"
#include "pg/dram_coordinator.h"
#include "pg/policy.h"
#include "pg/wake_arbiter.h"
#include "power/interval_energy.h"
#include "power/pg_circuit.h"

namespace mapg {

/// The policy's decision at stall onset, resolved before either kernel runs
/// so both see the identical decision (and stateful policies are queried in
/// the identical order).
struct GateDecision {
  bool gate = false;
  Cycle gate_start = 0;  ///< stall.start + gate_delay; valid when gate
};

/// Everything one stall window resolves to.  PgController applies this to
/// its statistics uniformly, so both kernels are scored identically.
struct StallWindowOutcome {
  Cycle resume = 0;            ///< cycle the core may issue again
  bool gated = false;          ///< a sleep/wake transition happened
  bool timeout_missed = false; ///< gate_delay consumed the whole stall
  SleepMode mode = SleepMode::kDeep;  ///< meaningful when gated
  std::uint64_t entry_cycles = 0;
  std::uint64_t gated_cycles = 0;
  std::uint64_t wake_cycles = 0;
  std::uint64_t idle_ungated_cycles = 0;   ///< stalled, clock on, not gating
  std::uint64_t refresh_overlap_cycles = 0;  ///< window cycles inside t_rfc
  /// DRAM channel-cycles parked in coordinated power-down during this window
  /// (pg/dram_coordinator.h); 0 unless coordination is enabled, the policy
  /// opted in, and the window was eligible.
  std::uint64_t dram_pd_cycles = 0;
  double window_energy_j = 0;  ///< stall-window energy (cross-check only)
};

/// Static inputs shared by both kernels beyond (policy, circuit, arbiter).
struct StallKernelParams {
  StepMode mode = StepMode::kFastForward;
  Cycle t_refi = 0;  ///< DRAM refresh interval; 0 disables overlap metering
  Cycle t_rfc = 0;
  StallEnergyRates rates{};  ///< all-zero disables the energy cross-check
  /// Coordinated CPU–DRAM gating inputs; disabled unless the platform runs
  /// DramPowerMode::kCoordinated (and then only policies with
  /// coordinate_dram() actually park channels).
  DramCoordinationParams dram_pd{};
};

/// Closed-form resolution.  This is the production path; its arithmetic is
/// the original event-driven controller logic and must stay byte-identical
/// to it (the golden tests pin end-to-end results through here).
StallWindowOutcome resolve_stall_fast(PgPolicy& policy,
                                      const PgCircuit& circuit,
                                      WakeArbiter* arbiter,
                                      const StallKernelParams& params,
                                      const StallEvent& ev,
                                      const GateDecision& decision);

/// One per-cycle-ticked model in the reference kernel.  tick(t) accounts for
/// cycle t (the interval [t, t+1)); components are dispatched in a fixed
/// order each cycle, FSM first.
class ClockedComponent {
 public:
  virtual ~ClockedComponent() = default;
  virtual void tick(Cycle t) = 0;
};

/// The cycle-accurate reference kernel.  Construct once per controller;
/// resolve() walks one stall window cycle by cycle.
class SteppedStallKernel {
 public:
  SteppedStallKernel(PgPolicy& policy, const PgCircuit& circuit,
                     WakeArbiter* arbiter, const StallKernelParams& params);
  ~SteppedStallKernel();
  // The components hold a reference to out_.
  SteppedStallKernel(const SteppedStallKernel&) = delete;
  SteppedStallKernel& operator=(const SteppedStallKernel&) = delete;

  StallWindowOutcome resolve(const StallEvent& ev,
                             const GateDecision& decision);

 private:
  class PhaseFsm;
  class PowerDownMeter;
  class RefreshMeter;
  class EnergyMeter;

  /// The window being resolved; every component accumulates into it.
  StallWindowOutcome out_;
  std::unique_ptr<PhaseFsm> fsm_;
  std::unique_ptr<PowerDownMeter> powerdown_;
  std::unique_ptr<RefreshMeter> refresh_;
  std::unique_ptr<EnergyMeter> energy_;
  std::vector<ClockedComponent*> components_;
};

}  // namespace mapg

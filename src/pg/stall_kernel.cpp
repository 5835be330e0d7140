#include "pg/stall_kernel.h"

#include <algorithm>
#include <cassert>

namespace mapg {

// ---------------------------------------------------------------------------
// Fast-forward (closed-form) kernel
// ---------------------------------------------------------------------------

StallWindowOutcome resolve_stall_fast(PgPolicy& policy,
                                      const PgCircuit& circuit,
                                      WakeArbiter* arbiter,
                                      const StallKernelParams& params,
                                      const StallEvent& ev,
                                      const GateDecision& decision) {
  StallWindowOutcome out;

  if (!decision.gate) {
    out.resume = ev.data_ready;
    out.idle_ungated_cycles = ev.data_ready - ev.start;
  } else if (decision.gate_start >= ev.data_ready) {
    // The idle-timeout wait consumed the whole stall: no transition happens.
    out.timeout_missed = true;
    out.resume = ev.data_ready;
    out.idle_ungated_cycles = ev.data_ready - ev.start;
  } else {
    const SleepMode mode = policy.sleep_mode(ev);
    const Cycle entry_lat = circuit.entry_latency_cycles();
    const Cycle wake_lat = circuit.wakeup_latency_cycles(mode);
    const Cycle entry_end = decision.gate_start + entry_lat;

    Cycle wake_start = 0;
    switch (policy.wake_mode()) {
      case WakeMode::kOracle:
        wake_start = cycle_sub_sat(ev.data_ready, wake_lat);
        break;
      case WakeMode::kEarly:
        // The MC can schedule the wakeup `wake_lat` ahead of the return, but
        // not before the return time is exactly known (the commit point).
        wake_start =
            std::max(ev.commit, cycle_sub_sat(ev.data_ready, wake_lat));
        break;
      case WakeMode::kReactive:
        wake_start = ev.data_ready;
        break;
    }
    // The sleep sequence is not interruptible: wakeup waits for entry to end.
    wake_start = std::max(wake_start, entry_end);

    // Shared di/dt budget: the wakeup window may be postponed until a slot
    // frees up (the core simply stays gated while it waits).
    if (arbiter != nullptr)
      wake_start = arbiter->reserve(wake_start, wake_lat, ev.start);

    // All wake modes request the wakeup no later than data_ready - wake_lat
    // is feasible, so the wake always covers the data return:
    assert(wake_start + wake_lat >= ev.data_ready);

    out.resume = std::max(ev.data_ready, wake_start + wake_lat);
    out.gated = true;
    out.mode = mode;
    out.entry_cycles = entry_lat;
    out.gated_cycles = wake_start - entry_end;
    out.wake_cycles = wake_lat;
    out.idle_ungated_cycles = decision.gate_start - ev.start;
  }

  // Coordinated CPU–DRAM gating: a gated stall parks the idle channels in
  // power-down for the closed-form window (pg/dram_coordinator.h).
  if (out.gated && params.dram_pd.enabled && policy.coordinate_dram()) {
    const PdWindow w = coordinated_pd_window(
        params.dram_pd, decision.gate_start, ev.data_ready);
    out.dram_pd_cycles =
        static_cast<std::uint64_t>(w.per_channel_cycles()) *
        params.dram_pd.idle_channels;
  }

  out.refresh_overlap_cycles = refresh_window_overlap(
      ev.start, out.resume, params.t_refi, params.t_rfc);
  out.window_energy_j = stall_window_energy_j(
      params.rates, StallPhaseCycles{.idle_ungated = out.idle_ungated_cycles,
                                     .entry = out.entry_cycles,
                                     .gated = out.gated_cycles,
                                     .wake = out.wake_cycles,
                                     .dram_pd = out.dram_pd_cycles,
                                     .mode = out.mode});
  return out;
}

// ---------------------------------------------------------------------------
// Cycle-accurate reference kernel
// ---------------------------------------------------------------------------

namespace {
/// What the core was doing during the cycle just ticked (drives metering).
enum class Phase : std::uint8_t {
  kWaiting,   ///< stalled, clock running, no gating in effect yet
  kEntry,     ///< isolating outputs / draining the virtual rail
  kGated,     ///< rail collapsed: leakage being saved
  kWake,      ///< staged turn-on + settle
  kResolved,  ///< window over; no further cycles belong to this stall
};
}  // namespace

/// Per-cycle gating FSM.  Evaluates the timeout edge, the entry/gated/wake
/// phase boundaries, and the mode-specific wake condition at each cycle, and
/// performs the policy/arbiter calls at the first cycle the corresponding
/// condition holds — exactly where the closed-form kernel places them.
class SteppedStallKernel::PhaseFsm final : public ClockedComponent {
 public:
  PhaseFsm(PgPolicy& policy, const PgCircuit& circuit, WakeArbiter* arbiter,
           StallWindowOutcome& out)
      : policy_(policy), circuit_(circuit), arbiter_(arbiter), out_(out) {}

  void reset(const StallEvent& ev, const GateDecision& decision) {
    ev_ = ev;
    decision_ = decision;
    phase_ = Phase::kWaiting;
    ticked_phase_ = Phase::kWaiting;
    entry_left_ = 0;
    wake_left_ = 0;
    wake_lat_ = 0;
    wake_mode_ = WakeMode::kReactive;
    wake_requested_ = false;
    grant_ = 0;
  }

  bool resolved() const { return phase_ == Phase::kResolved; }
  /// Phase the core occupied during the cycle just dispatched (kResolved if
  /// that cycle lies past the window and was not consumed).
  Phase ticked_phase() const { return ticked_phase_; }

  void tick(Cycle t) override {
    ticked_phase_ = Phase::kResolved;
    switch (phase_) {
      case Phase::kWaiting:
        if (t >= ev_.data_ready) {
          // Data arrived before any gating took hold.  If the policy wanted
          // to gate, its timeout outlasted the stall (the `>=` edge).
          out_.timeout_missed = decision_.gate;
          out_.resume = ev_.data_ready;
          phase_ = Phase::kResolved;
          break;
        }
        if (decision_.gate && t >= decision_.gate_start) {
          // Entry begins this cycle; the policy commits to a sleep mode now,
          // in the same call order as the closed-form kernel.
          out_.gated = true;
          out_.mode = policy_.sleep_mode(ev_);
          wake_mode_ = policy_.wake_mode();
          entry_left_ = circuit_.entry_latency_cycles();
          wake_lat_ = circuit_.wakeup_latency_cycles(out_.mode);
          phase_ = Phase::kEntry;
          tick_entry(t);
          break;
        }
        ++out_.idle_ungated_cycles;
        ticked_phase_ = Phase::kWaiting;
        break;
      case Phase::kEntry:
        tick_entry(t);
        break;
      case Phase::kGated:
        tick_gated(t);
        break;
      case Phase::kWake:
        tick_wake(t);
        break;
      case Phase::kResolved:
        break;
    }
  }

 private:
  void tick_entry(Cycle t) {
    if (entry_left_ == 0) {  // entry_ns rounds to zero cycles
      phase_ = Phase::kGated;
      tick_gated(t);
      return;
    }
    ++out_.entry_cycles;
    ticked_phase_ = Phase::kEntry;
    if (--entry_left_ == 0) phase_ = Phase::kGated;
  }

  void tick_gated(Cycle t) {
    if (!wake_requested_ && wake_due(t)) {
      wake_requested_ = true;
      // Same arbiter call, same arguments, same call point as the closed
      // form: the first cycle the wake condition holds.
      grant_ = arbiter_ != nullptr ? arbiter_->reserve(t, wake_lat_, ev_.start)
                                   : t;
      wake_left_ = wake_lat_;
    }
    if (wake_requested_ && t >= grant_) {
      phase_ = Phase::kWake;
      tick_wake(t);
      return;
    }
    ++out_.gated_cycles;
    ticked_phase_ = Phase::kGated;
  }

  void tick_wake(Cycle t) {
    if (wake_left_ == 0) {  // degenerate zero-latency wake
      out_.resume = std::max(ev_.data_ready, t);
      phase_ = Phase::kResolved;
      return;
    }
    ++out_.wake_cycles;
    ticked_phase_ = Phase::kWake;
    if (--wake_left_ == 0) {
      out_.resume = std::max(ev_.data_ready, t + 1);
      phase_ = Phase::kResolved;
    }
  }

  /// Mode-specific wake condition at cycle t, evaluated only while gated.
  /// Monotone in t, so the first satisfying cycle equals the closed-form
  /// wake_start (pre-arbiter).
  bool wake_due(Cycle t) const {
    switch (wake_mode_) {
      case WakeMode::kOracle:
        return cycle_add(t, wake_lat_) >= ev_.data_ready;
      case WakeMode::kEarly:
        return t >= ev_.commit && cycle_add(t, wake_lat_) >= ev_.data_ready;
      case WakeMode::kReactive:
        return t >= ev_.data_ready;
    }
    return true;
  }

  PgPolicy& policy_;
  const PgCircuit& circuit_;
  WakeArbiter* arbiter_;
  StallWindowOutcome& out_;

  StallEvent ev_{};
  GateDecision decision_{};
  Phase phase_ = Phase::kResolved;
  Phase ticked_phase_ = Phase::kResolved;
  Cycle entry_left_ = 0;
  Cycle wake_left_ = 0;
  Cycle wake_lat_ = 0;
  WakeMode wake_mode_ = WakeMode::kReactive;
  bool wake_requested_ = false;
  Cycle grant_ = 0;
};

/// Meters coordinated DRAM power-down residency one cycle at a time — the
/// brute-force evaluation of coordinated_pd_window().  The window bounds are
/// precomputed at reset (they are a pure function of the decision and the
/// event, exactly what the closed form consumes), but membership is decided
/// per cycle so the stepped kernel never skips time.
class SteppedStallKernel::PowerDownMeter final : public ClockedComponent {
 public:
  PowerDownMeter(const PhaseFsm& fsm, const PgPolicy& policy,
                 const DramCoordinationParams& params,
                 const StallEnergyRates& rates, StallWindowOutcome& out)
      : fsm_(fsm), policy_(policy), params_(params), rates_(rates), out_(out) {}

  void reset(const StallEvent& ev, const GateDecision& decision) {
    window_ = PdWindow{};
    if (decision.gate && params_.enabled && policy_.coordinate_dram())
      window_ = coordinated_pd_window(params_, decision.gate_start,
                                      ev.data_ready);
  }

  void tick(Cycle t) override {
    if (!window_.eligible) return;
    if (fsm_.ticked_phase() == Phase::kResolved) return;
    if (t < window_.established || t >= window_.exit_initiate) return;
    out_.dram_pd_cycles += params_.idle_channels;
    out_.window_energy_j -= rates_.dram_pd_saved_j * params_.idle_channels;
  }

 private:
  const PhaseFsm& fsm_;
  const PgPolicy& policy_;
  DramCoordinationParams params_;
  StallEnergyRates rates_;
  StallWindowOutcome& out_;
  PdWindow window_{};
};

/// Counts window cycles that overlap a DRAM refresh window, by per-cycle
/// modulo — the brute-force evaluation of refresh_busy_cycles().
class SteppedStallKernel::RefreshMeter final : public ClockedComponent {
 public:
  RefreshMeter(const PhaseFsm& fsm, Cycle t_refi, Cycle t_rfc,
               StallWindowOutcome& out)
      : fsm_(fsm), t_refi_(t_refi), t_rfc_(t_rfc), out_(out) {}

  void tick(Cycle t) override {
    if (fsm_.ticked_phase() == Phase::kResolved) return;
    if (t_refi_ != 0 && (t % t_refi_) < t_rfc_)
      ++out_.refresh_overlap_cycles;
  }

 private:
  const PhaseFsm& fsm_;
  Cycle t_refi_;
  Cycle t_rfc_;
  StallWindowOutcome& out_;
};

/// Integrates the stall-window energy one cycle at a time — the brute-force
/// evaluation of stall_window_energy_j().
class SteppedStallKernel::EnergyMeter final : public ClockedComponent {
 public:
  EnergyMeter(const PhaseFsm& fsm, const StallEnergyRates& rates,
              StallWindowOutcome& out)
      : fsm_(fsm), rates_(rates), out_(out) {}

  void tick(Cycle) override {
    double e = 0.0;
    switch (fsm_.ticked_phase()) {
      case Phase::kResolved:
        return;
      case Phase::kWaiting:
        e = rates_.leak_j + rates_.dram_background_j + rates_.idle_clock_j;
        break;
      case Phase::kGated:
        e = rates_.leak_j + rates_.dram_background_j -
            rates_.saved_j(out_.mode);
        break;
      case Phase::kEntry:
      case Phase::kWake:
        e = rates_.leak_j + rates_.dram_background_j;
        break;
    }
    out_.window_energy_j += e;
  }

 private:
  const PhaseFsm& fsm_;
  StallEnergyRates rates_;
  StallWindowOutcome& out_;
};

SteppedStallKernel::SteppedStallKernel(PgPolicy& policy,
                                       const PgCircuit& circuit,
                                       WakeArbiter* arbiter,
                                       const StallKernelParams& params)
    : fsm_(std::make_unique<PhaseFsm>(policy, circuit, arbiter, out_)),
      powerdown_(std::make_unique<PowerDownMeter>(
          *fsm_, policy, params.dram_pd, params.rates, out_)),
      refresh_(std::make_unique<RefreshMeter>(*fsm_, params.t_refi,
                                              params.t_rfc, out_)),
      energy_(std::make_unique<EnergyMeter>(*fsm_, params.rates, out_)) {
  // FSM first: the meters classify cycle t by the phase it just recorded.
  components_ = {fsm_.get(), powerdown_.get(), refresh_.get(), energy_.get()};
}

SteppedStallKernel::~SteppedStallKernel() = default;

StallWindowOutcome SteppedStallKernel::resolve(const StallEvent& ev,
                                               const GateDecision& decision) {
  out_ = StallWindowOutcome{};
  fsm_->reset(ev, decision);
  powerdown_->reset(ev, decision);
  for (Cycle t = ev.start; !fsm_->resolved(); ++t)
    for (ClockedComponent* c : components_) c->tick(t);
  return out_;
}

}  // namespace mapg

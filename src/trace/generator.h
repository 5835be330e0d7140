// Synthetic trace generator: turns a WorkloadProfile into a deterministic,
// unbounded instruction stream (see profile.h for the substitution rationale).
#pragma once

#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "trace/instr.h"
#include "trace/profile.h"

namespace mapg {

class TraceGenerator final : public TraceSource {
 public:
  /// `run_seed` is mixed with the profile's own seed so repeated experiments
  /// can draw independent traces from the same profile.
  explicit TraceGenerator(WorkloadProfile profile, std::uint64_t run_seed = 0);

  bool next(Instr& out) override;  ///< Always returns true (unbounded).
  void reset() override;

  const WorkloadProfile& profile() const { return profile_; }

 private:
  struct Stream {
    Addr base = 0;    ///< region start
    Addr length = 0;  ///< wrap length in bytes
    Addr pos = 0;     ///< next offset
  };

  void init_streams();
  Addr next_stream_addr();
  Addr random_hot_addr();
  Addr random_cold_addr();
  std::uint16_t draw_dep_dist();

  WorkloadProfile profile_;
  std::uint64_t run_seed_;
  Prng prng_;
  Geometric dep_dist_geo_;  ///< success probability 1 / dep_dist_mean
  std::vector<Stream> streams_;
  std::size_t next_stream_ = 0;

  // Address-space layout: [0, hot) hot set, [hot, hot+stream) stream arena,
  // cold accesses may touch the entire working set.
  Addr hot_base_ = 0;
  Addr stream_base_ = 0;
};

/// Non-stationary workload: alternates between two profiles every
/// `phase_instructions`, modeling SPEC-like phase behaviour (e.g. a
/// pointer-chasing phase followed by a compute phase).  Stationary profiles
/// make stall lengths trivially learnable; phased ones are where
/// estimate-driven MAPG and history-driven prediction genuinely differ
/// (R-Tab.6).
class PhasedTraceGenerator final : public TraceSource {
 public:
  PhasedTraceGenerator(WorkloadProfile a, WorkloadProfile b,
                       std::uint64_t phase_instructions,
                       std::uint64_t run_seed = 0);

  bool next(Instr& out) override;  ///< Always returns true (unbounded).
  void reset() override;

  /// Name of the profile currently generating ("a" phase first).
  const std::string& current_phase_name() const;
  std::uint64_t phase_switches() const { return switches_; }

 private:
  TraceGenerator gen_a_;
  TraceGenerator gen_b_;
  std::uint64_t phase_instructions_;
  std::uint64_t emitted_in_phase_ = 0;
  std::uint64_t switches_ = 0;
  bool in_a_ = true;
};

}  // namespace mapg

#include "trace/generator.h"

#include <algorithm>
#include <cassert>

namespace mapg {
namespace {

constexpr Addr kAccessAlign = 8;  // all accesses are 8-byte aligned

Addr align_down(Addr a) { return a & ~(kAccessAlign - 1); }

}  // namespace

TraceGenerator::TraceGenerator(WorkloadProfile profile, std::uint64_t run_seed)
    : profile_(std::move(profile)), run_seed_(run_seed) {
  reset();
}

void TraceGenerator::reset() {
  // Mix the profile seed and run seed through SplitMix so that distinct
  // (profile, run) pairs land in unrelated xoshiro subsequences.
  SplitMix64 mixer(profile_.seed * 0x9e3779b97f4a7c15ULL + run_seed_);
  prng_.reseed(mixer.next());
  // draw_dep_dist() returns 1 + Geometric(1/mean): mean `mean`, support
  // {1, ...}, for mean = max(1, dep_dist_mean).
  dep_dist_geo_ = Geometric(1.0 / std::max(1.0, profile_.dep_dist_mean));
  init_streams();
}

void TraceGenerator::init_streams() {
  streams_.clear();
  next_stream_ = 0;

  hot_base_ = 0;
  stream_base_ = profile_.hot_set_bytes;

  const int n = std::max(1, profile_.num_streams);
  // The stream arena is everything between the hot set and the end of the
  // working set; each stream sweeps its own slice so sweeps never collide.
  const Addr arena = profile_.working_set_bytes > stream_base_
                         ? profile_.working_set_bytes - stream_base_
                         : (1ULL << 20);
  const Addr slice = std::max<Addr>(arena / static_cast<Addr>(n), 4096);
  for (int i = 0; i < n; ++i) {
    Stream s;
    s.base = stream_base_ + slice * static_cast<Addr>(i);
    s.length = slice;
    // Start each stream at a random phase so they do not miss in lockstep.
    s.pos = align_down(prng_.below(slice));
    streams_.push_back(s);
  }
}

Addr TraceGenerator::next_stream_addr() {
  Stream& s = streams_[next_stream_];
  next_stream_ = (next_stream_ + 1) % streams_.size();
  const Addr a = s.base + s.pos;
  s.pos += profile_.stream_stride_bytes;
  if (s.pos >= s.length) s.pos = 0;
  return align_down(a);
}

Addr TraceGenerator::random_hot_addr() {
  const Addr span = std::max<Addr>(profile_.hot_set_bytes, kAccessAlign);
  return hot_base_ + align_down(prng_.below(span));
}

Addr TraceGenerator::random_cold_addr() {
  const Addr span = std::max<Addr>(profile_.working_set_bytes, kAccessAlign);
  return align_down(prng_.below(span));
}

std::uint16_t TraceGenerator::draw_dep_dist() {
  if (prng_.bernoulli(profile_.p_no_consumer)) return 0;
  const std::uint64_t d = 1 + dep_dist_geo_(prng_);
  return static_cast<std::uint16_t>(
      std::min<std::uint64_t>(d, profile_.dep_dist_max));
}

bool TraceGenerator::next(Instr& out) {
  const double u = prng_.uniform();
  double acc = profile_.f_load;
  if (u < acc) {
    out.op = OpClass::kLoad;
    if (prng_.bernoulli(profile_.p_pointer_chase)) {
      // Pointer chase: the loaded value is the next address, so the very
      // next instruction depends on it and misses serialize.
      out.addr = random_cold_addr();
      out.dep_dist = 1;
      return true;
    }
    const double r = prng_.uniform();
    if (r < profile_.p_stream) {
      out.addr = next_stream_addr();
    } else if (r < profile_.p_stream + profile_.p_cold) {
      out.addr = random_cold_addr();
    } else {
      out.addr = random_hot_addr();
    }
    out.dep_dist = draw_dep_dist();
    return true;
  }
  acc += profile_.f_store;
  if (u < acc) {
    out.op = OpClass::kStore;
    const double r = prng_.uniform();
    if (r < profile_.p_stream) {
      out.addr = next_stream_addr();
    } else if (r < profile_.p_stream + profile_.p_cold) {
      out.addr = random_cold_addr();
    } else {
      out.addr = random_hot_addr();
    }
    out.dep_dist = 0;
    return true;
  }
  out.addr = kNoAddr;
  out.dep_dist = 0;
  acc += profile_.f_branch;
  if (u < acc) {
    out.op = OpClass::kBranch;
    return true;
  }
  acc += profile_.f_mul;
  if (u < acc) {
    out.op = OpClass::kMul;
    return true;
  }
  acc += profile_.f_div;
  if (u < acc) {
    out.op = OpClass::kDiv;
    return true;
  }
  acc += profile_.f_fp;
  out.op = u < acc ? OpClass::kFp : OpClass::kAlu;
  return true;
}

PhasedTraceGenerator::PhasedTraceGenerator(WorkloadProfile a,
                                           WorkloadProfile b,
                                           std::uint64_t phase_instructions,
                                           std::uint64_t run_seed)
    : gen_a_(std::move(a), run_seed),
      gen_b_(std::move(b), run_seed + 0x9e37),
      phase_instructions_(phase_instructions) {
  assert(phase_instructions_ > 0 && "phases must have positive length");
}

void PhasedTraceGenerator::reset() {
  gen_a_.reset();
  gen_b_.reset();
  emitted_in_phase_ = 0;
  switches_ = 0;
  in_a_ = true;
}

const std::string& PhasedTraceGenerator::current_phase_name() const {
  return (in_a_ ? gen_a_ : gen_b_).profile().name;
}

bool PhasedTraceGenerator::next(Instr& out) {
  if (emitted_in_phase_ >= phase_instructions_) {
    emitted_in_phase_ = 0;
    in_a_ = !in_a_;
    ++switches_;
  }
  ++emitted_in_phase_;
  return (in_a_ ? gen_a_ : gen_b_).next(out);
}

}  // namespace mapg

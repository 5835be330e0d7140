// Deterministic pseudo-random number generation for workload synthesis.
//
// Reproducibility is a hard requirement: every experiment in EXPERIMENTS.md
// must regenerate bit-identical traces from a (profile, seed) pair.  We use
// xoshiro256** seeded through SplitMix64 — fast, well-studied, and stable
// across platforms (unlike std::default_random_engine, whose mapping is
// implementation-defined).  All distribution helpers below are hand-rolled
// for the same reason: libstdc++/libc++ distributions are not portable.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace mapg {

/// SplitMix64: used only to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna).  Period 2^256 - 1.
class Prng {
 public:
  using result_type = std::uint64_t;

  explicit Prng(std::uint64_t seed = 0x3243f6a8885a308dULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1).  53-bit mantissa path.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, n).  Lemire's unbiased multiply-shift rejection.
  std::uint64_t below(std::uint64_t n) {
    if (n <= 1) return 0;
    // 128-bit multiply rejection sampling.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Geometric: number of failures before first success, success prob p.
  /// For many draws at one p, keep a Geometric (below) instead.
  std::uint64_t geometric(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    const double u = 1.0 - uniform();  // (0, 1]
    return -mean * std::log(u);
  }

  /// Pareto-ish bounded heavy tail in [lo, hi] with shape alpha (> 0).
  /// Used for dependency-distance tails in pointer-chasing profiles.
  std::uint64_t bounded_pareto(std::uint64_t lo, std::uint64_t hi,
                               double alpha) {
    if (hi <= lo) return lo;
    const double l = static_cast<double>(lo);
    const double h = static_cast<double>(hi) + 1.0;
    const double u = uniform();
    const double la = std::pow(l, -alpha);
    const double ha = std::pow(h, -alpha);
    const double x = std::pow(la - u * (la - ha), -1.0 / alpha);
    auto v = static_cast<std::uint64_t>(x);
    return v > hi ? hi : (v < lo ? lo : v);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Geometric distribution: number of failures before the first success,
/// success probability p.  log1p(-p) is computed once here rather than on
/// every draw; each draw consumes one uniform() (none when p >= 1 or
/// p <= 0).
class Geometric {
 public:
  explicit Geometric(double p = 1.0) : p_(p), log1p_neg_p_(std::log1p(-p)) {}

  std::uint64_t operator()(Prng& prng) const {
    if (p_ >= 1.0) return 0;
    if (p_ <= 0.0) return ~0ULL;
    const double u = 1.0 - prng.uniform();  // (0, 1]
    return static_cast<std::uint64_t>(std::floor(std::log(u) / log1p_neg_p_));
  }

 private:
  double p_;
  double log1p_neg_p_;
};

inline std::uint64_t Prng::geometric(double p) { return Geometric(p)(*this); }

}  // namespace mapg

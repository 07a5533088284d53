// Deterministic, splittable random number generation.
//
// All stochastic pieces of pstap (scene generation, synthetic workloads,
// property tests) draw from this generator so that every test, example and
// benchmark is bit-reproducible across runs and platforms. std::mt19937 is
// avoided because the distributions layered on top of it are not specified
// identically across standard libraries.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/types.hpp"

namespace pstap {

/// SplitMix64 PRNG: tiny state, passes BigCrush, trivially splittable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Skip the next `n` raw draws: the state advances by a fixed step per
  /// draw, so this is one multiply-add. A pending normal() spare is kept.
  void discard(std::uint64_t n) { state_ += n * 0x9e3779b97f4a7c15ULL; }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection to avoid bias.
  std::uint64_t uniform_index(std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  /// Standard normal deviate (Box–Muller; uses both outputs).
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const BoxMuller bm = box_muller(u1, uniform());
    spare_ = bm.sin;
    have_spare_ = true;
    return bm.cos;
  }

  /// The Box–Muller pair normal() returns for uniforms u1 > 0 and u2: the
  /// cosine deviate first, then the sine one as the spare. Exposed so a
  /// caller that walks the raw stream itself (a chunked fill that jumped
  /// ahead with discard) produces the same bytes.
  struct BoxMuller {
    double cos, sin;
  };
  static BoxMuller box_muller(double u1, double u2) {
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double ang = 2.0 * std::numbers::pi * u2;
    return {mag * std::cos(ang), mag * std::sin(ang)};
  }

  /// Circularly-symmetric complex Gaussian with E[|z|^2] = power.
  cfloat complex_normal(double power = 1.0) {
    const double s = std::sqrt(power / 2.0);
    return {static_cast<float>(s * normal()), static_cast<float>(s * normal())};
  }

  /// Derive an independent child stream (for per-rank / per-channel use).
  Rng split() {
    // Skip the child far away in a distinct stream by hashing the state.
    return Rng(next_u64() ^ 0x5851f42d4c957f2dULL);
  }

 private:
  std::uint64_t state_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace pstap

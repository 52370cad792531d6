// Deterministic pseudo-random number generation (xoshiro256++).
//
// All randomized components of the library (strategy initialization, LDP
// response simulation, synthetic datasets) draw from this generator so that
// every experiment is reproducible from a single seed. Streams can be forked
// to decorrelate components without coupling their consumption order.

#ifndef WFM_LINALG_RNG_H_
#define WFM_LINALG_RNG_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace wfm {

class Rng {
 public:
  /// Seeds the state via SplitMix64, which guarantees a well-mixed nonzero
  /// state for any seed value (including 0).
  explicit Rng(std::uint64_t seed);

  /// xoshiro256++ (Blackman & Vigna). Inline, like NextDouble, because
  /// per-bit report draws call it in a tight loop.
  std::uint64_t NextUint64() {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits: k · 2^-53 for the top 53
  /// bits k of NextUint64().
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [a, b).
  double Uniform(double a, double b);

  /// Uniform integer in [0, n); n > 0. Uses rejection to avoid modulo bias.
  int UniformInt(int n);

  /// Standard normal via the Marsaglia polar method (one value cached).
  double Normal();

  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Laplace(0, scale): density (1/2b) exp(-|x|/b).
  double Laplace(double scale);

  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Bernoulli(p).
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// The integer t for which Bernoulli(p) == ((NextUint64() >> 11) < t),
  /// draw for draw, for p in [0, 1]: NextDouble() is k · 2^-53 for the
  /// integer k = NextUint64() >> 11, which is below p exactly when
  /// k < p · 2^53 (a power-of-two scaling, so exact), that is when
  /// k < ceil(p · 2^53). Loops that draw many bits compare integers
  /// against t instead of converting each draw to a double.
  static std::uint64_t BernoulliThreshold(double p) {
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Derives an independent generator (jump via reseeding from this stream).
  Rng Fork();

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace wfm

#endif  // WFM_LINALG_RNG_H_

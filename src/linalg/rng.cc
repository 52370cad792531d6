#include "linalg/rng.h"

#include <cmath>

#include "common/check.h"

namespace wfm {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

double Rng::Uniform(double a, double b) { return a + (b - a) * NextDouble(); }

int Rng::UniformInt(int n) {
  WFM_CHECK_GT(n, 0);
  const std::uint64_t un = static_cast<std::uint64_t>(n);
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  std::uint64_t r;
  do {
    r = NextUint64();
  } while (r >= limit);
  return static_cast<int>(r % un);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return u * f;
}

double Rng::Laplace(double scale) {
  WFM_CHECK_GT(scale, 0.0);
  // Inverse CDF on a symmetric uniform; u in (-0.5, 0.5).
  double u;
  do {
    u = NextDouble() - 0.5;
  } while (u == -0.5);
  const double sign = u < 0 ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::abs(u));
}

double Rng::Exponential(double rate) {
  WFM_CHECK_GT(rate, 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace wfm

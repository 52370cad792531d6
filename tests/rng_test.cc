// Statistical and determinism tests for the RNG.
//
// Every test seeds its own Rng with a fixed constant, so outcomes are
// bit-exact across runs and platforms — these cannot flake. Tolerances are
// still set generously (>= 5 standard errors of the estimated moment) so the
// assertions stay valid if a seed is ever changed or the sampler is rewritten.

#include "linalg/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace wfm {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ZeroSeedWorks) {
  Rng rng(0);
  // SplitMix64 seeding guarantees a nonzero, well-mixed state.
  std::uint64_t x = rng.NextUint64();
  std::uint64_t y = rng.NextUint64();
  EXPECT_NE(x, y);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMoments) {
  Rng rng(8);
  const int trials = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double d = rng.Uniform(2.0, 4.0);
    sum += d;
    sq += d * d;
  }
  const double mean = sum / trials;
  const double var = sq / trials - mean * mean;
  // SE(mean) = sqrt(var/trials) ~ 0.0013; 0.01 is ~8 standard errors.
  EXPECT_NEAR(mean, 3.0, 0.01);
  EXPECT_NEAR(var, 4.0 / 12.0, 0.01);
}

TEST(RngTest, UniformIntUnbiased) {
  Rng rng(9);
  const int n = 7;
  std::vector<int> counts(n, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformInt(n)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / static_cast<double>(n),
                5.0 * std::sqrt(trials / static_cast<double>(n)));
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(10);
  const int trials = 200000;
  double sum = 0.0, sq = 0.0, cube = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double d = rng.Normal();
    sum += d;
    sq += d * d;
    cube += d * d * d;
  }
  // SE of the k-th moment estimate is sqrt(E[x^{2k}] - E[x^k]²)/sqrt(trials):
  // ~0.0022 (mean), ~0.0032 (2nd), ~0.0087 (3rd). All bounds are >= 5 SE.
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(sq / trials, 1.0, 0.02);
  EXPECT_NEAR(cube / trials, 0.0, 0.05);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(11);
  const double scale = 1.5;
  const int trials = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double d = rng.Laplace(scale);
    sum += d;
    sq += d * d;
  }
  // SE(mean) = sqrt(2b²/trials) ~ 0.0047; 0.03 is ~6 SE.
  EXPECT_NEAR(sum / trials, 0.0, 0.03);
  // Var(Laplace(b)) = 2b²; the 4th moment is 24b⁴, so
  // SE(sq/trials) = sqrt((24-4)b⁴/trials) ~ 0.022 and 0.1 is ~4.5 SE.
  EXPECT_NEAR(sq / trials, 2.0 * scale * scale, 0.1);
}

TEST(RngTest, ExponentialMoments) {
  Rng rng(12);
  const double rate = 2.0;
  const int trials = 200000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double d = rng.Exponential(rate);
    EXPECT_GE(d, 0.0);
    sum += d;
  }
  // SE(mean) = (1/rate)/sqrt(trials) ~ 0.0011; 0.01 is ~9 SE.
  EXPECT_NEAR(sum / trials, 1.0 / rate, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  const double p = 0.3;
  int ones = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ones += rng.Bernoulli(p);
  // SE = sqrt(p(1-p)/trials) ~ 0.0014; 0.01 is ~7 SE.
  EXPECT_NEAR(ones / static_cast<double>(trials), p, 0.01);
}

TEST(RngTest, BernoulliThresholdFlipsExactlyWhereNextDoubleDoes) {
  // (NextUint64() >> 11) < BernoulliThreshold(p) must equal
  // NextDouble() < p for every 53-bit k, so around the threshold t the
  // double comparison k · 2^-53 < p must hold for k = t - 1 and fail for
  // k = t: at dyadic p (where the threshold is exact), one ulp either side
  // of them, the extremes, and random p.
  std::vector<double> probs = {0.0, 1.0, std::nextafter(0.0, 1.0),
                               std::nextafter(1.0, 0.0), 0.5, 0.1, 1.0 / 3.0};
  for (const double k0 : {1.0, 12345.0, 0x1.0p52, 0x1.0p53 - 1.0}) {
    const double dyadic = k0 * 0x1.0p-53;
    probs.push_back(dyadic);
    probs.push_back(std::nextafter(dyadic, 0.0));
    probs.push_back(std::nextafter(dyadic, 1.0));
  }
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) probs.push_back(rng.NextDouble());
  constexpr std::uint64_t kMaxK = (std::uint64_t{1} << 53) - 1;
  for (const double p : probs) {
    const std::uint64_t t = Rng::BernoulliThreshold(p);
    ASSERT_LE(t, kMaxK + 1) << "p " << p;
    for (std::uint64_t k = t < 2 ? 0 : t - 2; k <= std::min(t + 2, kMaxK);
         ++k) {
      EXPECT_EQ(static_cast<double>(k) * 0x1.0p-53 < p, k < t)
          << "p " << p << " k " << k << " t " << t;
    }
  }
  EXPECT_EQ(Rng::BernoulliThreshold(0.0), 0u);
  EXPECT_EQ(Rng::BernoulliThreshold(1.0), kMaxK + 1);
  EXPECT_EQ(Rng::BernoulliThreshold(12345.0 * 0x1.0p-53), 12345u);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(99);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace wfm

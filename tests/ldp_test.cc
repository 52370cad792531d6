// Tests for the LDP runtime: local randomizers, reporters, and the
// statistical agreement between simulation and the analytic variance
// formulas (the key Monte-Carlo validation of Theorem 3.4).
//
// All randomness flows from fixed-seed Rngs (deterministic across runs);
// Monte-Carlo bands are sized in standard-error multiples, documented where
// they are not literal 5σ expressions.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factorization.h"
#include "estimation/decoder.h"
#include "ldp/local_randomizer.h"
#include "ldp/protocol.h"
#include "ldp/reporter.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

TEST(LocalRandomizerTest, RespondsAccordingToColumn) {
  Rng rng(131);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(5, 1.0);
  LocalRandomizer randomizer(q);
  EXPECT_EQ(randomizer.num_outputs(), 5);
  EXPECT_EQ(randomizer.num_types(), 5);
  const int trials = 50000;
  std::vector<int> counts(5, 0);
  for (int t = 0; t < trials; ++t) ++counts[randomizer.Respond(2, rng)];
  for (int o = 0; o < 5; ++o) {
    const double expect = q(o, 2) * trials;
    EXPECT_NEAR(counts[o], expect, 5.0 * std::sqrt(expect) + 1.0) << "output " << o;
  }
}

TEST(StrategyReporterDeathTest, OutOfRangeTypesAbortForAnyFactorCount) {
  const Matrix q3 = RandomizedResponseMechanism::BuildStrategy(3, 1.0);
  const Matrix q5 = RandomizedResponseMechanism::BuildStrategy(5, 1.0);
  const StrategyReporter one(std::vector<Matrix>{q5});
  const StrategyReporter two(std::vector<Matrix>{q3, q5});
  ASSERT_EQ(two.num_types(), 15);
  Rng rng(7);
  for (const int type : {-1, -7, -100}) {
    EXPECT_DEATH(one.Respond(type, rng), "WFM_CHECK") << type;
    EXPECT_DEATH(two.Respond(type, rng), "WFM_CHECK") << type;
  }
  EXPECT_DEATH(one.Respond(5, rng), "WFM_CHECK");
  for (const int type : {15, 16, 20, 1000}) {
    EXPECT_DEATH(two.Respond(type, rng), "WFM_CHECK") << type;
  }
}

TEST(ProtocolTest, HistogramPreservesUserCount) {
  Rng rng(132);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(6, 1.0);
  const Vector x{10, 20, 5, 0, 3, 12};
  const Vector y = SimulateResponseHistogram(q, x, rng);
  EXPECT_EQ(static_cast<int>(y.size()), 6);
  EXPECT_NEAR(Sum(y), Sum(x), 1e-9);
  for (double v : y) EXPECT_GE(v, 0.0);
}

TEST(ProtocolTest, FastAndPerUserPathsAgreeInDistribution) {
  // Same mean and comparable spread across repetitions.
  Rng rng(133);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(4, 1.0);
  const Vector x{50, 30, 10, 10};
  const int trials = 300;
  Vector mean_fast(4, 0.0), mean_slow(4, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector yf = SimulateResponseHistogram(q, x, rng);
    const Vector ys = SimulateResponseHistogramPerUser(q, x, rng);
    for (int o = 0; o < 4; ++o) {
      mean_fast[o] += yf[o] / trials;
      mean_slow[o] += ys[o] / trials;
    }
  }
  const Vector expected = MultiplyVec(q, x);
  for (int o = 0; o < 4; ++o) {
    const double band = 5.0 * std::sqrt(expected[o] / trials + 1.0);
    EXPECT_NEAR(mean_fast[o], expected[o], band);
    EXPECT_NEAR(mean_slow[o], expected[o], band);
  }
}

TEST(ProtocolTest, UnbiasedWorkloadEstimates) {
  // E[V y] = W x: the core unbiasedness property of Definition 3.2.
  Rng rng(134);
  const int n = 5;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  const PrefixWorkload workload(n);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  FactorizationAnalysis fa(q, *shared_stats);
  const ReportDecoder decoder({fa.ReconstructionB()}, shared_stats);
  const Vector x{40, 10, 25, 5, 20};
  const Vector truth = workload.Apply(x);

  const int trials = 600;
  Vector mean(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const Vector answers =
        workload.Apply(decoder.EstimateDataVector(y, /*num_reports=*/100));
    for (int i = 0; i < n; ++i) mean[i] += answers[i] / trials;
  }
  const double var = fa.Profile().DataVariance(x);
  const double band = 5.0 * std::sqrt(var / trials);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(mean[i], truth[i], band) << "query " << i;
}

TEST(ProtocolTest, EmpiricalVarianceMatchesTheorem34) {
  // The Monte-Carlo total squared error must agree with the analytic
  // data-dependent variance — the strongest end-to-end correctness check of
  // the variance derivation.
  Rng rng(135);
  const int n = 4;
  const double eps = 1.0;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, eps);
  const HistogramWorkload workload(n);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  FactorizationAnalysis fa(q, *shared_stats);
  const ReportDecoder decoder({fa.ReconstructionB()}, shared_stats);
  const Vector x{30, 50, 10, 10};
  const Vector truth = workload.Apply(x);
  const double analytic = fa.Profile().DataVariance(x);

  const int trials = 3000;
  double total_sq_error = 0.0;
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const Vector answers =
        workload.Apply(decoder.EstimateDataVector(y, /*num_reports=*/100));
    for (int i = 0; i < n; ++i) {
      const double d = answers[i] - truth[i];
      total_sq_error += d * d;
    }
  }
  const double empirical = total_sq_error / trials;
  // Mean of 3000 chi²-like squared-error draws: relative SE ~sqrt(2/3000)
  // ~ 2.6%, so a 10% band is ~4 SE (deterministic anyway under seed 135).
  EXPECT_NEAR(empirical, analytic, 0.1 * analytic);
}

TEST(ProtocolTest, ZeroUsersOfSomeTypes) {
  Rng rng(136);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(3, 1.0);
  const Vector x{0, 100, 0};
  const Vector y = SimulateResponseHistogram(q, x, rng);
  EXPECT_NEAR(Sum(y), 100, 1e-9);
}

TEST(ProtocolDeathTest, NegativeCountsRejected) {
  Rng rng(137);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(3, 1.0);
  EXPECT_DEATH(SimulateResponseHistogram(q, {1, -2, 3}, rng), "non-negative");
}

TEST(PackedBitsTest, RoundTripsZeroOneBytesAtEveryWordEdge) {
  Rng rng(41);
  for (const int n : {1, 7, 8, 63, 64, 65, 128, 512, 1000}) {
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.UniformInt(2));
    }
    const PackedBits bits(bytes);
    ASSERT_EQ(bits.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(bits.words().size(), static_cast<std::size_t>((n + 63) / 64));
    std::vector<std::uint8_t> unpacked(n);
    for (int i = 0; i < n; ++i) unpacked[i] = bits[i];
    EXPECT_EQ(unpacked, bytes) << "n " << n;
    // Padding bits past n stay zero, so equal vectors compare equal word for
    // word and a copy is indistinguishable from the original.
    if (n % 64 != 0) {
      EXPECT_EQ(bits.words().back() >> (n % 64), 0u);
    }
    const PackedBits copy = bits;
    EXPECT_EQ(copy, bits);
    EXPECT_EQ(PackedBits(bytes), bits);
  }
  EXPECT_TRUE(PackedBits().empty());
  EXPECT_EQ(PackedBits::Zeros(70),
            PackedBits(std::vector<std::uint8_t>(70, 0)));
  EXPECT_FALSE(PackedBits({1, 0}) == PackedBits({1, 0, 0}));
}

TEST(PackedBitsDeathTest, NonBinaryByteAborts) {
  EXPECT_DEATH(PackedBits({0, 1, 2}), "out of range");
}

// BitVectorReporter's draw rule, one lane at a time. Lane j of the word
// holding coordinates [begin, begin + 64) reads U_j, most significant bit
// first, from bit j of the word's successive NextUint64() draws, and is
// U_j < t_j. The word takes as many draws as its slowest lane needs to reach
// the first bit where U_j and t_j differ (53 when they never do), and none
// for a lane whose threshold is 0 or 2^53.
std::vector<std::uint8_t> ReferenceLaneBits(int n, int user_type,
                                            std::uint64_t p_threshold,
                                            std::uint64_t q_threshold,
                                            Rng& rng) {
  constexpr std::uint64_t kAlways = std::uint64_t{1} << 53;
  std::vector<std::uint8_t> bits(n);
  for (int begin = 0; begin < n; begin += 64) {
    // Look ahead at every draw the word could take, then advance the real
    // stream by the number it does take.
    Rng ahead = rng;
    std::uint64_t draws[53];
    for (std::uint64_t& d : draws) d = ahead.NextUint64();
    int used = 0;
    for (int j = 0; j < std::min(n - begin, 64); ++j) {
      const std::uint64_t t =
          begin + j == user_type ? p_threshold : q_threshold;
      if (t == 0 || t == kAlways) {
        bits[begin + j] = t == kAlways;
        continue;
      }
      std::uint64_t u = 0;
      for (const std::uint64_t d : draws) u = (u << 1) | ((d >> j) & 1);
      bits[begin + j] = u < t;
      // The highest differing bit b is settled by draw 52 - b, the
      // (53 - b)-th draw.
      const int needed = u == t ? 53 : 54 - std::bit_width(u ^ t);
      used = std::max(used, needed);
    }
    for (int d = 0; d < used; ++d) rng.NextUint64();
  }
  return bits;
}

TEST(BitVectorReporterTest, RespondMatchesScalarLaneReference) {
  // The packed reporter must consume the RNG exactly like the lane-by-lane
  // reference above, so a seed pins the same reports and the same stream
  // position. The words must match byte for byte for probabilities that are
  // not dyadic (RAPPOR's and OUE's at several budgets), for the extremes,
  // and one ulp from 0, 1 and 2^-53 multiples.
  const double e1 = std::exp(0.5);
  const std::vector<std::pair<double, double>> probs = {
      {0.75, 0.25},
      {e1 / (e1 + 1.0), 1.0 / (e1 + 1.0)},
      {0.5, 1.0 / (std::exp(1.0) + 1.0)},
      {0.5, 1.0 / (std::exp(3.7) + 1.0)},
      {1.0, 0.0},
      {std::nextafter(1.0, 0.0), std::nextafter(0.0, 1.0)},
      {std::nextafter(0.75, 1.0), std::nextafter(0.25, 0.0)},
      {0.1, 0.1 / 3.0},
  };
  for (const auto& [p, q] : probs) {
    for (const int n : {1, 63, 64, 65, 512}) {
      const BitVectorReporter reporter(n, p, q);
      for (const std::uint64_t seed : {300ull + n, 42ull, 1ull << 40}) {
        Rng packed_rng(seed);
        Rng reference_rng(seed);
        for (int trial = 0; trial < 8; ++trial) {
          const int user_type = (trial * 37) % n;
          const Report report = reporter.Respond(user_type, packed_rng);
          const std::vector<std::uint8_t> expected = ReferenceLaneBits(
              n, user_type, Rng::BernoulliThreshold(p),
              Rng::BernoulliThreshold(q), reference_rng);
          ASSERT_TRUE(report.is_bits());
          const PackedBits packed(expected);
          ASSERT_EQ(report.bits.size(), packed.size());
          EXPECT_EQ(std::memcmp(report.bits.words().data(),
                                packed.words().data(),
                                packed.words().size_bytes()),
                    0)
              << "p " << p << " q " << q << " n " << n << " seed " << seed;
        }
        EXPECT_EQ(packed_rng.NextUint64(), reference_rng.NextUint64())
            << "p " << p << " q " << q << " n " << n << " seed " << seed;
      }
    }
  }
}

TEST(BitVectorReporterTest, LaneMarginalsAreBernoulliAtWordEdges) {
  // Lanes 0, 63 and 64 (both sides of a word edge), the last lane of the
  // partial second word, and the user's lane, each against its Bernoulli
  // mean within 5 sigma; q is not dyadic, so every bit of its threshold
  // matters. Lanes 0 and 63 share their draws, so their joint rate must be
  // q^2 as well.
  const double e = std::exp(1.0);
  const double p = e / (e + 1.0);
  const double q = 1.0 / (e + 1.0);
  const int n = 100;
  const int user_type = 70;
  const BitVectorReporter reporter(n, p, q);
  Rng rng(2718);
  const int trials = 200000;
  const std::vector<int> lanes = {0, 63, 64, n - 1, user_type};
  std::vector<int> ones(lanes.size(), 0);
  int both = 0;
  for (int t = 0; t < trials; ++t) {
    const PackedBits bits = reporter.Respond(user_type, rng).bits;
    for (std::size_t k = 0; k < lanes.size(); ++k) ones[k] += bits[lanes[k]];
    both += bits[0] & bits[63];
  }
  const auto expect_rate = [&](int count, double mean, const char* what) {
    const double sigma = std::sqrt(mean * (1.0 - mean) / trials);
    EXPECT_NEAR(static_cast<double>(count) / trials, mean, 5.0 * sigma)
        << what;
  };
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    expect_rate(ones[k], lanes[k] == user_type ? p : q,
                ("lane " + std::to_string(lanes[k])).c_str());
  }
  expect_rate(both, q * q, "lanes 0 and 63 jointly");
}

}  // namespace
}  // namespace wfm

// The unary encoding UE(p, q) cases shared by rappor_test and oue_test,
// each of which instantiates them for its registry entry's (p, q):
// explicit-strategy validity, the closed-form analysis, and the deployed
// path (reporter bit marginals, and the unbiasedness and variance of
// reports decoded through EstimateWorkloadAnswers).
//
// Include it from exactly one source file of a test binary (it defines the
// parameterized tests), then instantiate them with
// INSTANTIATE_UNARY_ENCODING_TESTS(kCase).
//
// All randomness flows from fixed-seed Rngs (deterministic across runs);
// Monte-Carlo bands are sized in standard-error multiples, documented where
// they are not literal 5σ expressions.

#ifndef WFM_TESTS_UNARY_ENCODING_SUITE_H_
#define WFM_TESTS_UNARY_ENCODING_SUITE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "estimation/estimator.h"
#include "mechanisms/registry.h"
#include "mechanisms/unary_encoding.h"
#include "workload/histogram.h"

namespace wfm {
namespace {

struct UnaryCase {
  const char* name;    ///< Registry name.
  std::uint64_t seed;  ///< Base seed; the simulation cases add 1, 2 and 3.
  int unbiased_trials;
  int variance_trials;
  /// Relative band on each coordinate's empirical variance.
  double variance_band;
};

/// Each registry entry's published ε → (p, q): RAPPOR's symmetric flips
/// f = 1/(1 + e^{ε/2}) and ref [41]'s p = 1/2, q = 1/(e^ε + 1).
std::pair<double, double> ExpectedPq(const std::string& name, double eps) {
  if (name == "RAPPOR") {
    const double f = 1.0 / (1.0 + std::exp(eps / 2.0));
    return {1.0 - f, f};
  }
  return {0.5, 1.0 / (std::exp(eps) + 1.0)};
}

std::unique_ptr<Mechanism> Create(const std::string& name,
                                  const WorkloadStats& stats, double eps) {
  StatusOr<std::unique_ptr<Mechanism>> created =
      MechanismRegistry::Global().Create(name, stats, eps);
  WFM_CHECK(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

std::shared_ptr<const WorkloadStats> HistogramStats(int n) {
  return std::make_shared<const WorkloadStats>(
      WorkloadStats::From(HistogramWorkload(n)));
}

const UnaryEncodingMechanism& AsUnary(const std::unique_ptr<Mechanism>& m) {
  return dynamic_cast<const UnaryEncodingMechanism&>(*m);
}

/// One collection of the deployed protocol over histogram x: every user
/// reports through the deployed reporter, the bits are summed, and the
/// decoder's unbiased estimate of x is returned.
Vector DeployedEstimate(const Deployment& deployment, const Vector& x,
                        Rng& rng) {
  const int n = static_cast<int>(x.size());
  Vector counts(n, 0.0);
  std::int64_t num_users = 0;
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(x[u]); ++j, ++num_users) {
      const Report report = deployment.reporter->Respond(u, rng);
      for (int i = 0; i < n; ++i) counts[i] += report.bits[i];
    }
  }
  return EstimateWorkloadAnswers(*deployment.decoder, HistogramWorkload(n),
                                 counts, num_users, EstimatorKind::kUnbiased)
      .data_vector;
}

class UnaryEncodingTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryEncodingTest, RegistryPqAndDeploymentMatchThePublishedFormulas) {
  const std::string name = GetParam().name;
  const int n = 70;  // Two report words, the second one partial.
  const auto stats = HistogramStats(n);
  for (double eps : {0.5, 1.0, 2.0}) {
    const auto [p, q] = ExpectedPq(name, eps);
    const std::unique_ptr<Mechanism> mechanism = Create(name, *stats, eps);
    EXPECT_EQ(mechanism->Name(), name);
    EXPECT_EQ(AsUnary(mechanism).p(), p) << "eps " << eps;
    EXPECT_EQ(AsUnary(mechanism).q(), q) << "eps " << eps;

    const StatusOr<Deployment> deployment = mechanism->Deploy(stats);
    ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
    EXPECT_EQ(deployment.value().decoder->affine_debias().p, p);
    EXPECT_EQ(deployment.value().decoder->affine_debias().q, q);
    // The deployed reporter draws exactly what BitVectorReporter(n, p, q)
    // draws, so reports and wire bytes are those of these (p, q).
    const BitVectorReporter reference(n, p, q);
    Rng deployed_rng(7), reference_rng(7);
    for (int u = 0; u < n; ++u) {
      const PackedBits got =
          deployment.value().reporter->Respond(u, deployed_rng).bits;
      const PackedBits want = reference.Respond(u, reference_rng).bits;
      ASSERT_TRUE(std::equal(got.words().begin(), got.words().end(),
                             want.words().begin(), want.words().end()))
          << "eps " << eps << " type " << u;
    }
  }
}

TEST_P(UnaryEncodingTest, ExplicitStrategyIsValidLdp) {
  // The 2^n-row strategy satisfies Proposition 2.6 at the advertised ε.
  for (double eps : {0.5, 1.0, 2.0}) {
    const auto [p, q] = ExpectedPq(GetParam().name, eps);
    const Matrix strategy = UnaryEncodingMechanism::BuildExplicitStrategy(4, p, q);
    EXPECT_EQ(strategy.rows(), 16);
    const StrategyValidation v = ValidateStrategy(strategy, eps, 1e-9);
    EXPECT_TRUE(v.valid) << "eps=" << eps << ": " << v.ToString();
    // The bound is tight: min epsilon is exactly ε (two bit flips).
    EXPECT_NEAR(v.min_epsilon, eps, 1e-9);
  }
}

TEST_P(UnaryEncodingTest, AnalysisMatchesClosedFormOnHistogram) {
  // G = I: phi_u = [q(1-q)(n-1) + p(1-p)]/(p-q)² for every u.
  const int n = 8;
  const double eps = 1.0;
  const auto [p, q] = ExpectedPq(GetParam().name, eps);
  const auto stats = HistogramStats(n);
  const ErrorProfile profile =
      Create(GetParam().name, *stats, eps)->Analyze(*stats);
  const double expected =
      (q * (1 - q) * (n - 1) + p * (1 - p)) / ((p - q) * (p - q));
  ASSERT_EQ(profile.phi.size(), static_cast<std::size_t>(n));
  for (double phi : profile.phi) EXPECT_NEAR(phi, expected, 1e-9);
}

TEST_P(UnaryEncodingTest, DeployedReportBitMarginals) {
  Rng rng(GetParam().seed + 1);
  const int n = 6;
  const double eps = 1.0;
  const auto [p, q] = ExpectedPq(GetParam().name, eps);
  const auto stats = HistogramStats(n);
  const Deployment deployment =
      Create(GetParam().name, *stats, eps)->Deploy(stats).value();
  const int trials = 20000;
  std::vector<int> ones(n, 0);
  for (int t = 0; t < trials; ++t) {
    const Report report = deployment.reporter->Respond(2, rng);
    for (int i = 0; i < n; ++i) ones[i] += report.bits[i];
  }
  const double sd = std::sqrt(trials * std::max(p * (1 - p), q * (1 - q)));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ones[i], (i == 2 ? p : q) * trials, 5.0 * sd + 1.0)
        << "bit " << i;
  }
}

TEST_P(UnaryEncodingTest, DeployedEstimateIsUnbiased) {
  Rng rng(GetParam().seed + 2);
  const int n = 5;
  const double eps = 1.0;
  const auto [p, q] = ExpectedPq(GetParam().name, eps);
  const auto stats = HistogramStats(n);
  const Deployment deployment =
      Create(GetParam().name, *stats, eps)->Deploy(stats).value();
  const Vector x{100, 0, 50, 25, 25};
  const int trials = GetParam().unbiased_trials;
  Vector mean(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector est = DeployedEstimate(deployment, x, rng);
    for (int u = 0; u < n; ++u) mean[u] += est[u] / trials;
  }
  // Monte-Carlo band: the std of the mean is sqrt(v₀ N / trials) on a
  // coordinate no user holds.
  const double v0 = q * (1 - q) / ((p - q) * (p - q));
  const double band = 5.0 * std::sqrt(v0 * Sum(x) / trials);
  for (int u = 0; u < n; ++u) EXPECT_NEAR(mean[u], x[u], band) << "type " << u;
}

TEST_P(UnaryEncodingTest, DeployedVarianceMatchesAnalysis) {
  Rng rng(GetParam().seed + 3);
  const int n = 4;
  const double eps = 1.0;
  const auto [p, q] = ExpectedPq(GetParam().name, eps);
  const auto stats = HistogramStats(n);
  const std::unique_ptr<Mechanism> mechanism =
      Create(GetParam().name, *stats, eps);
  const Deployment deployment = mechanism->Deploy(stats).value();
  const Vector x{200, 100, 50, 150};
  const double num_users = Sum(x);
  const int trials = GetParam().variance_trials;
  Vector sq_error(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector est = DeployedEstimate(deployment, x, rng);
    for (int u = 0; u < n; ++u) {
      sq_error[u] += (est[u] - x[u]) * (est[u] - x[u]) / trials;
    }
  }
  // Var(x_hat_v) = N v₀ + x_v (v₁ - v₀); on Histogram these sum to the
  // analyzed DataVariance(x).
  const double denom = (p - q) * (p - q);
  const double v0 = q * (1 - q) / denom;
  const double v1 = p * (1 - p) / denom;
  double total = 0.0;
  for (int u = 0; u < n; ++u) {
    const double expected = num_users * v0 + x[u] * (v1 - v0);
    total += expected;
    EXPECT_NEAR(sq_error[u], expected, GetParam().variance_band * expected)
        << "type " << u;
  }
  EXPECT_NEAR(mechanism->Analyze(*stats).DataVariance(x), total, 1e-9 * total);
}

std::string UnaryCaseName(
    const ::testing::TestParamInfo<UnaryCase>& info) {
  return std::string(info.param.name);
}

}  // namespace
}  // namespace wfm

#define INSTANTIATE_UNARY_ENCODING_TESTS(unary_case)                    \
  INSTANTIATE_TEST_SUITE_P(Registry, UnaryEncodingTest,                 \
                           ::testing::Values(unary_case), UnaryCaseName)

#endif  // WFM_TESTS_UNARY_ENCODING_SUITE_H_

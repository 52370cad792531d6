// Tests for the WNNLS solver (Appendix A) and the estimation pipeline.

#include "estimation/wnnls.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/projection.h"
#include "estimation/estimator.h"
#include "ldp/protocol.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

TEST(WnnlsTest, UnconstrainedOptimumWhenInteriorIsFeasible) {
  // G = I, r = (1, 2, 3): minimum of xᵀx - 2rᵀx is x = r (all positive).
  const Matrix g = Matrix::Identity(3);
  const WnnlsResult res = SolveWnnls({&g}, {1, 2, 3});
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 2.0, 1e-6);
  EXPECT_NEAR(res.x[2], 3.0, 1e-6);
}

TEST(WnnlsTest, ClampsNegativeComponents) {
  // G = I, r = (-1, 2): optimum is (0, 2).
  const Matrix g = Matrix::Identity(2);
  const WnnlsResult res = SolveWnnls({&g}, {-1, 2});
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 0.0, 1e-8);
  EXPECT_NEAR(res.x[1], 2.0, 1e-6);
}

TEST(WnnlsTest, KktConditionsAtSolution) {
  Rng rng(141);
  const int n = 12;
  // Random PD Gram and random (partly negative) rhs.
  Matrix b(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) b(r, c) = rng.Uniform(-1, 1);
  }
  Matrix g = MultiplyATB(b, b);
  for (int i = 0; i < n; ++i) g(i, i) += 0.1;
  Vector rhs(n);
  for (double& v : rhs) v = rng.Uniform(-2, 2);

  const WnnlsResult res = SolveWnnls({&g}, rhs);
  ASSERT_TRUE(res.converged);
  // Verify the KKT conditions directly.
  Vector grad = MultiplyVec(g, res.x);
  for (int i = 0; i < n; ++i) grad[i] = 2.0 * (grad[i] - rhs[i]);
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(res.x[i], 0.0);
    if (res.x[i] > 1e-9) {
      EXPECT_NEAR(grad[i], 0.0, 1e-5) << "active coordinate " << i;
    } else {
      EXPECT_GE(grad[i], -1e-5) << "inactive coordinate " << i;
    }
  }
}

TEST(WnnlsTest, MatchesActiveSetEnumerationOnTinyProblem) {
  // n = 2: enumerate all four sign patterns and pick the best feasible one.
  Rng rng(142);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix b(3, 2);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 2; ++c) b(r, c) = rng.Uniform(-1, 1);
    }
    Matrix g = MultiplyATB(b, b);
    g(0, 0) += 0.05;
    g(1, 1) += 0.05;
    Vector rhs{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};

    auto objective = [&](double x0, double x1) {
      return g(0, 0) * x0 * x0 + 2 * g(0, 1) * x0 * x1 + g(1, 1) * x1 * x1 -
             2 * (rhs[0] * x0 + rhs[1] * x1);
    };
    // Candidates: interior, each axis, origin.
    double best = objective(0, 0);
    {
      // Interior solve.
      const double det = g(0, 0) * g(1, 1) - g(0, 1) * g(0, 1);
      const double x0 = (g(1, 1) * rhs[0] - g(0, 1) * rhs[1]) / det;
      const double x1 = (g(0, 0) * rhs[1] - g(0, 1) * rhs[0]) / det;
      if (x0 >= 0 && x1 >= 0) best = std::min(best, objective(x0, x1));
    }
    {
      const double x0 = rhs[0] / g(0, 0);
      if (x0 >= 0) best = std::min(best, objective(x0, 0));
      const double x1 = rhs[1] / g(1, 1);
      if (x1 >= 0) best = std::min(best, objective(0, x1));
    }
    const WnnlsResult res = SolveWnnls({&g}, rhs);
    EXPECT_NEAR(res.objective, best, 1e-5 + 1e-4 * std::abs(best))
        << "trial " << trial;
  }
}

TEST(WnnlsTest, WarmStartConverges) {
  const Matrix g = Matrix::Identity(4);
  const Vector rhs{1, -1, 2, 0.5};
  const Vector warm{0.9, 0.2, 1.8, 0.6};
  const WnnlsResult res = SolveWnnls({&g}, rhs, {}, &warm);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 0.0, 1e-8);
}

TEST(WnnlsTest, ZeroGramReturnsZero) {
  const Matrix g(3, 3);
  const WnnlsResult res = SolveWnnls({&g}, {0, 0, 0});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.x, (Vector{0, 0, 0}));
}

TEST(WnnlsEstimateTest, ReducesErrorInLowSampleRegime) {
  // Section 6.7's finding at miniature scale: with few users and small ε the
  // consistent estimate has lower total squared error than the raw unbiased
  // estimate.
  Rng rng(143);
  const int n = 8;
  const double eps = 0.5;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, eps);
  const PrefixWorkload workload(n);
  const ReportDecoder decoder = ReportDecoder::FromAnalysis(
      FactorizationAnalysis(q, WorkloadStats::From(workload)));
  const Vector x{40, 0, 0, 30, 0, 20, 0, 10};  // N = 100.
  const Vector truth = workload.Apply(x);

  double err_default = 0.0, err_wnnls = 0.0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const WorkloadEstimate unbiased = EstimateWorkloadAnswers(
        decoder, workload, y, /*num_reports=*/100, EstimatorKind::kUnbiased);
    const WorkloadEstimate consistent = EstimateWorkloadAnswers(
        decoder, workload, y, /*num_reports=*/100, EstimatorKind::kWnnls);
    for (int i = 0; i < n; ++i) {
      err_default += std::pow(unbiased.query_answers[i] - truth[i], 2);
      err_wnnls += std::pow(consistent.query_answers[i] - truth[i], 2);
    }
    // Consistency: the WNNLS data vector is entrywise non-negative.
    for (double v : consistent.data_vector) EXPECT_GE(v, -1e-9);
  }
  EXPECT_LT(err_wnnls, err_default);
}

TEST(WnnlsEstimateTest, NoopWhenUnbiasedEstimateAlreadyFeasible) {
  // With massive N the unbiased estimate is already non-negative and WNNLS
  // must essentially return it (paper: "no improvement" regime).
  Rng rng(144);
  const int n = 4;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 3.0);
  const HistogramWorkload workload(n);
  const ReportDecoder decoder = ReportDecoder::FromAnalysis(
      FactorizationAnalysis(q, WorkloadStats::From(workload)));
  const Vector x{50000, 80000, 30000, 40000};
  const std::int64_t count = 200000;
  const Vector y = SimulateResponseHistogram(q, x, rng);
  const Vector unbiased = decoder.EstimateDataVector(y, count);
  bool all_nonneg = true;
  for (double v : unbiased) all_nonneg &= v >= 0;
  ASSERT_TRUE(all_nonneg) << "draw unexpectedly produced negative estimates";
  const WnnlsResult res = WnnlsEstimate(decoder, y, count);
  for (int u = 0; u < n; ++u) {
    EXPECT_NEAR(res.x[u], unbiased[u], 1e-4 * std::abs(unbiased[u]) + 1e-6);
  }
}

}  // namespace
}  // namespace wfm

// Tests for FactorizationAnalysis: the variance formulas of Theorem 3.4,
// the Theorem 3.9 identity, the optimality of the Theorem 3.10
// reconstruction, and the closed forms of Examples 3.7 / 5.5.

#include "core/factorization.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/projection.h"
#include "estimation/decoder.h"
#include "linalg/cholesky.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "workload/histogram.h"
#include "workload/prefix.h"
#include "workload/range.h"

namespace wfm {
namespace {

/// Random feasible strategy: project U[0,1] onto the LDP polytope.
Matrix RandomStrategy(int m, int n, double eps, Rng& rng) {
  Matrix r(m, n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) r(o, u) = rng.NextDouble();
  }
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  return ProjectOntoLdpPolytope(r, z, eps).q;
}

/// Direct evaluation of Theorem 3.4 for explicit V, Q, x:
/// sum_u x_u sum_i [v_iᵀ Diag(q_u) v_i - (v_iᵀ q_u)²].
double VarianceByDefinition(const Matrix& v, const Matrix& q, const Vector& x) {
  double total = 0.0;
  for (int u = 0; u < q.cols(); ++u) {
    const Vector qu = q.Col(u);
    double phi = 0.0;
    for (int i = 0; i < v.rows(); ++i) {
      const Vector vi = v.Row(i);
      double diag_term = 0.0;
      for (int o = 0; o < q.rows(); ++o) diag_term += vi[o] * vi[o] * qu[o];
      const double dot = Dot(vi, qu);
      phi += diag_term - dot * dot;
    }
    total += x[u] * phi;
  }
  return total;
}

TEST(FactorizationTest, PerUserVarianceMatchesDefinition) {
  Rng rng(71);
  const int n = 6, m = 24;
  const double eps = 1.0;
  const Matrix q = RandomStrategy(m, n, eps, rng);
  const PrefixWorkload workload(n);
  const WorkloadStats stats = WorkloadStats::From(workload);
  FactorizationAnalysis fa(q, stats);

  const Matrix v = fa.OptimalV(workload.ExplicitMatrix());
  for (int u = 0; u < n; ++u) {
    Vector e(n, 0.0);
    e[u] = 1.0;
    EXPECT_NEAR(fa.PerUserVariance()[u], VarianceByDefinition(v, q, e), 1e-8)
        << "user " << u;
  }
}

TEST(FactorizationTest, Theorem39Identity) {
  // L_avg(N) = (N/n)(L(Q) - ||W||_F²) must hold exactly for the optimal V.
  Rng rng(72);
  const int n = 8, m = 32;
  const double eps = 0.8;
  const Matrix q = RandomStrategy(m, n, eps, rng);
  for (const char* name : {"Histogram", "Prefix", "AllRange"}) {
    const auto workload = CreateWorkload(name, n);
    const WorkloadStats stats = WorkloadStats::From(*workload);
    FactorizationAnalysis fa(q, stats);
    const double num_users = 100.0;
    const double lhs = num_users * fa.Profile().AverageUnitVariance();
    const double rhs = num_users / n * (fa.Objective() - stats.frob_sq);
    EXPECT_NEAR(lhs, rhs, 1e-6 * std::max(1.0, std::abs(rhs))) << name;
  }
}

TEST(FactorizationTest, FactorizationConstraintHolds) {
  Rng rng(73);
  const Matrix q = RandomStrategy(20, 5, 1.0, rng);
  const auto workload = CreateWorkload("Prefix", 5);
  FactorizationAnalysis fa(q, WorkloadStats::From(*workload));
  EXPECT_LT(fa.FactorizationResidual(), 1e-8);
  // Explicit check too: V Q = W.
  const Matrix v = fa.OptimalV(workload->ExplicitMatrix());
  EXPECT_TRUE(Multiply(v, q).ApproxEquals(workload->ExplicitMatrix(), 1e-8));
}

TEST(FactorizationTest, OptimalVBeatsPerturbations) {
  // Theorem 3.10: any other V with VQ = W has larger average variance.
  Rng rng(74);
  const int n = 5, m = 20;
  const Matrix q = RandomStrategy(m, n, 1.0, rng);
  const PrefixWorkload workload(n);
  const WorkloadStats stats = WorkloadStats::From(workload);
  FactorizationAnalysis fa(q, stats);
  const Matrix w = workload.ExplicitMatrix();
  const Matrix v_opt = fa.OptimalV(w);
  const Vector ones(n, 1.0);
  const double base = VarianceByDefinition(v_opt, q, ones);

  // Perturb V in the null space of Qᵀ (so VQ = W still holds): rows of the
  // perturbation must be orthogonal to columns of Q... construct via
  // P = (I - Q Q†)ᵀ applied to random directions.
  const Matrix qt = q.Transpose();  // n x m.
  for (int trial = 0; trial < 5; ++trial) {
    Matrix d(w.rows(), m);
    for (int r = 0; r < d.rows(); ++r) {
      for (int c = 0; c < m; ++c) d(r, c) = rng.Uniform(-0.1, 0.1);
    }
    // Remove the component that changes VQ: d <- d (I - Q (QᵀQ)⁻¹ Qᵀ).
    const Matrix qtq = Multiply(qt, q);
    Cholesky chol;
    ASSERT_TRUE(chol.Factorize(qtq));
    const Matrix dq = Multiply(d, q);            // p x n.
    const Matrix coef = chol.Solve(dq.Transpose());  // n x p.
    const Matrix correction = Multiply(coef.Transpose(), qt);  // p x m.
    const Matrix v_alt = v_opt + (d - correction);
    // Constraint preserved.
    EXPECT_TRUE(Multiply(v_alt, q).ApproxEquals(w, 1e-6));
    EXPECT_GE(VarianceByDefinition(v_alt, q, ones), base - 1e-8);
  }
}

TEST(FactorizationTest, RandomizedResponseClosedFormExample37) {
  // Example 3.7: worst = average on Histogram, equal to the closed form.
  for (int n : {4, 8, 16}) {
    for (double eps : {0.5, 1.0, 2.0}) {
      const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, eps);
      const HistogramWorkload workload(n);
      FactorizationAnalysis fa(q, WorkloadStats::From(workload));
      const double num_users = 1000.0;
      const double expected = RandomizedResponseMechanism::HistogramVarianceClosedForm(
          n, eps, num_users);
      const ErrorProfile profile = fa.Profile();
      EXPECT_NEAR(num_users * profile.WorstUnitVariance(), expected,
                  1e-6 * expected)
          << "n=" << n << " eps=" << eps;
      EXPECT_NEAR(num_users * profile.AverageUnitVariance(), expected,
                  1e-6 * expected);
    }
  }
}

TEST(FactorizationTest, RandomizedResponseSampleComplexityExample55) {
  const int n = 16;
  const double eps = 1.0, alpha = 0.01;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, eps);
  FactorizationAnalysis fa(q, WorkloadStats::From(HistogramWorkload(n)));
  const double expected =
      RandomizedResponseMechanism::HistogramSampleComplexityClosedForm(n, eps, alpha);
  EXPECT_NEAR(fa.Profile().SampleComplexity(alpha), expected, 1e-6 * expected);
}

TEST(FactorizationTest, Theorem51Sandwich) {
  // L_avg <= L_worst <= e^ε (L_avg + (N/n)||W||_F²).
  Rng rng(75);
  const int n = 7, m = 28;
  const double num_users = 50.0;
  for (double eps : {0.5, 1.0, 2.0}) {
    const Matrix q = RandomStrategy(m, n, eps, rng);
    for (const char* name : {"Histogram", "Prefix", "AllRange"}) {
      const auto workload = CreateWorkload(name, n);
      const WorkloadStats stats = WorkloadStats::From(*workload);
      FactorizationAnalysis fa(q, stats);
      const double avg = num_users * fa.Profile().AverageUnitVariance();
      const double worst = num_users * fa.Profile().WorstUnitVariance();
      EXPECT_LE(avg, worst + 1e-9) << name;
      EXPECT_LE(worst, std::exp(eps) * (avg + num_users / n * stats.frob_sq) + 1e-6)
          << name;
    }
  }
}

TEST(FactorizationTest, DataVarianceInterpolatesPerUser) {
  Rng rng(76);
  const Matrix q = RandomStrategy(16, 4, 1.0, rng);
  FactorizationAnalysis fa(q, WorkloadStats::From(HistogramWorkload(4)));
  const Vector x{5, 0, 3, 2};
  double expected = 0.0;
  for (int u = 0; u < 4; ++u) expected += x[u] * fa.PerUserVariance()[u];
  EXPECT_NEAR(fa.Profile().DataVariance(x), expected, 1e-12);
}

TEST(FactorizationTest, SampleComplexityOnUniformDataLeqWorstCase) {
  Rng rng(77);
  const int n = 6;
  const Matrix q = RandomStrategy(24, n, 1.0, rng);
  FactorizationAnalysis fa(q, WorkloadStats::From(PrefixWorkload(n)));
  const Vector uniform(n, 10.0);
  EXPECT_LE(fa.Profile().SampleComplexityOnData(uniform, 0.01),
            fa.Profile().SampleComplexity(0.01) + 1e-9);
}

TEST(FactorizationTest, EstimateDataVectorIsUnbiasedMap) {
  // B applied to the exact expected histogram Qx recovers x (up to the
  // factorization constraint): B(Qx) = x for full-rank strategies.
  Rng rng(78);
  const int n = 5;
  const Matrix q = RandomStrategy(20, n, 1.0, rng);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(HistogramWorkload(n)));
  FactorizationAnalysis fa(q, *shared_stats);
  const ReportDecoder decoder({fa.ReconstructionB()}, shared_stats);
  const Vector x{1, 2, 3, 4, 5};
  const Vector y = MultiplyVec(q, x);  // Expected response histogram.
  const Vector x_hat = decoder.EstimateDataVector(y, /*num_reports=*/15);
  for (int u = 0; u < n; ++u) EXPECT_NEAR(x_hat[u], x[u], 1e-8);
}

}  // namespace
}  // namespace wfm

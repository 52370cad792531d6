// Tests for the optimization objective and its analytic gradient — most
// importantly the central finite-difference check of the hand-derived
// gradient (the substitute for the paper's autodiff).

#include "core/objective.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/factorization.h"
#include "core/projection.h"
#include "linalg/pseudo_inverse.h"
#include "linalg/rng.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "workload/workload.h"

namespace wfm {
namespace {

Matrix RandomStrategy(int m, int n, double eps, Rng& rng) {
  Matrix r(m, n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) r(o, u) = rng.NextDouble();
  }
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  return ProjectOntoLdpPolytope(r, z, eps).q;
}

TEST(ObjectiveTest, ValueMatchesFactorizationAnalysis) {
  Rng rng(81);
  const int n = 6, m = 24;
  const Matrix q = RandomStrategy(m, n, 1.0, rng);
  for (const char* name : {"Histogram", "Prefix", "AllRange"}) {
    const auto w = CreateWorkload(name, n);
    const WorkloadStats stats = WorkloadStats::From(*w);
    FactorizationAnalysis fa(q, stats);
    EXPECT_NEAR(EvalObjective(q, stats.gram), fa.Objective(),
                1e-8 * std::max(1.0, fa.Objective()))
        << name;
    EXPECT_NEAR(EvalObjectiveAndGradient(q, stats.gram).value, fa.Objective(),
                1e-8 * std::max(1.0, fa.Objective()))
        << name;
  }
}

class GradientCheck : public ::testing::TestWithParam<const char*> {};

TEST_P(GradientCheck, MatchesCentralFiniteDifferences) {
  Rng rng(82);
  const int n = 5, m = 20;
  const Matrix q = RandomStrategy(m, n, 1.0, rng);
  const auto w = CreateWorkload(GetParam(), n);
  const Matrix gram = w->Gram();

  const ObjectiveEvaluation eval = EvalObjectiveAndGradient(q, gram);
  ASSERT_TRUE(std::isfinite(eval.value));

  const double h = 1e-6;
  // Probe a spread of entries (all m*n would be slow and redundant).
  for (int o = 0; o < m; o += 3) {
    for (int u = 0; u < n; u += 2) {
      Matrix qp = q, qm = q;
      qp(o, u) += h;
      qm(o, u) -= h;
      const double fd = (EvalObjective(qp, gram) - EvalObjective(qm, gram)) / (2 * h);
      const double an = eval.gradient(o, u);
      EXPECT_NEAR(an, fd, 1e-4 * std::max(1.0, std::abs(fd)))
          << GetParam() << " entry (" << o << "," << u << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, GradientCheck,
                         ::testing::Values("Histogram", "Prefix", "AllRange"));

TEST(ObjectiveTest, UsesCholeskyOnFullRankStrategies) {
  Rng rng(83);
  const Matrix q = RandomStrategy(32, 8, 1.0, rng);
  const Matrix gram = Matrix::Identity(8);
  EXPECT_TRUE(EvalObjectiveAndGradient(q, gram).used_cholesky);
}

TEST(ObjectiveTest, PinvFallbackOnRankDeficientStrategy) {
  // A strategy with two identical user columns makes A rank deficient; the
  // objective against a workload supported on the strategy's row space is
  // still finite via the pseudo-inverse.
  const int n = 4;
  Matrix q(8, n);
  Rng rng(84);
  Matrix base = RandomStrategy(8, n, 1.0, rng);
  q = base;
  q.SetCol(3, base.Col(2));  // Duplicate column: rank(A) <= 3.
  // Workload touching only the identified types: gram restricted.
  Matrix gram(n, n);
  gram(0, 0) = 1.0;
  gram(1, 1) = 1.0;
  const ObjectiveEvaluation eval = EvalObjectiveAndGradient(q, gram);
  EXPECT_FALSE(eval.used_cholesky);
  EXPECT_TRUE(std::isfinite(eval.value));
  EXPECT_GT(eval.value, 0.0);
}

std::int64_t PseudoInverses() {
  return MetricsRegistry::Global()
      .GetCounter("wfm_optimizer_pseudo_inverse_total")
      .value();
}

/// An m x n strategy whose last column duplicates the one before it, so
/// A = Qᵀ D⁻¹ Q is singular and fails to factor.
Matrix DuplicatedColumnStrategy(int m, int n, Rng& rng) {
  Matrix q = RandomStrategy(m, n, 1.0, rng);
  q.SetCol(n - 1, q.Col(n - 2));
  return q;
}

/// What the pseudo-inverse path concludes for q: whether range(G) ⊆
/// range(A), by the objective's own test (‖A A†G − G‖_max within 1e-6).
bool PseudoInverseRangeCovered(const Matrix& q, const Matrix& gram) {
  Matrix dq = q;
  Vector dinv = q.RowSums();
  for (double& d : dinv) d = 1.0 / d;
  ScaleRows(dq, dinv);
  const Matrix a = MultiplyATB(q, dq);
  const Matrix ax = Multiply(a, Multiply(SymmetricPseudoInverse(a), gram));
  return (ax - gram).MaxAbs() <= 1e-6 * std::max(1.0, gram.MaxAbs());
}

TEST(ObjectiveTest, CertifiedInfiniteStepSkipsThePseudoInverse) {
  // Prefix(8)'s Gram is well conditioned: a strategy whose A fails to factor
  // has objective +∞, decided without the pseudo-inverse.
  Rng rng(87);
  const Matrix gram = CreateWorkload("Prefix", 8)->Gram();
  EXPECT_TRUE(GramCertificate(gram).FailedFactorIsInfinite());
  const Matrix q = DuplicatedColumnStrategy(32, 8, rng);
  ASSERT_FALSE(PseudoInverseRangeCovered(q, gram))
      << "the pseudo-inverse path would also give +inf";

  const std::int64_t before = PseudoInverses();
  const ObjectiveEvaluation eval = EvalObjectiveAndGradient(q, gram);
  EXPECT_EQ(eval.value, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(eval.used_cholesky);
  EXPECT_EQ(eval.gradient.rows(), 32);
  EXPECT_EQ(eval.gradient.cols(), 8);
  EXPECT_EQ(EvalObjective(q, gram), std::numeric_limits<double>::infinity());
  EXPECT_EQ(PseudoInverses(), before);
}

TEST(ObjectiveTest, GramOutsideTheMarginTakesThePseudoInverse) {
  // Positive definite, but with one eigenvalue near 1e-9: λ_min / n is far
  // below the range test's tolerance, so nothing is certified and a failed
  // factorization still goes through the pseudo-inverse.
  Rng rng(88);
  const int n = 6;
  Matrix sym(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c <= r; ++c) sym(r, c) = sym(c, r) = rng.Uniform(-1.0, 1.0);
  }
  const Matrix v = SymmetricEigen(sym).eigenvectors;
  Vector spectrum(n, 1.0);
  spectrum[0] = 1e-9;
  Matrix scaled = v;
  ScaleCols(scaled, spectrum);
  const Matrix gram = MultiplyABT(scaled, v);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(gram)) << "test premise: G is positive definite";
  EXPECT_FALSE(GramCertificate(gram).FailedFactorIsInfinite());

  const Matrix q = DuplicatedColumnStrategy(24, n, rng);
  const std::int64_t before = PseudoInverses();
  const ObjectiveEvaluation eval = EvalObjectiveAndGradient(q, gram);
  EXPECT_FALSE(eval.used_cholesky);
  EXPECT_EQ(PseudoInverses(), before + 1);
  EXPECT_EQ(std::isfinite(eval.value), PseudoInverseRangeCovered(q, gram));
  EvalObjective(q, gram);
  EXPECT_EQ(PseudoInverses(), before + 2);
}

TEST(ObjectiveTest, PinvFallbackCountsOnePseudoInversePerEvaluation) {
  // The input of PinvFallbackOnRankDeficientStrategy: a singular Gram, so
  // the pseudo-inverse runs on every evaluation and each one is counted.
  const int n = 4;
  Rng rng(84);
  Matrix q = RandomStrategy(8, n, 1.0, rng);
  q.SetCol(3, q.Col(2));
  Matrix gram(n, n);
  gram(0, 0) = 1.0;
  gram(1, 1) = 1.0;
  EXPECT_FALSE(GramCertificate(gram).FailedFactorIsInfinite());
  const std::int64_t before = PseudoInverses();
  EXPECT_TRUE(std::isfinite(EvalObjectiveAndGradient(q, gram).value));
  EXPECT_EQ(PseudoInverses(), before + 1);
  EXPECT_TRUE(std::isfinite(EvalObjective(q, gram)));
  EXPECT_EQ(PseudoInverses(), before + 2);
  ObjectiveWorkspace ws;
  EvalObjective(q, gram, ws);
  EvalObjectiveAndGradient(q, gram, ws);
  EXPECT_EQ(ws.pseudo_inverses, 2);
  EXPECT_EQ(PseudoInverses(), before + 2) << "workspace forms only count";
  PublishPseudoInverses(ws);
  EXPECT_EQ(ws.pseudo_inverses, 0);
  EXPECT_EQ(PseudoInverses(), before + 4);
}

TEST(ObjectiveTest, ScalingWorkloadScalesObjective) {
  Rng rng(85);
  const Matrix q = RandomStrategy(20, 5, 1.0, rng);
  const auto w = CreateWorkload("Prefix", 5);
  const Matrix gram = w->Gram();
  const double base = EvalObjective(q, gram);
  Matrix scaled = gram;
  scaled *= 9.0;  // (3W)ᵀ(3W).
  EXPECT_NEAR(EvalObjective(q, scaled), 9.0 * base, 1e-8 * base);
}

TEST(ObjectiveTest, GradientShapeMatchesStrategy) {
  Rng rng(86);
  const Matrix q = RandomStrategy(12, 3, 0.7, rng);
  const auto eval = EvalObjectiveAndGradient(q, Matrix::Identity(3));
  EXPECT_EQ(eval.gradient.rows(), 12);
  EXPECT_EQ(eval.gradient.cols(), 3);
}

}  // namespace
}  // namespace wfm

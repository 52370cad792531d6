// Tests for the WNNLS solver (Appendix A) and the estimation pipeline.

#include "estimation/wnnls.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/projection.h"
#include "estimation/estimator.h"
#include "ldp/protocol.h"
#include "linalg/kron.h"
#include "linalg/rng.h"
#include "linalg/thread_pool.h"
#include "mechanisms/randomized_response.h"
#include "obs/metrics.h"
#include "workload/histogram.h"
#include "workload/prefix.h"
#include "workload/workload.h"

namespace wfm {
namespace {

std::int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

/// A noisy unbiased estimate of a sparse histogram over `n` types: a few
/// planted counts under noise large enough that about half of the
/// coordinates come out negative, as in a low-ε decode.
Vector NoisyUnbiasedEstimate(int n, std::uint64_t seed) {
  Rng rng(seed);
  Vector xhat(n);
  for (double& v : xhat) v = rng.Normal(0.0, 20.0);
  for (int spike = 0; spike < 8; ++spike) xhat[rng.UniformInt(n)] += 400.0;
  return xhat;
}

/// A large-N unbiased estimate over `n` types: every count near 30, with
/// noise small enough that only about one coordinate in 700 is negative.
Vector NearlyFeasibleEstimate(int n, std::uint64_t seed) {
  Rng rng(seed);
  Vector xhat(n);
  for (double& v : xhat) v = rng.Normal(30.0, 10.0);
  return xhat;
}

/// Asserts x >= 0, g_i = 0 where x_i > 0 and g_i >= 0 where x_i = 0, for
/// g = 2(Gx - r) with G = ⊗ factors, up to `tol`.
void ExpectKkt(const std::vector<const Matrix*>& factors, const Vector& rhs,
               const Vector& x, double tol) {
  Vector grad = KroneckerMatVec(factors, x);
  for (std::size_t i = 0; i < x.size(); ++i) grad[i] = 2.0 * (grad[i] - rhs[i]);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_GE(x[i], 0.0);
    if (x[i] > 0.0) {
      EXPECT_NEAR(grad[i], 0.0, tol) << "free coordinate " << i;
    } else {
      EXPECT_GE(grad[i], -tol) << "clamped coordinate " << i;
    }
  }
}

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

  // With G = 0 and r_i > 0 the objective -2 rᵀx has no minimum on x >= 0
  // (WnnlsEstimate never builds such an r: it lies outside range(G)). The
  // free block does not factor, CG finds no curvature and no step lowers
  // the objective, so x = 0 comes back unconverged. A zero factor of a
  // Kronecker Gram takes the same path, its preconditioner factored with a
  // unit ridge.
  const Matrix identity = HistogramWorkload(3).Gram();
  const std::int64_t fallbacks = CounterValue("wfm_wnnls_fallback_total");
  for (const std::vector<const Matrix*>& grams :
       {std::vector<const Matrix*>{&g},
        std::vector<const Matrix*>{&g, &identity}}) {
    const Vector rhs = grams.size() == 1
                           ? Vector{1, -2, 0}
                           : Vector{1, -2, 0, 0, 3, 0, -1, 0, 0};
    const WnnlsResult unbounded = SolveWnnls(grams, rhs);
    EXPECT_FALSE(unbounded.converged);
    EXPECT_EQ(unbounded.iterations, 0);
    EXPECT_EQ(unbounded.x, Vector(rhs.size(), 0.0));
    EXPECT_EQ(unbounded.kkt_residual,
              2.0 * *std::max_element(rhs.begin(), rhs.end()));
  }
  EXPECT_EQ(CounterValue("wfm_wnnls_fallback_total"), fallbacks + 2);
}

TEST(WnnlsTest, GradientStepRescuesAnAscentArc) {
  // G = [1 .9; .9 1], r = G z for z = (-10, 9), from x = (1e-12, 5): both
  // coordinates are free, the Newton point z clips x_0 to 0 at every α the
  // line search tries (α >= 2^-30), and what is left of the arc moves x_1
  // toward 9 against g_1 = 10 > 0, so f rises everywhere on it. A
  // projected-gradient step gets past it; the solution is x = 0.
  Matrix g(2, 2);
  g(0, 0) = g(1, 1) = 1.0;
  g(0, 1) = g(1, 0) = 0.9;
  const Vector rhs = MultiplyVec(g, {-10.0, 9.0});
  const Vector warm{1e-12, 5.0};
  const WnnlsResult res = SolveWnnls({&g}, rhs, {}, &warm);
  ASSERT_TRUE(res.converged);
  EXPECT_GE(res.iterations, 2);
  EXPECT_EQ(res.x, (Vector{0.0, 0.0}));
  ExpectKkt({&g}, rhs, res.x, WnnlsOptions{}.tolerance * MaxAbsVec(rhs));
}

TEST(WnnlsTest, NewtonConvergesOnIllConditionedPrefix) {
  // Prefix(512)'s Gram has a condition number on the order of n², which
  // holds first-order methods at any practical iteration cap. Newton on the
  // free block does not depend on conditioning and must reach the KKT
  // certificate in a few dozen Cholesky steps from a warm start with about
  // half its entries negative.
  const Matrix g = PrefixWorkload(512).Gram();
  const Vector xhat = NoisyUnbiasedEstimate(512, 151);
  int negative = 0;
  for (double v : xhat) negative += v < 0.0;
  ASSERT_GT(negative, 200) << "test premise: about half negative";
  ASSERT_LT(negative, 312) << "test premise: about half negative";
  const Vector rhs = MultiplyVec(g, xhat);

  const std::int64_t newton_before =
      CounterValue("wfm_wnnls_newton_steps_total");
  const std::int64_t cg_before = CounterValue("wfm_wnnls_cg_iterations_total");
  const WnnlsResult res = SolveWnnls({&g}, rhs, {}, &xhat);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 50);
  EXPECT_EQ(CounterValue("wfm_wnnls_newton_steps_total") - newton_before,
            res.iterations);
  EXPECT_EQ(CounterValue("wfm_wnnls_cg_iterations_total"), cg_before);
  const double tol = WnnlsOptions{}.tolerance * MaxAbsVec(rhs);
  EXPECT_LE(res.kkt_residual, tol);
  ExpectKkt({&g}, rhs, res.x, tol);
}

TEST(WnnlsTest, SingularGramConvergesThroughPcgFallback) {
  // 3WayMarginals(256) has WᵀW of rank 93 < 256: the free block does not
  // factor, so CG on the operator (unpreconditioned for one factor) solves
  // this and every later block.
  const Matrix g = CreateWorkload("3WayMarginals", 256)->Gram();
  const Vector xhat = NoisyUnbiasedEstimate(256, 152);
  const Vector rhs = MultiplyVec(g, xhat);

  const std::int64_t fallbacks = CounterValue("wfm_wnnls_fallback_total");
  const std::int64_t cg_before = CounterValue("wfm_wnnls_cg_iterations_total");
  const WnnlsResult res = SolveWnnls({&g}, rhs, {}, &xhat);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(CounterValue("wfm_wnnls_fallback_total"), fallbacks + 1);
  EXPECT_GE(CounterValue("wfm_wnnls_cg_iterations_total") - cg_before,
            res.iterations)
      << "every Newton step runs at least one CG iteration";
  const double tol = WnnlsOptions{}.tolerance * MaxAbsVec(rhs);
  EXPECT_LE(res.kkt_residual, tol);
  ExpectKkt({&g}, rhs, res.x, tol);
}

TEST(WnnlsTest, NewtonConvergesPastTheCholeskyBlockLimit) {
  // Prefix(65) ⊗ Prefix(65), n = 4,225: the first free blocks are past the
  // Cholesky limit of a Kronecker Gram, so PCG on the operator takes those
  // steps. From a noisy warm start F shrinks until Cholesky finishes with
  // the KKT certificate. From a nearly feasible one (a large-N decode)
  // almost every coordinate stays free, so PCG must take the steps to the
  // end; its preconditioner is then nearly exact and one or two steps
  // suffice.
  const Matrix factor = PrefixWorkload(65).Gram();
  const std::vector<const Matrix*> grams{&factor, &factor};
  const int n = 65 * 65;
  const Vector noisy = NoisyUnbiasedEstimate(n, 154);
  const Vector nearly_feasible = NearlyFeasibleEstimate(n, 156);
  for (const Vector* xhat : {&noisy, &nearly_feasible}) {
    const Vector rhs = KroneckerMatVec(grams, *xhat);
    const std::int64_t cg_before =
        CounterValue("wfm_wnnls_cg_iterations_total");
    const std::int64_t fallbacks = CounterValue("wfm_wnnls_fallback_total");
    const WnnlsResult res = SolveWnnls(grams, rhs, {}, xhat);
    ASSERT_TRUE(res.converged);
    EXPECT_GT(CounterValue("wfm_wnnls_cg_iterations_total"), cg_before)
        << "test premise: the first free block is solved by PCG";
    EXPECT_EQ(CounterValue("wfm_wnnls_fallback_total"), fallbacks);
    if (xhat == &nearly_feasible) {
      EXPECT_LE(res.iterations, 2);
    }
    const double tol = WnnlsOptions{}.tolerance * MaxAbsVec(rhs);
    EXPECT_LE(res.kkt_residual, tol);
    ExpectKkt(grams, rhs, res.x, tol);
  }
}

TEST(WnnlsTest, OneFactorGramTakesCholeskyAtAnyBlockSize) {
  // The block limit applies to Kronecker Grams only: PCG on one factor
  // would precondition with a factorization of all of G, never cheaper than
  // factoring G_FF. From a nearly feasible warm start Prefix(2100) keeps
  // almost every coordinate free, past the 2,048-column limit of a
  // Kronecker Gram, and one Cholesky step reaches the KKT certificate.
  const Matrix g = PrefixWorkload(2100).Gram();
  const Vector xhat = NearlyFeasibleEstimate(2100, 157);
  const Vector rhs = MultiplyVec(g, xhat);

  const std::int64_t cg_before = CounterValue("wfm_wnnls_cg_iterations_total");
  const WnnlsResult res = SolveWnnls({&g}, rhs, {}, &xhat);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 1);
  EXPECT_EQ(CounterValue("wfm_wnnls_cg_iterations_total"), cg_before);
  const double tol = WnnlsOptions{}.tolerance * MaxAbsVec(rhs);
  ExpectKkt({&g}, rhs, res.x, tol);
}

TEST(WnnlsTest, SingularFactorPastTheCholeskyBlockLimit) {
  // 3WayMarginals(16) has a rank-15 Gram, so G = G_0 ⊗ G_1 is singular and
  // the PCG preconditioner factors G_0 with a ridge. From a nearly feasible
  // warm start almost all n = 16 · 300 = 4,800 coordinates stay free, so
  // PCG solves the singular free blocks to the end.
  const Matrix marginals = CreateWorkload("3WayMarginals", 16)->Gram();
  const Matrix prefix = PrefixWorkload(300).Gram();
  const std::vector<const Matrix*> grams{&marginals, &prefix};
  const Vector xhat = NearlyFeasibleEstimate(16 * 300, 155);
  const Vector rhs = KroneckerMatVec(grams, xhat);

  const std::int64_t cg_before = CounterValue("wfm_wnnls_cg_iterations_total");
  const WnnlsResult res = SolveWnnls(grams, rhs, {}, &xhat);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(CounterValue("wfm_wnnls_cg_iterations_total"), cg_before)
      << "test premise: the first free block is solved by PCG";
  const double tol = WnnlsOptions{}.tolerance * MaxAbsVec(rhs);
  EXPECT_LE(res.kkt_residual, tol);
  ExpectKkt(grams, rhs, res.x, tol);
}

TEST(WnnlsTest, BitIdenticalAcrossThreadCounts) {
  // Served answers and the in-process replay must agree bit for bit, so the
  // solve may not depend on the pool size. n = 2048 is past the pool's flop
  // threshold for the G x product. Prefix takes Cholesky steps. The Gram of
  // 3WayMarginals(256) ⊗ Histogram(8) has rank 93 · 8 = 744, so its free
  // block does not factor and CG takes its steps. Bounded budgets keep
  // Debug builds fast; bit identity does not need convergence.
  const Matrix prefix = PrefixWorkload(2048).Gram();
  const Matrix singular =
      KroneckerProduct(CreateWorkload("3WayMarginals", 256)->Gram(),
                       HistogramWorkload(8).Gram());
  const std::int64_t fallbacks = CounterValue("wfm_wnnls_fallback_total");
  const std::int64_t cg_before = CounterValue("wfm_wnnls_cg_iterations_total");
  for (const Matrix* g : {&prefix, &singular}) {
    Vector xhat = NoisyUnbiasedEstimate(2048, 153);
    // A smaller free set makes Prefix's Newton steps cheap.
    if (g == &prefix) {
      for (double& v : xhat) v -= 15.0;
    }
    const Vector rhs = MultiplyVec(*g, xhat);
    WnnlsOptions options;
    options.max_iterations = 4;
    std::vector<WnnlsResult> results;
    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      ThreadPool::SetGlobal(&pool);
      const std::int64_t dispatches = CounterValue("wfm_pool_dispatches_total");
      results.push_back(SolveWnnls({g}, rhs, options, &xhat));
      ThreadPool::SetGlobal(nullptr);
      if (threads > 1) {
        EXPECT_GT(CounterValue("wfm_pool_dispatches_total"), dispatches)
            << "test premise: the solve runs on the pool";
      }
    }
    EXPECT_EQ(results[0].x, results[1].x);
    EXPECT_EQ(results[0].iterations, results[1].iterations);
    EXPECT_EQ(results[0].converged, results[1].converged);
    EXPECT_EQ(results[0].objective, results[1].objective);
    EXPECT_EQ(results[0].kkt_residual, results[1].kkt_residual);
  }
  EXPECT_EQ(CounterValue("wfm_wnnls_fallback_total"), fallbacks + 2)
      << "test premise: the singular case takes the PCG fallback";
  EXPECT_GT(CounterValue("wfm_wnnls_cg_iterations_total"), cg_before);
}

/// FNV-1a over the bytes of `values`' bit patterns.
std::uint64_t Fnv1a(const Vector& values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xFF;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(WnnlsTest, RapporPrefixSolveIsPinnedBitForBit) {
  // A solve shaped like rappor-prefix's: Prefix(512), 120,000 reports of
  // RAPPOR at ε = 1, whose unbiased estimate has per-type noise of std
  // √(N q(1-q)) / (p - q) ≈ 685 against a mean count of 234, so about a
  // third of it is negative. The hashes were recorded with the gradient
  // computed as a full G x product; computing it from the support of x
  // (ascending rows of a symmetric G) must reproduce them bit for bit.
  const int n = 512;
  const Matrix g = PrefixWorkload(n).Gram();
  const double f = 1.0 / (1.0 + std::exp(0.5));
  const double p = 1.0 - f;
  const double q = f;
  const double users = 120000.0;
  const double noise = std::sqrt(users * q * (1.0 - q)) / (p - q);
  Rng rng(155);
  Vector weights(n);
  double total = 0.0;
  for (int u = 0; u < n; ++u) {
    weights[u] = 1.0 / (1.0 + u / 16.0);
    total += weights[u];
  }
  Vector xhat(n);
  for (int u = 0; u < n; ++u) {
    xhat[u] = users * weights[u] / total + rng.Normal(0.0, noise);
  }
  const Vector rhs = MultiplyVec(g, xhat);
  const WnnlsResult res = SolveWnnls({&g}, rhs, WnnlsOptions(), &xhat);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 11);
  EXPECT_EQ(Fnv1a(res.x), 0xf491e8b7cc62a41eull);
  EXPECT_EQ(Fnv1a({res.objective}), 0x31fb9de7ca202087ull);
}

TEST(WnnlsTest, ZeroIterationBudgetReturnsClippedWarmStart) {
  const Matrix g = PrefixWorkload(16).Gram();
  const Vector xhat = NoisyUnbiasedEstimate(16, 154);
  const Vector rhs = MultiplyVec(g, xhat);
  WnnlsOptions options;
  options.max_iterations = 0;
  const WnnlsResult res = SolveWnnls({&g}, rhs, options, &xhat);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  ASSERT_EQ(res.x.size(), xhat.size());
  for (std::size_t i = 0; i < xhat.size(); ++i) {
    EXPECT_EQ(res.x[i], std::max(0.0, xhat[i])) << "coordinate " << i;
  }
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
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  const FactorizationAnalysis analysis(q, *shared_stats);
  const ReportDecoder decoder({analysis.ReconstructionB()}, shared_stats);
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
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  const FactorizationAnalysis analysis(q, *shared_stats);
  const ReportDecoder decoder({analysis.ReconstructionB()}, shared_stats);
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

// Cross-mechanism statistical conformance — the tier-1 gate every mechanism
// in MechanismRegistry::Global() must pass to stay registered.
//
// The shared harness runs the paper's full pipeline per mechanism with
// pinned seeds: build a Plan, simulate every user's on-device report,
// collect, decode unbiased, and compare the *empirical* error of the
// deployment against the *analyzed* variance from TryAnalyze():
//
//   * conformance — the mean total squared error over `trials` independent
//     runs must match E = Profile().DataVariance(truth) within a CLT band
//     (the per-trial error is an unbiased estimator of E, so the mean over T
//     trials concentrates at E with SE ≈ s/√T, s the sample std dev);
//   * unbiasedness — each query's mean answer must match the true answer
//     within 5·√(E/T) (each answer's variance is bounded by the total E, so
//     this band is ≥ 5 standard errors, conservative per coordinate);
//   * collect parity — the pinned report stream of trial 0 must produce the
//     same estimate through a two-shard session as through the one-shard
//     session of the trial (exact for integer aggregates, up to
//     floating-point commutation for dense ones).
//
// Every registry name must have a fixture below (enforced by
// EveryRegistryMechanismHasAFixture), so registering a new mechanism without
// extending this suite fails CI.
//
// All randomness flows from fixed-seed Rngs, so the suite is deterministic;
// the bands are phrased in standard-error multiples and documented in-line,
// so the assertions would also hold for any reseeding with overwhelming
// probability (PR-1 tolerance convention).

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "estimation/decoder.h"
#include "estimation/estimator.h"
#include "ldp/reporter.h"
#include "mechanisms/registry.h"
#include "workload/histogram.h"

namespace wfm {
namespace {

// n = 8 keeps every registry mechanism eligible (Fourier needs a power of
// two) and the trial loop cheap enough for the sanitizer jobs.
constexpr int kDomain = 8;

struct ConformanceFixture {
  double eps = 1.0;
  int num_users = 4000;
  int trials = 24;
  /// Pinned base seed; trial t draws from Rng(seed * 7919 + t).
  std::uint64_t seed = 0;
};

// Registry name -> pinned fixture. A newly registered mechanism MUST add an
// entry here: EveryRegistryMechanismHasAFixture fails the suite (and CI)
// otherwise, so no mechanism can merge without a statistical conformance
// gate.
const std::map<std::string, ConformanceFixture>& Fixtures() {
  static const auto* fixtures = new std::map<std::string, ConformanceFixture>{
      {"Randomized Response", {1.0, 4000, 24, 1001}},
      {"Hadamard", {1.0, 4000, 24, 1002}},
      {"Hierarchical", {1.0, 4000, 24, 1003}},
      {"Fourier", {1.0, 4000, 24, 1004}},
      {"Matrix Mechanism (L1)", {1.0, 4000, 24, 1005}},
      {"Matrix Mechanism (L2)", {1.0, 4000, 24, 1006}},
      {"Optimized", {1.0, 4000, 24, 1007}},
      {"RAPPOR", {1.0, 4000, 24, 1008}},
      {"OUE", {1.0, 4000, 24, 1009}},
  };
  return *fixtures;
}

OptimizerConfig SmallConfig(std::uint64_t seed) {
  OptimizerConfig config;
  config.iterations = 120;
  config.step_search_iterations = 20;
  config.seed = seed;
  return config;
}

// Example 2.2-style skewed counts summing exactly to `total`.
Vector SkewedTruth(int n, int total) {
  Vector truth(n, 0.0);
  double assigned = 0.0;
  for (int u = 0; u < n; ++u) {
    truth[u] = std::floor(static_cast<double>(total) / (2 << u));
    assigned += truth[u];
  }
  truth[0] += total - assigned;
  return truth;
}

TEST(MechanismConformanceTest, EveryRegistryMechanismHasAFixture) {
  for (const std::string& name :
       MechanismRegistry::Global().ListMechanisms()) {
    EXPECT_TRUE(Fixtures().count(name) > 0)
        << "registry mechanism '" << name
        << "' has no conformance fixture; add one to Fixtures() in "
           "tests/mechanism_conformance_test.cc";
  }
  // And the converse: a fixture for a name that is not registered is stale.
  for (const auto& [name, fixture] : Fixtures()) {
    (void)fixture;
    EXPECT_TRUE(MechanismRegistry::Global().Contains(name))
        << "conformance fixture for '" << name
        << "' does not match any registered mechanism";
  }
}

TEST(MechanismConformanceTest, EmpiricalErrorMatchesAnalyzedVariance) {
  auto workload = std::make_shared<HistogramWorkload>(kDomain);
  const int num_queries = static_cast<int>(workload->num_queries());

  for (const auto& [name, fx] : Fixtures()) {
    SCOPED_TRACE(name);
    const Vector truth = SkewedTruth(kDomain, fx.num_users);
    const Vector expected = workload->Apply(truth);

    const StatusOr<Plan> built = Plan::For(workload)
                                     .Epsilon(fx.eps)
                                     .Mechanism(name)
                                     .Optimizer(SmallConfig(fx.seed))
                                     .Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const Plan& plan = built.value();

    // The deployed profile must agree with the analysis-only path: both
    // derive from the same closed form / factorization, so this is a
    // consistency identity, not a statistical bound.
    const StatusOr<ErrorProfile> analyzed =
        plan.mechanism().TryAnalyze(plan.stats());
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    const double analytic = plan.Profile().DataVariance(truth);
    ASSERT_GT(analytic, 0.0);
    EXPECT_NEAR(analyzed.value().DataVariance(truth), analytic,
                1e-9 * analytic);

    const PlanClient client = plan.Client();
    std::vector<double> sq_errors;
    sq_errors.reserve(fx.trials);
    Vector mean_answers(num_queries, 0.0);
    Vector trial0_answers;
    for (int trial = 0; trial < fx.trials; ++trial) {
      Rng rng(fx.seed * 7919 + static_cast<std::uint64_t>(trial));
      std::unique_ptr<PlanSession> server = plan.StartSession(1);
      for (int u = 0; u < kDomain; ++u) {
        for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
          const Status accepted = server->Accept(0, client.Respond(u, rng));
          ASSERT_TRUE(accepted.ok()) << accepted.ToString();
        }
      }
      ASSERT_EQ(server->Seal().count, static_cast<std::int64_t>(fx.num_users));
      const WorkloadEstimate est =
          server->Estimate(EstimatorKind::kUnbiased).value();
      double sq = 0.0;
      for (int i = 0; i < num_queries; ++i) {
        const double answer = est.query_answers[i];
        ASSERT_TRUE(std::isfinite(answer));
        const double d = answer - expected[i];
        sq += d * d;
        mean_answers[i] += answer / fx.trials;
      }
      sq_errors.push_back(sq);
      if (trial == 0) trial0_answers = est.query_answers;
    }

    // Conformance: the mean observed total squared error is an unbiased
    // estimate of the analyzed variance E; its CLT band is 5 empirical
    // standard errors plus a 3% relative floor (the SE estimate itself is
    // noisy at T = 24 — relative SE of s is ~sqrt(1/(2T)) ~ 14%).
    double mean_mse = 0.0;
    for (const double sq : sq_errors) mean_mse += sq / fx.trials;
    double var_mse = 0.0;
    for (const double sq : sq_errors) {
      var_mse += (sq - mean_mse) * (sq - mean_mse) / (fx.trials - 1);
    }
    const double se = std::sqrt(var_mse / fx.trials);
    EXPECT_NEAR(mean_mse, analytic, 5.0 * se + 0.03 * analytic)
        << "empirical MSE disagrees with the analyzed variance";

    // Unbiasedness: Var(answer_i) <= E for every query, so 5·sqrt(E/T) is at
    // least a 5-standard-error band per coordinate.
    const double band = 5.0 * std::sqrt(analytic / fx.trials);
    for (int i = 0; i < num_queries; ++i) {
      EXPECT_NEAR(mean_answers[i], expected[i], band) << "query " << i;
    }

    // Collect parity: replay trial 0's pinned report stream through a
    // 2-shard session; the sealed estimate must match the one-shard one
    // (exactly for integer aggregates, up to fp commutation for dense).
    Rng replay(fx.seed * 7919);
    std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/2);
    int next_shard = 0;
    for (int u = 0; u < kDomain; ++u) {
      for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
        session->Accept(next_shard, client.Respond(u, replay));
        next_shard = (next_shard + 1) % 2;
      }
    }
    const EpochSnapshot sealed = session->Seal();
    EXPECT_EQ(sealed.count, static_cast<std::int64_t>(fx.num_users));
    const StatusOr<WorkloadEstimate> served =
        session->Estimate(EstimatorKind::kUnbiased);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(static_cast<int>(served.value().query_answers.size()),
              num_queries);
    for (int i = 0; i < num_queries; ++i) {
      const double a = trial0_answers[i];
      const double b = served.value().query_answers[i];
      if (client.dense_reports()) {
        EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(a))) << "query " << i;
      } else {
        EXPECT_EQ(a, b) << "query " << i;
      }
    }
  }
}

// ---- Affine debias property tests -----------------------------------------

TEST(AffineDebiasPropertyTest, NoiselessExpectedCountsInvertExactly) {
  // The debias x_hat = (y - N q 1)/(p - q) is the exact inverse of the
  // expectation map y = N q 1 + (p - q) x: on noiseless synthetic counts the
  // decode must reproduce x to floating-point accuracy, for any valid
  // (p, q, N) — this is what makes the decoder unbiased. Random grid from a
  // pinned seed (deterministic; the property is seed-independent).
  Rng rng(424242);
  for (int rep = 0; rep < 60; ++rep) {
    const int n = 1 + rng.UniformInt(24);
    const double q = rng.Uniform(0.0, 0.7);
    const double p = q + (1.0 - q) * rng.Uniform(0.05, 1.0);
    Vector x(n);
    double num_users = 0.0;
    for (int u = 0; u < n; ++u) {
      x[u] = static_cast<double>(rng.UniformInt(1000));
      num_users += x[u];
    }
    const std::int64_t count = static_cast<std::int64_t>(num_users);

    Vector y(n);
    for (int u = 0; u < n; ++u) y[u] = q * num_users + (p - q) * x[u];

    const ReportDecoder decoder(AffineDebias{p, q},
                                WorkloadStats::From(HistogramWorkload(n)));
    ASSERT_TRUE(decoder.needs_report_count());
    const Vector x_hat = decoder.EstimateDataVector(y, count);
    for (int u = 0; u < n; ++u) {
      // y is O(1e5) at worst and the gap p - q >= 0.05(1 - q), so the decode
      // loses < 1e-9 relative; 1e-6 absolute is a comfortable margin.
      EXPECT_NEAR(x_hat[u], x[u], 1e-6 * std::max(1.0, x[u]))
          << "rep " << rep << " coord " << u << " (p=" << p << ", q=" << q
          << ", N=" << count << ")";
    }
  }
}

TEST(AffineDebiasPropertyTest, MonteCarloUnbiasedOnRandomParameterGrid) {
  // End-to-end unbiasedness of encode (BitVectorReporter) -> aggregate ->
  // decode (AffineDebias) on a random (p, q) grid. Fixed seed 5150; per
  // coordinate the exact estimator variance is
  //   Var(x_hat_u) = [x_u p(1-p) + (N - x_u) q(1-q)] / (p - q)²,
  // so the 5·sqrt(Var/trials) band is a literal 5-standard-error test.
  Rng param_rng(5150);
  const int n = 6;
  const Vector truth{50, 0, 25, 10, 5, 10};
  const double num_users = Sum(truth);
  const int trials = 300;

  for (int rep = 0; rep < 4; ++rep) {
    const double q = param_rng.Uniform(0.05, 0.45);
    const double p = q + param_rng.Uniform(0.1, 0.5);
    ASSERT_LE(p, 1.0);
    const BitVectorReporter reporter(n, p, q);
    const ReportDecoder decoder(AffineDebias{p, q},
                                WorkloadStats::From(HistogramWorkload(n)));
    Rng rng(9000 + rep);

    Vector mean(n, 0.0);
    for (int t = 0; t < trials; ++t) {
      Vector y(n, 0.0);
      for (int u = 0; u < n; ++u) {
        for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
          const Report report = reporter.Respond(u, rng);
          ASSERT_TRUE(report.is_bits());
          for (int o = 0; o < n; ++o) y[o] += report.bits[o];
        }
      }
      const Vector x_hat = decoder.EstimateDataVector(
          y, static_cast<std::int64_t>(num_users));
      for (int u = 0; u < n; ++u) mean[u] += x_hat[u] / trials;
    }

    const double gap_sq = (p - q) * (p - q);
    for (int u = 0; u < n; ++u) {
      const double var = (truth[u] * p * (1.0 - p) +
                          (num_users - truth[u]) * q * (1.0 - q)) /
                         gap_sq;
      EXPECT_NEAR(mean[u], truth[u], 5.0 * std::sqrt(var / trials))
          << "rep " << rep << " coord " << u << " (p=" << p << ", q=" << q
          << ")";
    }
  }
}

TEST(AffineDebiasPropertyTest, DecoderRejectsMalformedInputsAsStatus) {
  const ReportDecoder decoder(AffineDebias{0.75, 0.25},
                              WorkloadStats::From(HistogramWorkload(4)));
  // Wrong aggregate dimension: a runtime-reachable condition (mismatched
  // snapshot / report stream), so Status — not a CHECK abort.
  const StatusOr<Vector> wrong_dim =
      decoder.TryEstimateDataVector(Vector(5, 0.0), /*num_reports=*/10);
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);

  const StatusOr<Vector> negative_count =
      decoder.TryEstimateDataVector(Vector(4, 0.0), /*num_reports=*/-1);
  ASSERT_FALSE(negative_count.ok());
  EXPECT_EQ(negative_count.status().code(), StatusCode::kInvalidArgument);

  // The same dimension check holds for linear decoders.
  const Matrix q = Matrix::Identity(4);
  const ReportDecoder linear({q}, WorkloadStats::From(HistogramWorkload(4)));
  EXPECT_EQ(linear.TryEstimateDataVector(Vector(3, 0.0), /*num_reports=*/0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // An empty collection decodes to zero (N = 0 pairs with y = 0).
  const Vector empty = decoder.EstimateDataVector(Vector(4, 0.0), 0);
  EXPECT_EQ(empty, Vector(4, 0.0));
}

}  // namespace
}  // namespace wfm

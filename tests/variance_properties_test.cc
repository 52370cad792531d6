// Cross-mechanism property tests of the paper's variance theory:
// the Theorem 5.1 sandwich for every baseline on every workload, sample
// complexity monotone in ε, quadratic scaling in the workload weight, and
// simulation-based unbiasedness for the structured baselines.

#include <cctype>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/factorization.h"
#include "estimation/decoder.h"
#include "ldp/protocol.h"
#include "linalg/rng.h"
#include "mechanisms/fourier.h"
#include "mechanisms/hierarchical.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"
#include "workload/dense_workload.h"
#include "workload/prefix.h"
#include "workload/workload.h"

namespace wfm {
namespace {

struct PropertyCase {
  std::string mechanism;
  std::string workload;
};

class BaselineWorkloadMatrix : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(BaselineWorkloadMatrix, Theorem51SandwichHolds) {
  const int n = 16;
  const double num_users = 100.0;
  for (double eps : {0.5, 1.0, 2.0}) {
    const auto created = CreateBaseline(GetParam().mechanism, n, eps);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    const auto& mech = created.value();
    const auto w = CreateWorkload(GetParam().workload, n);
    const WorkloadStats stats = WorkloadStats::From(*w);
    const ErrorProfile profile = mech->Analyze(stats);
    const double avg = num_users * profile.AverageUnitVariance();
    const double worst = num_users * profile.WorstUnitVariance();
    EXPECT_LE(avg, worst * (1 + 1e-9)) << "eps " << eps;
    // The sandwich is proven for factorization mechanisms; the additive-noise
    // Matrix Mechanism satisfies it trivially (avg == worst).
    EXPECT_LE(worst, std::exp(eps) * (avg + num_users / n * stats.frob_sq) + 1e-6)
        << "eps " << eps;
  }
}

TEST_P(BaselineWorkloadMatrix, SampleComplexityDecreasesInEpsilon) {
  const int n = 16;
  double prev = 1e300;
  for (double eps : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const auto created = CreateBaseline(GetParam().mechanism, n, eps);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    const auto& mech = created.value();
    const auto w = CreateWorkload(GetParam().workload, n);
    const double sc = mech->Analyze(WorkloadStats::From(*w)).SampleComplexity(0.01);
    EXPECT_LE(sc, prev * (1 + 1e-9)) << "eps " << eps;
    prev = sc;
  }
}

std::vector<PropertyCase> MakeMatrix() {
  std::vector<PropertyCase> cases;
  for (const char* m : {"Randomized Response", "Hadamard", "Hierarchical",
                        "Fourier", "Matrix Mechanism (L1)",
                        "Matrix Mechanism (L2)"}) {
    for (const char* w : {"Histogram", "Prefix", "AllRange", "Parity"}) {
      cases.push_back({m, w});
    }
  }
  return cases;
}

std::string MatrixCaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string name = info.param.mechanism + "_" + info.param.workload;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, BaselineWorkloadMatrix,
                         ::testing::ValuesIn(MakeMatrix()), MatrixCaseName);

TEST(VariancePropertiesTest, WorkloadWeightScalesVarianceQuadratically) {
  // Scaling the workload by c scales every variance by c² (importance
  // weighting semantics of Section 2.1).
  const int n = 8;
  const Matrix q =
      HierarchicalMechanism::BuildStrategy(n, 1.0, 2);
  auto base = std::make_shared<PrefixWorkload>(n);
  const StackedWorkload scaled({base}, {3.0});
  FactorizationAnalysis fa_base(q, WorkloadStats::From(*base));
  FactorizationAnalysis fa_scaled(q, WorkloadStats::From(scaled));
  for (int u = 0; u < n; ++u) {
    EXPECT_NEAR(fa_scaled.PerUserVariance()[u], 9.0 * fa_base.PerUserVariance()[u],
                1e-6 * fa_scaled.PerUserVariance()[u] + 1e-12);
  }
}

TEST(VariancePropertiesTest, HierarchicalSimulationUnbiased) {
  const int n = 8;
  const Matrix q = HierarchicalMechanism::BuildStrategy(n, 1.0, 2);
  const PrefixWorkload workload(n);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  FactorizationAnalysis fa(q, *shared_stats);
  const ReportDecoder decoder({fa.ReconstructionB()}, shared_stats);
  const Vector x{20, 10, 5, 15, 0, 30, 10, 10};
  const Vector truth = workload.Apply(x);
  Rng rng(171);
  const int trials = 500;
  Vector mean(n, 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const Vector answers =
        workload.Apply(decoder.EstimateDataVector(y, /*num_reports=*/100));
    for (int i = 0; i < n; ++i) mean[i] += answers[i] / trials;
  }
  const double band = 5.0 * std::sqrt(fa.Profile().DataVariance(x) / trials);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(mean[i], truth[i], band) << "query " << i;
}

TEST(VariancePropertiesTest, FourierSimulationUnbiased) {
  const int n = 8;
  const Matrix q = FourierMechanism::BuildStrategy(n, 1.0, -1);
  const auto workload = CreateWorkload("AllMarginals", n);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(*workload));
  FactorizationAnalysis fa(q, *shared_stats);
  const ReportDecoder decoder({fa.ReconstructionB()}, shared_stats);
  const Vector x{10, 20, 5, 0, 0, 15, 25, 25};
  const Vector truth = workload->Apply(x);
  Rng rng(172);
  const int trials = 500;
  Vector mean(truth.size(), 0.0);
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const Vector answers =
        workload->Apply(decoder.EstimateDataVector(y, /*num_reports=*/100));
    for (std::size_t i = 0; i < truth.size(); ++i) mean[i] += answers[i] / trials;
  }
  const double band = 5.0 * std::sqrt(fa.Profile().DataVariance(x) / trials);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(mean[i], truth[i], band) << "query " << i;
  }
}

TEST(VariancePropertiesTest, EmpiricalVarianceMatchesAnalyticForHadamard) {
  const int n = 6;
  const auto mech = CreateBaseline("Hadamard", n, 1.0);
  ASSERT_TRUE(mech.ok()) << mech.status().ToString();
  const auto* strat = dynamic_cast<const StrategyMechanism*>(mech.value().get());
  ASSERT_NE(strat, nullptr);
  const auto workload = CreateWorkload("Histogram", n);
  const Matrix& q = strat->strategy().factors[0];
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(*workload));
  FactorizationAnalysis fa(q, *shared_stats);
  const ReportDecoder decoder({fa.ReconstructionB()}, shared_stats);
  const Vector x{20, 30, 10, 15, 15, 10};
  const Vector truth = workload->Apply(x);
  Rng rng(173);
  const int trials = 3000;
  double total_sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(q, x, rng);
    const Vector answers =
        workload->Apply(decoder.EstimateDataVector(y, /*num_reports=*/100));
    for (int i = 0; i < n; ++i) {
      total_sq += std::pow(answers[i] - truth[i], 2);
    }
  }
  const double analytic = fa.Profile().DataVariance(x);
  EXPECT_NEAR(total_sq / trials, analytic, 0.1 * analytic);
}

}  // namespace
}  // namespace wfm

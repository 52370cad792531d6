// End-to-end integration tests: optimize a strategy, run the full LDP
// protocol on synthetic data, estimate workload answers, and verify the
// error against the analytic prediction — the complete deployment story.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/factorization.h"
#include "core/lower_bound.h"
#include "data/datasets.h"
#include "estimation/estimator.h"
#include "ldp/protocol.h"
#include "mechanisms/optimized.h"
#include "mechanisms/registry.h"
#include "workload/workload.h"

namespace wfm {
namespace {

OptimizerConfig TestConfig(int iterations = 200) {
  OptimizerConfig config;
  config.iterations = iterations;
  config.step_search_iterations = 25;
  config.seed = 17;
  return config;
}

TEST(IntegrationTest, OptimizeSimulateEstimatePrefix) {
  const int n = 16;
  const double eps = 1.0;
  const auto workload = CreateWorkload("Prefix", n);
  const WorkloadStats stats = WorkloadStats::From(*workload);

  const OptimizedMechanism mech(stats, eps, TestConfig());
  const FactorizationAnalysis fa(mech.strategy().factors[0], stats);
  const ReportDecoder decoder({fa.ReconstructionB()},
                              std::make_shared<const WorkloadStats>(stats));

  const Dataset data = MakeSyntheticDataset("HEPTH", n, 20000);
  const Vector truth = workload->Apply(data.histogram);
  const double analytic_var = fa.Profile().DataVariance(data.histogram);

  Rng rng(151);
  const int trials = 200;
  double total_sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(mech.strategy().factors[0],
                                               data.histogram, rng);
    const WorkloadEstimate est = EstimateWorkloadAnswers(
        decoder, *workload, y, static_cast<std::int64_t>(Sum(y)),
        EstimatorKind::kUnbiased);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      total_sq += std::pow(est.query_answers[i] - truth[i], 2);
    }
  }
  const double empirical = total_sq / trials;
  // 15% Monte-Carlo band around the Theorem 3.4 prediction.
  EXPECT_NEAR(empirical, analytic_var, 0.15 * analytic_var);
}

TEST(IntegrationTest, OptimizedBeatsEveryBaselineAcrossWorkloads) {
  // A compact version of Figure 1's headline finding at n = 16, eps = 1.
  const int n = 16;
  const double eps = 1.0;
  const double alpha = 0.01;
  for (const auto& wname : StandardWorkloadNames()) {
    const auto workload = CreateWorkload(wname, n);
    const WorkloadStats stats = WorkloadStats::From(*workload);
    const OptimizedMechanism optimized(stats, eps, TestConfig(350));
    const double opt_sc = optimized.Analyze(stats).SampleComplexity(alpha);

    double best_baseline = 1e300;
    for (const auto& mname : StandardBaselineNames()) {
      const auto mech = CreateBaseline(mname, n, eps);
      if (!mech.ok()) continue;  // e.g. Fourier off a power-of-two domain.
      best_baseline = std::min(
          best_baseline, mech.value()->Analyze(stats).SampleComplexity(alpha));
    }
    // Allow a 10% tolerance: the miniature optimizer budget is far below the
    // paper's, and ties occur at the RR-optimal end of the spectrum.
    EXPECT_LE(opt_sc, best_baseline * 1.10) << wname;
  }
}

TEST(IntegrationTest, OptimizedObjectiveAboveSvdBound) {
  const int n = 16;
  for (const auto& wname : StandardWorkloadNames()) {
    const auto workload = CreateWorkload(wname, n);
    const WorkloadStats stats = WorkloadStats::From(*workload);
    for (double eps : {0.5, 2.0}) {
      const OptimizedMechanism mech(stats, eps, TestConfig());
      const double objective = mech.optimizer_result().objective;
      EXPECT_GE(objective, ObjectiveLowerBound(stats.gram, eps) * (1 - 1e-9))
          << wname << " eps=" << eps;
    }
  }
}

TEST(IntegrationTest, CrossWorkloadAnalysisRuns) {
  // A strategy optimized for one workload can be analyzed on another (the
  // paper evaluates all fixed mechanisms this way); tuned-for wins.
  const int n = 16;
  const double eps = 1.0;
  const auto prefix = CreateWorkload("Prefix", n);
  const auto histogram = CreateWorkload("Histogram", n);
  const WorkloadStats prefix_stats = WorkloadStats::From(*prefix);
  const WorkloadStats histogram_stats = WorkloadStats::From(*histogram);

  const OptimizedMechanism for_prefix(prefix_stats, eps, TestConfig(300));
  const OptimizedMechanism for_histogram(histogram_stats, eps, TestConfig(300));

  const double tuned = for_prefix.Analyze(prefix_stats).SampleComplexity(0.01);
  const double transferred =
      for_histogram.Analyze(prefix_stats).SampleComplexity(0.01);
  EXPECT_LE(tuned, transferred * 1.05);
}

TEST(IntegrationTest, DataDependentCloseToWorstCase) {
  // Section 6.4: real-data sample complexity is well approximated by the
  // worst case (for Optimized the paper reports deviation ~1.01x at n=512;
  // the small-n gap is wider, so assert a loose factor 2 here).
  const int n = 16;
  const double eps = 1.0;
  const auto workload = CreateWorkload("Prefix", n);
  const WorkloadStats stats = WorkloadStats::From(*workload);
  const OptimizedMechanism mech(stats, eps, TestConfig());
  const ErrorProfile profile = mech.Analyze(stats);

  for (const auto& dname : BenchmarkDatasetNames()) {
    const Dataset data = MakeSyntheticDataset(dname, n, 100000);
    const double on_data = profile.SampleComplexityOnData(data.histogram, 0.01);
    const double worst = profile.SampleComplexity(0.01);
    EXPECT_LE(on_data, worst + 1e-9) << dname;
    EXPECT_GE(on_data, worst / 2.0) << dname;
  }
}

TEST(IntegrationTest, WnnlsNeverIncreasesErrorMuchAndHelpsWhenSparse) {
  const int n = 16;
  const double eps = 1.0;
  const auto workload = CreateWorkload("Prefix", n);
  const WorkloadStats stats = WorkloadStats::From(*workload);
  const OptimizedMechanism mech(stats, eps, TestConfig());
  const FactorizationAnalysis fa(mech.strategy().factors[0], stats);
  const ReportDecoder decoder({fa.ReconstructionB()},
                              std::make_shared<const WorkloadStats>(stats));

  // Sparse low-N data: the regime where consistency helps (Figure 4).
  const Dataset data = SampleUsers(MakeSyntheticDataset("HEPTH", n, 100000), 500, 9);
  const Vector truth = workload->Apply(data.histogram);

  Rng rng(152);
  double err_unbiased = 0.0, err_wnnls = 0.0;
  const int trials = 120;
  for (int t = 0; t < trials; ++t) {
    const Vector y = SimulateResponseHistogram(mech.strategy().factors[0],
                                               data.histogram, rng);
    const std::int64_t count = static_cast<std::int64_t>(Sum(y));
    const auto unbiased = EstimateWorkloadAnswers(
        decoder, *workload, y, count, EstimatorKind::kUnbiased);
    const auto consistent = EstimateWorkloadAnswers(
        decoder, *workload, y, count, EstimatorKind::kWnnls);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      err_unbiased += std::pow(unbiased.query_answers[i] - truth[i], 2);
      err_wnnls += std::pow(consistent.query_answers[i] - truth[i], 2);
    }
  }
  EXPECT_LT(err_wnnls, err_unbiased);
}

}  // namespace
}  // namespace wfm

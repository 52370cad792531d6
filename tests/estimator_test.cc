// Tests for the estimation pipeline facade.

#include "estimation/estimator.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/projection.h"
#include "ldp/protocol.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

TEST(EstimatorTest, ShapesMatchWorkload) {
  const int n = 6;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  const PrefixWorkload workload(n);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  const FactorizationAnalysis analysis(q, *shared_stats);
  const ReportDecoder decoder({analysis.ReconstructionB()}, shared_stats);
  Rng rng(161);
  const Vector y = SimulateResponseHistogram(q, {10, 20, 5, 0, 3, 2}, rng);
  for (auto kind : {EstimatorKind::kUnbiased, EstimatorKind::kWnnls}) {
    const WorkloadEstimate est = EstimateWorkloadAnswers(
        decoder, workload, y, static_cast<std::int64_t>(Sum(y)), kind);
    EXPECT_EQ(static_cast<int>(est.data_vector.size()), n);
    EXPECT_EQ(est.query_answers.size(),
              static_cast<std::size_t>(workload.num_queries()));
  }
}

TEST(EstimatorTest, WnnlsAnswersAreConsistent) {
  // WNNLS answers must equal W applied to a single non-negative data vector:
  // e.g. prefix answers must be monotone non-decreasing.
  const int n = 8;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 0.5);
  const PrefixWorkload workload(n);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  const FactorizationAnalysis analysis(q, *shared_stats);
  const ReportDecoder decoder({analysis.ReconstructionB()}, shared_stats);
  Rng rng(162);
  for (int trial = 0; trial < 10; ++trial) {
    const Vector y = SimulateResponseHistogram(q, {5, 0, 0, 3, 0, 0, 0, 2}, rng);
    const WorkloadEstimate est = EstimateWorkloadAnswers(
        decoder, workload, y, static_cast<std::int64_t>(Sum(y)),
        EstimatorKind::kWnnls);
    for (double v : est.data_vector) EXPECT_GE(v, -1e-9);
    for (int i = 1; i < n; ++i) {
      EXPECT_GE(est.query_answers[i], est.query_answers[i - 1] - 1e-9);
    }
  }
}

TEST(EstimatorTest, UnbiasedAnswersCanBeInconsistent) {
  // The raw estimator has no consistency guarantee in the low-data regime —
  // that is exactly Remark 1's motivation. Verify we can observe a negative
  // data-vector estimate (statistically certain over 50 sparse trials).
  const int n = 8;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 0.5);
  const HistogramWorkload workload(n);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(workload));
  const FactorizationAnalysis analysis(q, *shared_stats);
  const ReportDecoder decoder({analysis.ReconstructionB()}, shared_stats);
  Rng rng(163);
  bool saw_negative = false;
  for (int trial = 0; trial < 50 && !saw_negative; ++trial) {
    const Vector y = SimulateResponseHistogram(q, {9, 1, 0, 0, 0, 0, 0, 0}, rng);
    const WorkloadEstimate est = EstimateWorkloadAnswers(
        decoder, workload, y, static_cast<std::int64_t>(Sum(y)),
        EstimatorKind::kUnbiased);
    for (double v : est.data_vector) {
      if (v < 0) saw_negative = true;
    }
  }
  EXPECT_TRUE(saw_negative);
}

TEST(EstimatorDeathTest, WorkloadDomainMismatch) {
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(4, 1.0);
  const auto shared_stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(HistogramWorkload(4)));
  const FactorizationAnalysis analysis(q, *shared_stats);
  const ReportDecoder decoder({analysis.ReconstructionB()}, shared_stats);
  const PrefixWorkload other(5);
  const Vector y(4, 1.0);
  EXPECT_DEATH(
      EstimateWorkloadAnswers(decoder, other, y, 4, EstimatorKind::kUnbiased),
      "WFM_CHECK");
}

}  // namespace
}  // namespace wfm

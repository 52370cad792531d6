// Tests for the Subset Selection mechanism.

#include "mechanisms/subset_selection.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "workload/histogram.h"
#include "workload/marginals.h"

namespace wfm {
namespace {

TEST(SubsetSelectionTest, RecommendedSubsetSize) {
  // d ≈ n/(e^ε + 1).
  SubsetSelectionMechanism m(20, 1.0);
  EXPECT_EQ(m.subset_size(),
            static_cast<int>(std::lround(20 / (std::exp(1.0) + 1.0))));
  // Never below 1 even at huge ε.
  SubsetSelectionMechanism tiny(4, 8.0);
  EXPECT_EQ(tiny.subset_size(), 1);
}

TEST(SubsetSelectionTest, ExplicitStrategyIsValidLdp) {
  for (double eps : {0.5, 1.0, 2.0}) {
    SubsetSelectionMechanism m(8, eps);
    const Matrix q = SubsetSelectionMechanism::BuildExplicitStrategy(
        8, eps, m.subset_size());
    EXPECT_EQ(q.rows(), static_cast<int>(BinomialCoefficient(8, m.subset_size())));
    const StrategyValidation v = ValidateStrategy(q, eps, 1e-9);
    EXPECT_TRUE(v.valid) << "eps=" << eps << ": " << v.ToString();
  }
}

TEST(SubsetSelectionTest, AnalysisBeatsRandomizedResponseOnHistogram) {
  // Ye & Barg: subset selection is order-optimal for histogram estimation;
  // at moderate ε and n it clearly beats randomized response.
  const int n = 10;
  const double eps = 1.0;
  SubsetSelectionMechanism subset(n, eps);
  ASSERT_TRUE(subset.SupportsAnalysis());
  const WorkloadStats stats = WorkloadStats::From(HistogramWorkload(n));
  const double subset_sc = subset.Analyze(stats).SampleComplexity(0.01);

  // Closed-form RR sample complexity (Example 5.5).
  const double e = std::exp(eps);
  const double rr_sc =
      (n - 1.0) / (0.01 * n) * (n / ((e - 1) * (e - 1)) + 2 / (e - 1));
  EXPECT_LT(subset_sc, rr_sc);
}

TEST(SubsetSelectionTest, RefusesAnalysisWhenExponential) {
  SubsetSelectionMechanism m(64, 1.0);
  EXPECT_FALSE(m.SupportsAnalysis());
  EXPECT_DEATH(m.Analyze(WorkloadStats::From(HistogramWorkload(64))), "rows");
}

}  // namespace
}  // namespace wfm

// Tests for the OptimizedMechanism wrapper: baseline seeding guarantees,
// diagnostics, and cross-epsilon behaviour.

#include "mechanisms/optimized.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/objective.h"
#include "core/strategy.h"
#include "mechanisms/hadamard_response.h"
#include "mechanisms/randomized_response.h"
#include "workload/parity.h"
#include "workload/workload.h"

namespace wfm {
namespace {

OptimizerConfig FastConfig() {
  OptimizerConfig config;
  config.iterations = 100;
  config.step_search_iterations = 20;
  config.seed = 3;
  return config;
}

TEST(OptimizedMechanismTest, NeverWorseThanSeededBaselines) {
  // The default seeds include RR and Hadamard; by best-iterate tracking the
  // result can never have a larger objective than either, even with a tiny
  // iteration budget.
  for (const char* wname : {"Histogram", "Prefix", "AllRange"}) {
    for (double eps : {0.5, 1.0, 4.0}) {
      const auto w = CreateWorkload(wname, 8);
      const WorkloadStats stats = WorkloadStats::From(*w);
      const OptimizedMechanism mech(stats, eps, FastConfig());
      const double rr = EvalObjective(
          RandomizedResponseMechanism::BuildStrategy(8, eps), stats.gram);
      const double had = EvalObjective(
          HadamardResponseMechanism::BuildStrategy(8, eps), stats.gram);
      EXPECT_LE(mech.optimizer_result().objective, rr + 1e-9)
          << wname << " eps=" << eps;
      EXPECT_LE(mech.optimizer_result().objective, had + 1e-9)
          << wname << " eps=" << eps;
    }
  }
}

TEST(OptimizedMechanismTest, ResultIsValidStrategyAcrossEpsilons) {
  const auto w = CreateWorkload("Prefix", 8);
  const WorkloadStats stats = WorkloadStats::From(*w);
  for (double eps : {0.1, 1.0, 6.0}) {
    const OptimizedMechanism mech(stats, eps, FastConfig());
    EXPECT_TRUE(ValidateStrategy(mech.strategy().factors[0], eps, 1e-6).valid)
        << "eps " << eps;
  }
}

TEST(OptimizedMechanismTest, RecordsTargetWorkload) {
  const auto w = CreateWorkload("AllRange", 8);
  const OptimizedMechanism mech(WorkloadStats::From(*w), 1.0, FastConfig());
  EXPECT_EQ(mech.target_workload(), "AllRange");
  EXPECT_EQ(mech.Name(), "Optimized");
  EXPECT_EQ(mech.domain_size(), 8);
}

TEST(OptimizedMechanismTest, CustomSeedsReplaceDefaults) {
  const auto w = CreateWorkload("Histogram", 8);
  const WorkloadStats stats = WorkloadStats::From(*w);
  OptimizerConfig config = FastConfig();
  config.seed_strategies = {RandomizedResponseMechanism::BuildStrategy(8, 1.0)};
  const OptimizedMechanism mech(stats, 1.0, config);
  const double rr = EvalObjective(
      RandomizedResponseMechanism::BuildStrategy(8, 1.0), stats.gram);
  EXPECT_LE(mech.optimizer_result().objective, rr + 1e-9);
}

TEST(OptimizedMechanismTest, SampleComplexityDecreasesWithEpsilon) {
  const auto w = CreateWorkload("Prefix", 8);
  const WorkloadStats stats = WorkloadStats::From(*w);
  double prev = 1e300;
  for (double eps : {0.5, 1.0, 2.0, 4.0}) {
    const OptimizedMechanism mech(stats, eps, FastConfig());
    const double sc = mech.Analyze(stats).SampleComplexity(0.01);
    EXPECT_LT(sc, prev) << "eps " << eps;
    prev = sc;
  }
}

TEST(OptimizedMechanismTest, MatchesRandomizedResponseAtHugeEpsilon) {
  // Section 6.2: at very large eps randomized response is optimal; the
  // optimized mechanism must converge to its performance.
  const int n = 8;
  const double eps = 8.0;
  const auto w = CreateWorkload("Histogram", n);
  const WorkloadStats stats = WorkloadStats::From(*w);
  const OptimizedMechanism mech(stats, eps, FastConfig());
  const double rr_sc = RandomizedResponseMechanism::HistogramSampleComplexityClosedForm(
      n, eps, 0.01);
  const double opt_sc = mech.Analyze(stats).SampleComplexity(0.01);
  EXPECT_LE(opt_sc, rr_sc * 1.001);
  EXPECT_GE(opt_sc, rr_sc * 0.5);  // And not absurdly below (sanity).
}

TEST(OptimizedMechanismTest, WorksOnRankDeficientWorkload) {
  // Weight-limited parity has a singular Gram matrix; the optimizer and the
  // analysis must handle rank-deficient G.
  const auto w = std::make_unique<ParityWorkload>(16, 1);
  const WorkloadStats stats = WorkloadStats::From(*w);
  const OptimizedMechanism mech(stats, 1.0, FastConfig());
  const ErrorProfile profile = mech.Analyze(stats);
  EXPECT_GT(profile.WorstUnitVariance(), 0.0);
  EXPECT_TRUE(std::isfinite(profile.SampleComplexity(0.01)));
}

}  // namespace
}  // namespace wfm

// Tests for strategy matrix validation (Proposition 2.6).

#include "core/strategy.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "mechanisms/randomized_response.h"

namespace wfm {
namespace {

TEST(ValidateStrategyTest, AcceptsRandomizedResponse) {
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(5, 1.0);
  const StrategyValidation v = ValidateStrategy(q, 1.0);
  EXPECT_TRUE(v.valid) << v.ToString();
  EXPECT_NEAR(v.min_epsilon, 1.0, 1e-12);
}

TEST(ValidateStrategyTest, RejectsBudgetViolation) {
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(5, 2.0);
  // A strategy built for eps=2 is not 1-LDP.
  EXPECT_FALSE(ValidateStrategy(q, 1.0).valid);
  EXPECT_TRUE(ValidateStrategy(q, 2.0).valid);
}

TEST(ValidateStrategyTest, RejectsNegativeEntries) {
  Matrix q{{0.6, 0.5}, {0.5, 0.6}};
  q(0, 0) = -0.1;
  q(1, 0) = 1.1;
  const StrategyValidation v = ValidateStrategy(q, 10.0);
  EXPECT_FALSE(v.valid);
  EXPECT_GT(v.max_negativity, 0.0);
}

TEST(ValidateStrategyTest, RejectsBadColumnSums) {
  Matrix q{{0.5, 0.5}, {0.4, 0.5}};  // First column sums to 0.9.
  const StrategyValidation v = ValidateStrategy(q, 10.0);
  EXPECT_FALSE(v.valid);
  EXPECT_NEAR(v.max_column_sum_error, 0.1, 1e-12);
}

TEST(MinimumEpsilonTest, UniformRowIsZero) {
  Matrix q{{0.5, 0.5}, {0.5, 0.5}};
  EXPECT_EQ(MinimumEpsilon(q), 0.0);
}

TEST(MinimumEpsilonTest, MatchesConstruction) {
  for (double eps : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    const Matrix q = RandomizedResponseMechanism::BuildStrategy(8, eps);
    EXPECT_NEAR(MinimumEpsilon(q), eps, 1e-10) << "eps = " << eps;
  }
}

TEST(MinimumEpsilonTest, MixedZeroRowIsInfinite) {
  Matrix q{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_TRUE(std::isinf(MinimumEpsilon(q)));
}

TEST(MinimumEpsilonTest, AllZeroRowIgnored) {
  // An output that never occurs imposes no constraint.
  Matrix q{{0.5, 0.5}, {0.5, 0.5}, {0.0, 0.0}};
  EXPECT_EQ(MinimumEpsilon(q), 0.0);
}

}  // namespace
}  // namespace wfm

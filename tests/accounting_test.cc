// Tests for privacy budget accounting.

#include "core/accounting.h"

#include <gtest/gtest.h>

namespace wfm {
namespace {

TEST(PrivacyAccountantTest, TracksSpending) {
  PrivacyAccountant acct(2.0);
  EXPECT_DOUBLE_EQ(acct.remaining(), 2.0);
  EXPECT_TRUE(acct.CanSpend(1.0));
  acct.Spend(1.0);
  EXPECT_DOUBLE_EQ(acct.spent(), 1.0);
  EXPECT_DOUBLE_EQ(acct.remaining(), 1.0);
  acct.Spend(0.5);
  EXPECT_EQ(acct.collections().size(), 2u);
  EXPECT_FALSE(acct.CanSpend(0.6));
  EXPECT_TRUE(acct.CanSpend(0.5));
}

TEST(PrivacyAccountantTest, RejectsNonPositiveSpend) {
  PrivacyAccountant acct(1.0);
  EXPECT_FALSE(acct.CanSpend(0.0));
  EXPECT_FALSE(acct.CanSpend(-0.5));
}

TEST(PrivacyAccountantDeathTest, OverspendAborts) {
  PrivacyAccountant acct(1.0);
  acct.Spend(0.8);
  EXPECT_DEATH(acct.Spend(0.3), "over budget");
}

}  // namespace
}  // namespace wfm

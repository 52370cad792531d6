// Tests for domain bucketization.

#include "data/bucketizer.h"

#include <gtest/gtest.h>

namespace wfm {
namespace {

TEST(UniformBucketizerTest, BasicMapping) {
  UniformBucketizer b(0.0, 100.0, 10);
  EXPECT_EQ(b.num_buckets(), 10);
  EXPECT_EQ(b.BucketOf(0.0), 0);
  EXPECT_EQ(b.BucketOf(5.0), 0);
  EXPECT_EQ(b.BucketOf(10.0), 1);
  EXPECT_EQ(b.BucketOf(99.9), 9);
  EXPECT_EQ(b.BucketOf(100.0), 9);
}

TEST(UniformBucketizerTest, ClampsOutOfRange) {
  UniformBucketizer b(10.0, 20.0, 5);
  EXPECT_EQ(b.BucketOf(-100.0), 0);
  EXPECT_EQ(b.BucketOf(1000.0), 4);
}

TEST(UniformBucketizerTest, BoundsPartitionRange) {
  UniformBucketizer b(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(b.LowerBound(0), 0.0);
  EXPECT_DOUBLE_EQ(b.UpperBound(0), 0.25);
  EXPECT_DOUBLE_EQ(b.LowerBound(3), 0.75);
  EXPECT_DOUBLE_EQ(b.UpperBound(3), 1.0);
  // Each value lands in the bucket whose bounds contain it.
  for (double v : {0.1, 0.3, 0.6, 0.99}) {
    const int bucket = b.BucketOf(v);
    EXPECT_GE(v, b.LowerBound(bucket));
    EXPECT_LT(v, b.UpperBound(bucket));
  }
}

TEST(UniformBucketizerDeathTest, BadArguments) {
  EXPECT_DEATH(UniformBucketizer(1.0, 1.0, 5), "WFM_CHECK");
  EXPECT_DEATH(UniformBucketizer(0.0, 1.0, 0), "WFM_CHECK");
}

}  // namespace
}  // namespace wfm

#include "data/bucketizer.h"

#include <algorithm>

namespace wfm {

UniformBucketizer::UniformBucketizer(double lo, double hi, int buckets)
    : lo_(lo), hi_(hi), buckets_(buckets) {
  WFM_CHECK_LT(lo, hi);
  WFM_CHECK_GT(buckets, 0);
}

int UniformBucketizer::BucketOf(double value) const {
  if (value <= lo_) return 0;
  if (value >= hi_) return buckets_ - 1;
  const int b = static_cast<int>((value - lo_) / (hi_ - lo_) * buckets_);
  return std::min(b, buckets_ - 1);
}

double UniformBucketizer::LowerBound(int bucket) const {
  WFM_CHECK(bucket >= 0 && bucket < buckets_);
  return lo_ + (hi_ - lo_) * bucket / buckets_;
}

double UniformBucketizer::UpperBound(int bucket) const {
  WFM_CHECK(bucket >= 0 && bucket < buckets_);
  return lo_ + (hi_ - lo_) * (bucket + 1) / buckets_;
}

}  // namespace wfm

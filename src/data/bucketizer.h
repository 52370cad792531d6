// Domain bucketization: mapping raw user values onto the finite type domain
// [0, n) that LDP strategy matrices operate over.
//
// Section 6.6 of the paper recommends running mechanisms on small domains,
// "compressing if necessary" — in practice every deployment over a numeric
// attribute needs exactly this step. UniformBucketizer cuts [lo, hi] into
// equal-width bins.

#ifndef WFM_DATA_BUCKETIZER_H_
#define WFM_DATA_BUCKETIZER_H_

#include "common/check.h"

namespace wfm {

class UniformBucketizer {
 public:
  UniformBucketizer(double lo, double hi, int buckets);

  int num_buckets() const { return buckets_; }

  /// Maps a raw value to its bucket in [0, num_buckets()). Values outside
  /// [lo, hi] clamp to the first/last bucket.
  int BucketOf(double value) const;

  /// Inclusive-exclusive bounds [lower, upper) of a bucket (the last bucket
  /// is inclusive of hi).
  double LowerBound(int bucket) const;
  double UpperBound(int bucket) const;

 private:
  double lo_;
  double hi_;
  int buckets_;
};

}  // namespace wfm

#endif  // WFM_DATA_BUCKETIZER_H_

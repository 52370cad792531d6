// Build smoke test: includes the public umbrella header and instantiates one
// object from every module, so any header breakage (missing include, ODR
// clash, signature drift) fails fast in CI before the full suites run.

#include "wfm.h"

#include <gtest/gtest.h>

namespace wfm {
namespace {

TEST(SmokeBuildTest, UmbrellaHeaderCoversEveryModule) {
  // common
  Stopwatch stopwatch;
  TablePrinter table({"col"});
  (void)table;

  // linalg
  Rng rng(42);
  Matrix identity = Matrix::Identity(4);
  EXPECT_EQ(identity.rows(), 4);
  EXPECT_GE(rng.NextDouble(), 0.0);

  // workload
  HistogramWorkload histogram(4);
  EXPECT_EQ(histogram.domain_size(), 4);
  const std::unique_ptr<Workload> product =
      ParseWorkload("Prefix(4)xPrefix(4)");
  EXPECT_EQ(product->domain_size(), 16);

  // data
  UniformBucketizer bucketizer(0.0, 1.0, 4);
  EXPECT_EQ(bucketizer.num_buckets(), 4);

  // core
  PrivacyAccountant accountant(1.0);
  EXPECT_TRUE(accountant.CanSpend(0.5));

  // mechanisms
  RandomizedResponseMechanism rr(4, 1.0);
  EXPECT_EQ(rr.Name(), "Randomized Response");

  // ldp
  LocalRandomizer randomizer(RandomizedResponseMechanism::BuildStrategy(4, 1.0));
  int response = randomizer.Respond(0, rng);
  EXPECT_GE(response, 0);
  EXPECT_LT(response, randomizer.num_outputs());

  // estimation
  WnnlsOptions wnnls_options;
  (void)wnnls_options;

  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace wfm

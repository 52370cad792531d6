// Tests for the synthetic dataset generators.

#include "data/datasets.h"

#include <cmath>

#include <gtest/gtest.h>

namespace wfm {
namespace {

TEST(DatasetsTest, BenchmarkNames) {
  const auto names = BenchmarkDatasetNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "HEPTH");
}

class AllDatasets : public ::testing::TestWithParam<std::string> {};

TEST_P(AllDatasets, ExactUserCountAndNonNegative) {
  const Dataset d = MakeSyntheticDataset(GetParam(), 128, 10000);
  EXPECT_EQ(d.domain_size(), 128);
  EXPECT_NEAR(d.num_users(), 10000.0, 1e-9);
  for (double v : d.histogram) {
    EXPECT_GE(v, 0.0);
    EXPECT_EQ(v, std::floor(v)) << "counts must be integral";
  }
}

TEST_P(AllDatasets, DeterministicForSeed) {
  const Dataset a = MakeSyntheticDataset(GetParam(), 64, 5000, 7);
  const Dataset b = MakeSyntheticDataset(GetParam(), 64, 5000, 7);
  EXPECT_EQ(a.histogram, b.histogram);
}

INSTANTIATE_TEST_SUITE_P(Names, AllDatasets,
                         ::testing::Values("HEPTH", "MEDCOST", "NETTRACE",
                                           "UNIFORM", "GAUSSMIX"));

TEST(DatasetsTest, HepthIsHeadHeavy) {
  const Dataset d = MakeSyntheticDataset("HEPTH", 256, 100000);
  // Power law: first 10% of bins hold most of the mass.
  double head = 0.0;
  for (int i = 0; i < 26; ++i) head += d.histogram[i];
  EXPECT_GT(head / d.num_users(), 0.5);
  // Monotone-ish decay: first bin is the largest.
  for (int i = 1; i < 256; ++i) EXPECT_LE(d.histogram[i], d.histogram[0]);
}

TEST(DatasetsTest, MedcostHasZeroSpike) {
  const Dataset d = MakeSyntheticDataset("MEDCOST", 256, 100000);
  EXPECT_NEAR(d.histogram[0] / d.num_users(), 0.25, 0.01);
}

TEST(DatasetsTest, NettraceIsSparse) {
  const Dataset d = MakeSyntheticDataset("NETTRACE", 512, 100000);
  int tiny_bins = 0;
  for (double v : d.histogram) {
    if (v <= d.num_users() * 0.001) ++tiny_bins;
  }
  // Most bins carry almost nothing.
  EXPECT_GT(tiny_bins, 256);
}

TEST(DatasetsTest, UniformIsFlat) {
  const Dataset d = MakeSyntheticDataset("UNIFORM", 100, 10000);
  for (double v : d.histogram) EXPECT_NEAR(v, 100.0, 1.0);
}

TEST(DatasetsTest, SampleUsersPreservesTotal) {
  const Dataset base = MakeSyntheticDataset("HEPTH", 64, 100000);
  const Dataset sampled = SampleUsers(base, 1000, 3);
  EXPECT_NEAR(sampled.num_users(), 1000.0, 1e-9);
  EXPECT_EQ(sampled.domain_size(), 64);
}

TEST(DatasetsDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakeSyntheticDataset("NOPE", 16, 100), "unknown dataset");
}

}  // namespace
}  // namespace wfm

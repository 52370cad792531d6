// Tests for the distributed Matrix Mechanism baselines.

#include "mechanisms/matrix_mechanism.h"

#include <cmath>

#include <gtest/gtest.h>

#include "workload/workload.h"

namespace wfm {
namespace {

TEST(MatrixMechanismTest, L1SensitivityOfIdentity) {
  // One-hot columns differ by 2 in L1.
  EXPECT_NEAR(MatrixMechanism::L1Sensitivity(Matrix::Identity(6)), 2.0, 1e-12);
}

TEST(MatrixMechanismTest, L2SensitivityOfIdentity) {
  EXPECT_NEAR(MatrixMechanism::L2Sensitivity(Matrix::Identity(6)), std::sqrt(2.0),
              1e-12);
}

TEST(MatrixMechanismTest, SensitivitiesOnKnownMatrix) {
  // Columns: (1,0), (0,3). L1 distance 4, L2 distance sqrt(10).
  Matrix a{{1, 0}, {0, 3}};
  EXPECT_NEAR(MatrixMechanism::L1Sensitivity(a), 4.0, 1e-12);
  EXPECT_NEAR(MatrixMechanism::L2Sensitivity(a), std::sqrt(10.0), 1e-12);
}

TEST(MatrixMechanismTest, L2LeqL1) {
  const Matrix tree = MatrixMechanism::HierarchicalTreeStrategy(16);
  EXPECT_LE(MatrixMechanism::L2Sensitivity(tree),
            MatrixMechanism::L1Sensitivity(tree) + 1e-12);
}

TEST(MatrixMechanismTest, TreeStrategySpansDomain) {
  const Matrix tree = MatrixMechanism::HierarchicalTreeStrategy(10);
  // Leaf level present: every unit vector reachable -> AᵀA nonsingular.
  const Matrix ata = MultiplyATB(tree, tree);
  // All diagonal entries at least 1 (the leaf row).
  for (int i = 0; i < 10; ++i) EXPECT_GE(ata(i, i), 1.0);
}

TEST(MatrixMechanismTest, LaplaceNoiseVariance) {
  MatrixMechanism mm(4, 2.0, MatrixMechanism::NoiseType::kLaplaceL1);
  // Var(Laplace(b)) = 2b², b = sens/eps.
  EXPECT_NEAR(mm.NoiseVariance(3.0), 2.0 * (3.0 / 2.0) * (3.0 / 2.0), 1e-12);
}

TEST(MatrixMechanismTest, GaussianNoiseVariance) {
  const double delta = 1e-9;
  MatrixMechanism mm(4, 1.0, MatrixMechanism::NoiseType::kGaussianL2, delta);
  const double sigma = 2.0 * std::sqrt(2.0 * std::log(1.25 / delta)) / 1.0;
  EXPECT_NEAR(mm.NoiseVariance(2.0), sigma * sigma, 1e-9);
}

TEST(MatrixMechanismTest, ProfileIsDataIndependent) {
  const auto w = CreateWorkload("Prefix", 16);
  const WorkloadStats stats = WorkloadStats::From(*w);
  MatrixMechanism mm(16, 1.0, MatrixMechanism::NoiseType::kLaplaceL1);
  const ErrorProfile profile = mm.Analyze(stats);
  for (double phi : profile.phi) {
    EXPECT_DOUBLE_EQ(phi, profile.phi[0]);
  }
  EXPECT_NEAR(profile.WorstUnitVariance(), profile.AverageUnitVariance(), 1e-12);
}

TEST(MatrixMechanismTest, ChoosesCoveringStrategy) {
  for (const char* name : {"Histogram", "Prefix", "AllRange", "Parity"}) {
    const auto w = CreateWorkload(name, 16);
    const WorkloadStats stats = WorkloadStats::From(*w);
    for (auto type : {MatrixMechanism::NoiseType::kLaplaceL1,
                      MatrixMechanism::NoiseType::kGaussianL2}) {
      MatrixMechanism mm(16, 1.0, type);
      const auto choice = mm.ChooseStrategy(stats).value();
      EXPECT_TRUE(std::isfinite(choice.unit_variance)) << name;
      EXPECT_GT(choice.unit_variance, 0.0) << name;
      EXPECT_FALSE(choice.description.empty());
    }
  }
}

TEST(MatrixMechanismTest, StrategySelectionNoWorseThanIdentity) {
  // The argmin over candidates must be at least as good as the identity
  // candidate alone.
  const auto w = CreateWorkload("Prefix", 16);
  const WorkloadStats stats = WorkloadStats::From(*w);
  MatrixMechanism mm(16, 1.0, MatrixMechanism::NoiseType::kLaplaceL1);
  const auto choice = mm.ChooseStrategy(stats).value();

  const Matrix identity = Matrix::Identity(16);
  const double id_sens = MatrixMechanism::L1Sensitivity(identity);
  // Identity: tr[(I)† G] = tr(G).
  const double id_unit = mm.NoiseVariance(id_sens) * stats.gram.Trace();
  EXPECT_LE(choice.unit_variance, id_unit + 1e-9);
}

TEST(MatrixMechanismTest, L2ConstantSampleComplexityOnHistogram) {
  // On Histogram the L2 MM's sample complexity is ~flat in n (Figure 2's
  // "almost no dependence on domain size" finding).
  auto sc = [](int n) {
    const auto w = CreateWorkload("Histogram", n);
    const WorkloadStats stats = WorkloadStats::From(*w);
    MatrixMechanism mm(n, 1.0, MatrixMechanism::NoiseType::kGaussianL2);
    return mm.Analyze(stats).SampleComplexity(0.01);
  };
  EXPECT_NEAR(sc(8) / sc(64), 1.0, 0.05);
}

TEST(MatrixMechanismTest, GaussianCalibrationMonotoneInDelta) {
  const auto w = CreateWorkload("Histogram", 8);
  const WorkloadStats stats = WorkloadStats::From(*w);
  MatrixMechanism loose(8, 1.0, MatrixMechanism::NoiseType::kGaussianL2, 1e-3);
  MatrixMechanism tight(8, 1.0, MatrixMechanism::NoiseType::kGaussianL2, 1e-12);
  EXPECT_LT(loose.Analyze(stats).WorstUnitVariance(),
            tight.Analyze(stats).WorstUnitVariance());
}

}  // namespace
}  // namespace wfm

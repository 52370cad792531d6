// Property tests: Moore-Penrose axioms, spectral functions, PSD solves.

#include "linalg/pseudo_inverse.h"

#include <gtest/gtest.h>

#include "linalg/rng.h"

namespace wfm {
namespace {

/// Random symmetric PSD matrix of the given rank.
Matrix RandomPsdOfRank(int n, int rank, Rng& rng) {
  Matrix b(n, rank);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < rank; ++c) b(r, c) = rng.Uniform(-1.0, 1.0);
  }
  return MultiplyABT(b, b);
}

struct RankCase {
  int n;
  int rank;
};

class PseudoInverseRanks : public ::testing::TestWithParam<RankCase> {};

TEST_P(PseudoInverseRanks, MoorePenroseAxioms) {
  Rng rng(41 + GetParam().n * 7 + GetParam().rank);
  const Matrix a = RandomPsdOfRank(GetParam().n, GetParam().rank, rng);
  const Matrix p = SymmetricPseudoInverse(a);

  const Matrix apa = Multiply(Multiply(a, p), a);
  EXPECT_TRUE(apa.ApproxEquals(a, 1e-8)) << "A P A = A";

  const Matrix pap = Multiply(Multiply(p, a), p);
  EXPECT_TRUE(pap.ApproxEquals(p, 1e-8)) << "P A P = P";

  const Matrix ap = Multiply(a, p);
  EXPECT_TRUE(ap.ApproxEquals(ap.Transpose(), 1e-8)) << "(AP) symmetric";

  const Matrix pa = Multiply(p, a);
  EXPECT_TRUE(pa.ApproxEquals(pa.Transpose(), 1e-8)) << "(PA) symmetric";
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, PseudoInverseRanks,
    ::testing::Values(RankCase{1, 1}, RankCase{4, 4}, RankCase{6, 3},
                      RankCase{10, 1}, RankCase{12, 12}, RankCase{16, 9},
                      RankCase{25, 20}));

TEST(PseudoInverseTest, InverseForPositiveDefinite) {
  Rng rng(43);
  Matrix a = RandomPsdOfRank(8, 8, rng);
  for (int i = 0; i < 8; ++i) a(i, i) += 1.0;
  const Matrix p = SymmetricPseudoInverse(a);
  EXPECT_TRUE(Multiply(a, p).ApproxEquals(Matrix::Identity(8), 1e-9));
}

TEST(PseudoInverseTest, GeneralRectangular) {
  Rng rng(44);
  Matrix a(9, 4);
  for (int r = 0; r < 9; ++r) {
    for (int c = 0; c < 4; ++c) a(r, c) = rng.Uniform(-1, 1);
  }
  const Matrix p = PseudoInverse(a);
  EXPECT_EQ(p.rows(), 4);
  EXPECT_EQ(p.cols(), 9);
  // Full column rank: A† A = I.
  EXPECT_TRUE(Multiply(p, a).ApproxEquals(Matrix::Identity(4), 1e-8));
}

TEST(PsdSqrtTest, SquaresBack) {
  Rng rng(45);
  for (int rank : {2, 5, 7}) {
    const Matrix a = RandomPsdOfRank(7, rank, rng);
    const Matrix s = PsdSqrt(a);
    EXPECT_TRUE(Multiply(s, s).ApproxEquals(a, 1e-8)) << "rank " << rank;
    // Square root is symmetric PSD.
    EXPECT_TRUE(s.ApproxEquals(s.Transpose(), 1e-10));
  }
}

TEST(PsdSolverTest, UsesCholeskyWhenPd) {
  Rng rng(47);
  Matrix a = RandomPsdOfRank(10, 10, rng);
  for (int i = 0; i < 10; ++i) a(i, i) += 1.0;
  PsdSolver solver(a);
  EXPECT_TRUE(solver.used_cholesky());
  Vector b(10, 1.0);
  const Vector x = solver.Solve(b);
  const Vector ax = MultiplyVec(a, x);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-8);
}

TEST(PsdSolverTest, FallsBackOnSingular) {
  Rng rng(48);
  const Matrix a = RandomPsdOfRank(8, 3, rng);
  PsdSolver solver(a);
  EXPECT_FALSE(solver.used_cholesky());
  // Minimum-norm solve: A x = proj_range(b).
  Vector b(8);
  for (double& v : b) v = rng.Uniform(-1, 1);
  const Vector x = solver.Solve(b);
  // x lies in range(A): A A† b; verify A x = A A† b is consistent: A(A†(Ax))=Ax.
  const Vector ax = MultiplyVec(a, x);
  const Vector x2 = solver.Solve(ax);
  const Vector ax2 = MultiplyVec(a, x2);
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(ax2[i], ax[i], 1e-8);
}

TEST(PsdSolverTest, MatrixSolveMatchesVector) {
  Rng rng(49);
  Matrix a = RandomPsdOfRank(6, 6, rng) + Matrix::Identity(6);
  PsdSolver solver(a);
  Matrix b(6, 2);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 2; ++c) b(r, c) = rng.Uniform(-1, 1);
  }
  const Matrix x = solver.Solve(b);
  for (int c = 0; c < 2; ++c) {
    const Vector xc = solver.Solve(b.Col(c));
    for (int r = 0; r < 6; ++r) EXPECT_NEAR(x(r, c), xc[r], 1e-12);
  }
}

}  // namespace
}  // namespace wfm

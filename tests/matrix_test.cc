// Unit and property tests for the dense matrix substrate.

#include "linalg/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/rng.h"

namespace wfm {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng& rng, double lo = -1.0,
                    double hi = 1.0) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng.Uniform(lo, hi);
  }
  return m;
}

TEST(MatrixTest, ConstructsZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(MatrixTest, InitializerListLayout) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(0, 2), 3);
  EXPECT_EQ(m(1, 0), 4);
  EXPECT_EQ(m(1, 2), 6);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i3 = Matrix::Identity(3);
  EXPECT_EQ(i3.Trace(), 3.0);
  EXPECT_EQ(i3.FrobeniusNormSq(), 3.0);
  const Matrix d = Matrix::Diagonal({2.0, 3.0});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 3.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, RowColAccessors) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.Row(1), (Vector{3, 4}));
  EXPECT_EQ(m.Col(0), (Vector{1, 3, 5}));
  m.SetRow(0, {7, 8});
  EXPECT_EQ(m(0, 0), 7);
  m.SetCol(1, {9, 10, 11});
  EXPECT_EQ(m(2, 1), 11);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(1);
  const Matrix m = RandomMatrix(17, 29, rng);
  EXPECT_TRUE(m.Transpose().Transpose().ApproxEquals(m, 0.0));
}

TEST(MatrixTest, TransposeLargeBlocked) {
  Rng rng(2);
  const Matrix m = RandomMatrix(70, 45, rng);
  const Matrix t = m.Transpose();
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) ASSERT_EQ(t(c, r), m(r, c));
  }
}

TEST(MatrixTest, RowColSums) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.RowSums(), (Vector{3, 7}));
  EXPECT_EQ(m.ColSums(), (Vector{4, 6}));
  EXPECT_EQ(m.Sum(), 10.0);
}

TEST(MatrixTest, ArithmeticOperators) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 6);
  const Matrix diff = b - a;
  EXPECT_EQ(diff(1, 1), 4);
  const Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(1, 0), 6);
}

TEST(MatrixTest, MultiplyMatchesManual) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  const Matrix c = Multiply(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c(0, 0), 58);
  EXPECT_EQ(c(0, 1), 64);
  EXPECT_EQ(c(1, 0), 139);
  EXPECT_EQ(c(1, 1), 154);
}

TEST(MatrixTest, MultiplyIdentityIsNoop) {
  Rng rng(3);
  const Matrix m = RandomMatrix(12, 12, rng);
  EXPECT_TRUE(Multiply(m, Matrix::Identity(12)).ApproxEquals(m, 1e-14));
  EXPECT_TRUE(Multiply(Matrix::Identity(12), m).ApproxEquals(m, 1e-14));
}

TEST(MatrixTest, MultiplyATBMatchesExplicitTranspose) {
  Rng rng(4);
  const Matrix a = RandomMatrix(23, 11, rng);
  const Matrix b = RandomMatrix(23, 17, rng);
  EXPECT_TRUE(MultiplyATB(a, b).ApproxEquals(Multiply(a.Transpose(), b), 1e-12));
}

TEST(MatrixTest, MultiplyABTMatchesExplicitTranspose) {
  Rng rng(5);
  const Matrix a = RandomMatrix(9, 21, rng);
  const Matrix b = RandomMatrix(13, 21, rng);
  EXPECT_TRUE(MultiplyABT(a, b).ApproxEquals(Multiply(a, b.Transpose()), 1e-12));
}

TEST(MatrixTest, MatVecAndTransposedMatVec) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const Vector x{1, -1};
  EXPECT_EQ(MultiplyVec(a, x), (Vector{-1, -1, -1}));
  const Vector y{1, 0, -1};
  EXPECT_EQ(MultiplyTVec(a, y), (Vector{-4, -4}));
}

TEST(MatrixTest, ScaleRowsAndCols) {
  Matrix m{{1, 2}, {3, 4}};
  Matrix r = m;
  ScaleRows(r, {2, 3});
  EXPECT_EQ(r(0, 1), 4);
  EXPECT_EQ(r(1, 0), 9);
  Matrix c = m;
  ScaleCols(c, {2, 3});
  EXPECT_EQ(c(0, 1), 6);
  EXPECT_EQ(c(1, 0), 6);
}

TEST(MatrixTest, AssociativityProperty) {
  Rng rng(7);
  const Matrix a = RandomMatrix(6, 7, rng);
  const Matrix b = RandomMatrix(7, 5, rng);
  const Matrix c = RandomMatrix(5, 9, rng);
  const Matrix left = Multiply(Multiply(a, b), c);
  const Matrix right = Multiply(a, Multiply(b, c));
  EXPECT_TRUE(left.ApproxEquals(right, 1e-12));
}

TEST(VectorHelpersTest, DotNormSumMaxAbs) {
  const Vector a{1, 2, 3};
  const Vector b{4, 5, 6};
  EXPECT_EQ(Dot(a, b), 32.0);
  EXPECT_EQ(NormSq(a), 14.0);
  EXPECT_EQ(Sum(a), 6.0);
  EXPECT_EQ(MaxAbsVec(Vector{-7, 3}), 7.0);
}

TEST(MatrixDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_DEATH(Multiply(a, b), "WFM_CHECK");
  EXPECT_DEATH(Dot(Vector{1}, Vector{1, 2}), "WFM_CHECK");
}

}  // namespace
}  // namespace wfm

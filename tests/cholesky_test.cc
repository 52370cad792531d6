// Tests for the Cholesky factorization and triangular solves.

#include "linalg/cholesky.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels.h"
#include "linalg/reference_kernels.h"
#include "linalg/rng.h"
#include "linalg/thread_pool.h"

namespace wfm {
namespace {

/// Random symmetric positive definite matrix A = B Bᵀ + ridge I.
Matrix RandomSpd(int n, Rng& rng, double ridge = 0.5) {
  Matrix b(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) b(r, c) = rng.Uniform(-1.0, 1.0);
  }
  Matrix a = MultiplyABT(b, b);
  for (int i = 0; i < n; ++i) a(i, i) += ridge;
  return a;
}

/// B Bᵀ + ridge I for a B that is banded plus about one random entry per
/// row, so A has exact zeros below the diagonal and so does its factor
/// outside the rows' envelopes. Every other exact zero of A is then flipped
/// to −0.0.
Matrix SparseSpd(int n, Rng& rng) {
  Matrix b(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (std::abs(r - c) <= 2 || rng.Uniform(0.0, 1.0) * n < 1.0) {
        b(r, c) = rng.Uniform(-1.0, 1.0);
      }
    }
  }
  Matrix a = MultiplyABT(b, b);
  bool negative = false;
  for (int i = 0; i < n; ++i) {
    a(i, i) += 0.5;
    for (int j = 0; j < i; ++j) {
      if (a(i, j) != 0.0) continue;
      if (negative) a(i, j) = a(j, i) = -0.0;
      negative = !negative;
    }
  }
  return a;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The portable kernels, and the AVX2 ones where the CPU has them.
std::vector<const kernels::KernelSet*> KernelSets() {
  std::vector<const kernels::KernelSet*> sets = {&kernels::PortableKernels()};
  if (kernels::CpuHasAvx2()) sets.push_back(kernels::Avx2Kernels());
  return sets;
}

/// Runs fn() under every kernel set and at pool sizes 1, 2 and 4, passing a
/// label for failure messages.
template <typename Fn>
void ForEachKernelSetAndPool(Fn fn) {
  for (const kernels::KernelSet* set : KernelSets()) {
    kernels::SetActiveKernelsForTesting(set);
    for (int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      ThreadPool::SetGlobal(&pool);
      fn(std::string(set->name) + ", " + std::to_string(threads) + " threads");
      ThreadPool::SetGlobal(nullptr);
    }
  }
  kernels::SetActiveKernelsForTesting(nullptr);
}

constexpr int kNb = Cholesky::kPanel;

// The blocked factorization performs each entry's subtractions in the
// unblocked loop's order, so its factor matches the reference bit for bit:
// on sizes around the panel width, on sizes whose trailing updates fan out
// over the pool (513), and with exact zeros of both signs in the input.
TEST(CholeskyTest, BlockedFactorBitIdenticalToReference) {
  Rng rng(16);
  Cholesky chol;  // Reused throughout, so warm buffers are covered too.
  for (int n : {1, 2, kNb - 1, kNb, kNb + 1, 2 * kNb + 3, 100, 290, 513}) {
    for (const Matrix& a : {RandomSpd(n, rng), SparseSpd(n, rng)}) {
      Matrix want;
      ASSERT_EQ(reference::CholeskyFactorize(a, want), -1) << "n = " << n;
      ForEachKernelSetAndPool([&](const std::string& label) {
        EXPECT_TRUE(chol.Factorize(a)) << "n = " << n << ", " << label;
        EXPECT_EQ(chol.failed_column(), -1);
        EXPECT_TRUE(SameBits(chol.lower(), want))
            << "n = " << n << ", " << label;
      });
    }
  }
}

// An indefinite matrix fails at the same pivot as the reference loop, also
// when that pivot lies past the first panel or in a later panel of a matrix
// whose trailing updates run on the pool.
TEST(CholeskyTest, BlockedFactorFailsAtTheReferencePivot) {
  Rng rng(17);
  const int n = 513;
  for (int bad : {kNb + 5, 2 * kNb, 400, n - 1}) {
    Matrix a = RandomSpd(n, rng);
    Matrix l;
    ASSERT_EQ(reference::CholeskyFactorize(a, l), -1);
    // The pivot at j = bad is a_jj − Σ_{k<j} l_jk². Setting a_jj to half
    // that sum leaves every earlier pivot alone and makes this one negative.
    double sum = 0.0;
    for (int k = 0; k < bad; ++k) sum += l(bad, k) * l(bad, k);
    a(bad, bad) = 0.5 * sum;
    ASSERT_EQ(reference::CholeskyFactorize(a, l), bad);
    ForEachKernelSetAndPool([&](const std::string& label) {
      Cholesky chol;
      EXPECT_FALSE(chol.Factorize(a)) << "bad = " << bad << ", " << label;
      EXPECT_FALSE(chol.ok());
      EXPECT_EQ(chol.failed_column(), bad) << label;
    });
  }
}

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(11);
  for (int n : {1, 2, 5, 16, 40}) {
    const Matrix a = RandomSpd(n, rng);
    Cholesky chol;
    ASSERT_TRUE(chol.Factorize(a)) << "n = " << n;
    const Matrix llt = MultiplyABT(chol.lower(), chol.lower());
    EXPECT_TRUE(llt.ApproxEquals(a, 1e-9)) << "n = " << n;
  }
}

TEST(CholeskyTest, LowerTriangularFactor) {
  Rng rng(12);
  const Matrix a = RandomSpd(8, rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a));
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) EXPECT_EQ(chol.lower()(i, j), 0.0);
  }
}

TEST(CholeskyTest, VectorSolveResidual) {
  Rng rng(13);
  const Matrix a = RandomSpd(20, rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a));
  Vector b(20);
  for (double& v : b) v = rng.Uniform(-2, 2);
  const Vector x = chol.Solve(b);
  const Vector ax = MultiplyVec(a, x);
  for (int i = 0; i < 20; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(CholeskyTest, VectorSolveBitIdenticalToColumnReadLoop) {
  // Solve(const Vector&) transposes L in tiles for its backward sweep; every
  // entry must still see the textbook loop's subtractions in ascending k, so
  // x matches that loop (which reads l_ki down the columns) byte for byte,
  // at one entry, on both sides of a 32-column tile edge, and at
  // multi-tile sizes that end in a partial tile.
  Rng rng(16);
  for (const int n : {1, 31, 32, 33, 290, 700}) {
    const Matrix a = RandomSpd(n, rng);
    Cholesky chol;
    ASSERT_TRUE(chol.Factorize(a));
    const Matrix& l = chol.lower();
    Vector b(n);
    for (double& v : b) v = rng.Uniform(-2, 2);
    Vector expected(b);
    for (int i = 0; i < n; ++i) {
      double s = expected[i];
      for (int k = 0; k < i; ++k) s -= l(i, k) * expected[k];
      expected[i] = s / l(i, i);
    }
    for (int i = n - 1; i >= 0; --i) {
      double s = expected[i];
      for (int k = i + 1; k < n; ++k) s -= l(k, i) * expected[k];
      expected[i] = s / l(i, i);
    }
    const Vector x = chol.Solve(b);
    ASSERT_EQ(x.size(), expected.size());
    EXPECT_EQ(std::memcmp(x.data(), expected.data(), n * sizeof(double)), 0)
        << "n " << n;
  }
}

TEST(CholeskyTest, MatrixSolveResidual) {
  Rng rng(14);
  const Matrix a = RandomSpd(15, rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a));
  Matrix b(15, 7);
  for (int r = 0; r < 15; ++r) {
    for (int c = 0; c < 7; ++c) b(r, c) = rng.Uniform(-2, 2);
  }
  const Matrix x = chol.Solve(b);
  EXPECT_TRUE(Multiply(a, x).ApproxEquals(b, 1e-8));
}

TEST(CholeskyTest, SolveMatchesVectorwise) {
  Rng rng(15);
  const Matrix a = RandomSpd(10, rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a));
  Matrix b(10, 3);
  for (int r = 0; r < 10; ++r) {
    for (int c = 0; c < 3; ++c) b(r, c) = rng.Uniform(-1, 1);
  }
  const Matrix x = chol.Solve(b);
  for (int c = 0; c < 3; ++c) {
    const Vector xc = chol.Solve(b.Col(c));
    for (int r = 0; r < 10; ++r) EXPECT_NEAR(x(r, c), xc[r], 1e-12);
  }
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // Eigenvalues 3 and -1.
  Cholesky chol;
  EXPECT_FALSE(chol.Factorize(a));
  EXPECT_FALSE(chol.ok());
  EXPECT_EQ(chol.failed_column(), 1);
}

TEST(CholeskyTest, RejectsSingular) {
  Matrix a{{1, 1}, {1, 1}};  // Rank 1.
  Cholesky chol;
  EXPECT_FALSE(chol.Factorize(a));
}

TEST(CholeskyTest, IdentitySolveIsIdentity) {
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(Matrix::Identity(6)));
  Vector b{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(chol.Solve(b), b);
}

}  // namespace
}  // namespace wfm

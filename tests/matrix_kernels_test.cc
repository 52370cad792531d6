// Kernel-equivalence suite: the tiled/pooled product kernels against the
// retained pre-PR scalar reference (linalg/reference_kernels.h).
//
// The tiled kernels accumulate k panels in the same ascending order as the
// reference but group the additions differently, so results agree to
// round-off (tolerance scales with the inner length), and are bit-identical
// across thread counts (each output tile is produced by exactly one thread).
// Shapes deliberately cover the ragged edges of the blocking: 1x1, single
// rows/columns, the kMr/kNr tails (17/33/65), empty dimensions, and sizes on
// both sides of the packed-path and thread-pool thresholds.
//
// The AVX2 micro-kernel and solve sweeps (linalg/kernels.h) must match the
// portable ones bit for bit; those tests skip on CPUs without AVX2.
// MultiplyVecInto must match the reference bit for bit in both builds.

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/cholesky.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/reference_kernels.h"
#include "linalg/rng.h"
#include "linalg/thread_pool.h"

namespace wfm {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    double* row = m.RowPtr(r);
    for (int c = 0; c < cols; ++c) row[c] = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

Vector RandomVector(int n, Rng& rng) {
  Vector v(n);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

/// Round-off budget for reordered sums of k terms in [-1, 1].
double Tolerance(int k) { return 1e-13 * std::max(1, k); }

struct Shape {
  int m, k, n;
};

// 1x1 and single-row/column cases, kMr=4 / kNr=8 tail sizes (17/33/65),
// empty dimensions, shapes under the packed-path threshold, over it, and
// (192³ ≈ 7.1e6 flops) over the thread-pool threshold. {65, 400, 33} spans
// multiple k panels (ragged last panel); {100, 500, 390} additionally spans
// two n panels, exercising the packed-A reuse across n panels.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {1, 64, 64},   {5, 1, 3},
    {17, 17, 17}, {33, 17, 65}, {65, 33, 17},  {64, 64, 64},
    {0, 5, 4},    {4, 0, 5},    {128, 96, 65}, {192, 192, 192},
    {65, 400, 33}, {100, 500, 390},
};

TEST(MatrixKernelsTest, MultiplyMatchesReference) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix got = Multiply(a, b);
    const Matrix want = reference::Multiply(a, b);
    EXPECT_EQ(got.rows(), s.m);
    EXPECT_EQ(got.cols(), s.n);
    EXPECT_TRUE(got.ApproxEquals(want, Tolerance(s.k)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(MatrixKernelsTest, MultiplyATBMatchesReference) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, rng);  // shared dim is a.rows().
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix got = MultiplyATB(a, b);
    const Matrix want = reference::MultiplyATB(a, b);
    EXPECT_TRUE(got.ApproxEquals(want, Tolerance(s.k)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(MatrixKernelsTest, MultiplyABTMatchesReference) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.n, s.k, rng);  // shared dim is b.cols().
    const Matrix got = MultiplyABT(a, b);
    const Matrix want = reference::MultiplyABT(a, b);
    EXPECT_TRUE(got.ApproxEquals(want, Tolerance(s.k)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(MatrixKernelsTest, MatVecKernelsMatchReference) {
  Rng rng(104);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Vector x = RandomVector(s.k, rng);
    const Vector y_got = MultiplyVec(a, x);
    const Vector y_want = reference::MultiplyVec(a, x);
    ASSERT_EQ(y_got.size(), y_want.size());
    for (std::size_t i = 0; i < y_got.size(); ++i) {
      EXPECT_NEAR(y_got[i], y_want[i], Tolerance(s.k));
    }
    const Vector xt = RandomVector(s.m, rng);
    const Vector t_got = MultiplyTVec(a, xt);
    const Vector t_want = reference::MultiplyTVec(a, xt);
    ASSERT_EQ(t_got.size(), t_want.size());
    for (std::size_t i = 0; i < t_got.size(); ++i) {
      EXPECT_NEAR(t_got[i], t_want[i], Tolerance(s.m));
    }
  }
}

TEST(MatrixKernelsTest, IntoVariantsReuseCallerBuffer) {
  Rng rng(105);
  Matrix c;
  // Shrinking then growing through different shapes must always produce the
  // same values as the fresh-allocation path.
  for (const Shape& s :
       {Shape{64, 64, 64}, Shape{17, 33, 9}, Shape{128, 96, 65}}) {
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    MultiplyInto(a, b, c);
    const Matrix want = Multiply(a, b);
    EXPECT_EQ(c.rows(), want.rows());
    EXPECT_EQ(c.cols(), want.cols());
    EXPECT_TRUE(c.ApproxEquals(want, 0.0)) << "Into differs from value form";
  }
  Vector y;
  const Matrix a = RandomMatrix(40, 30, rng);
  const Vector x = RandomVector(30, rng);
  MultiplyVecInto(a, x, y);
  const Vector want = MultiplyVec(a, x);
  ASSERT_EQ(y.size(), want.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], want[i]);
}

TEST(MatrixKernelsTest, TransposeIntoMatchesTranspose) {
  Rng rng(106);
  const Matrix a = RandomMatrix(37, 53, rng);
  Matrix t;
  TransposeInto(a, t);
  EXPECT_TRUE(t.ApproxEquals(a.Transpose(), 0.0));
}

TEST(MatrixKernelsTest, CholeskySolveInPlaceMatchesColumnwiseSolve) {
  Rng rng(107);
  const int n = 96;
  const Matrix a = RandomMatrix(n, n, rng);
  Matrix spd = MultiplyATB(a, a);
  for (int i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(spd));

  const Matrix b = RandomMatrix(n, 70, rng);
  Matrix x = b;
  chol.SolveInPlace(x);
  for (int c = 0; c < b.cols(); ++c) {
    const Vector col = chol.Solve(b.Col(c));
    for (int r = 0; r < n; ++r) {
      EXPECT_NEAR(x(r, c), col[r], 1e-9) << "column " << c;
    }
  }
}

/// The pooled kernels must be bit-identical for any thread count: every
/// output tile is computed by exactly one thread in a fixed k order.
TEST(MatrixKernelsTest, ProductsBitIdenticalAcrossThreadCounts) {
  Rng rng(108);
  // Over both the packed (32k flops) and the pool (4e6 flops) thresholds.
  const Matrix a = RandomMatrix(200, 170, rng);
  const Matrix b = RandomMatrix(170, 190, rng);
  const Matrix tall = RandomMatrix(200, 190, rng);

  ThreadPool serial(1);
  ThreadPool::SetGlobal(&serial);
  const Matrix c1 = Multiply(a, b);
  const Matrix atb1 = MultiplyATB(a, tall);

  ThreadPool wide(4);
  ThreadPool::SetGlobal(&wide);
  const Matrix c4 = Multiply(a, b);
  const Matrix atb4 = MultiplyATB(a, tall);
  ThreadPool::SetGlobal(nullptr);

  ASSERT_EQ(c1.size(), c4.size());
  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(double)));
  ASSERT_EQ(atb1.size(), atb4.size());
  EXPECT_EQ(0, std::memcmp(atb1.data(), atb4.data(),
                           atb1.size() * sizeof(double)));
}

// ---- AVX2 kernels against the portable ones, bit for bit -------------------

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Uniform entries with every seventh an exact zero and every eleventh -0.0.
std::vector<double> RandomPanel(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = i % 7 == 3 ? 0.0 : (i % 11 == 5 ? -0.0 : rng.Uniform(-1.0, 1.0));
  }
  return v;
}

/// Makes ActiveKernels() return `set` for the lifetime of the guard.
class ActiveKernelsGuard {
 public:
  explicit ActiveKernelsGuard(const kernels::KernelSet& set) {
    kernels::SetActiveKernelsForTesting(&set);
  }
  ~ActiveKernelsGuard() { kernels::SetActiveKernelsForTesting(nullptr); }
};

// MultiplyVecInto runs several rows' chains side by side, but each row is
// the reference's own sum from +0.0 in ascending j, so both kernel builds
// agree with the reference bit for bit: on row counts on both sides of the
// 4- and 16-row blocks, odd and even column counts, exact zeros of both signs
// in A and x, and a shape over the thread-pool threshold.
TEST(MatrixKernelsTest, MultiplyVecIntoBitIdenticalToReference) {
  std::vector<const kernels::KernelSet*> sets = {&kernels::PortableKernels()};
  if (kernels::CpuHasAvx2()) sets.push_back(kernels::Avx2Kernels());
  const int kRowCounts[] = {1, 2, 3, 4, 5, 7, 9, 13, 16, 17, 31, 33, 130, 2003};
  Rng rng(108);
  Vector y;
  for (int rows : kRowCounts) {
    for (int cols : {1, 2, 5, 64, rows == 2003 ? 2001 : 37}) {
      Matrix a = RandomMatrix(rows, cols, rng);
      Vector x = RandomVector(cols, rng);
      for (int r = 0; r < rows; r += 3) a(r, r % cols) = r % 2 ? -0.0 : 0.0;
      x[cols / 2] = -0.0;
      const Vector want = reference::MultiplyVec(a, x);
      for (const kernels::KernelSet* set : sets) {
        const ActiveKernelsGuard guard(*set);
        MultiplyVecInto(a, x, y);
        ASSERT_EQ(y.size(), want.size());
        EXPECT_EQ(std::memcmp(y.data(), want.data(), y.size() * sizeof(double)),
                  0)
            << rows << " x " << cols << ", " << set->name;
      }
    }
  }
}

TEST(MatrixKernelsTest, DispatcherPicksAvx2WhenTheCpuHasIt) {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  const bool cpu_has_avx2 = __builtin_cpu_supports("avx2");
  EXPECT_NE(kernels::Avx2Kernels(), nullptr);
#else
  const bool cpu_has_avx2 = false;
#endif
  EXPECT_EQ(kernels::CpuHasAvx2(), cpu_has_avx2);
  const kernels::KernelSet* want =
      cpu_has_avx2 ? kernels::Avx2Kernels() : &kernels::PortableKernels();
  EXPECT_EQ(&kernels::ActiveKernels(), want);
  EXPECT_STREQ(kernels::ActiveKernels().name,
               cpu_has_avx2 ? "avx2" : "portable");
}

TEST(MatrixKernelsTest, Avx2MicroKernelBitIdenticalToPortable) {
  if (!kernels::CpuHasAvx2()) GTEST_SKIP() << "CPU has no AVX2";
  const kernels::MicroKernelFn portable = kernels::PortableKernels().gemm_micro;
  const kernels::MicroKernelFn avx2 = kernels::Avx2Kernels()->gemm_micro;
  Rng rng(109);
  const int ldc = 13;
  for (int kc : {1, 191, 192, 193, 400}) {
    const std::vector<double> pa = RandomPanel(std::size_t{4} * kc, rng);
    const std::vector<double> pb = RandomPanel(std::size_t{8} * kc, rng);
    for (int mr = 1; mr <= kernels::kMr; ++mr) {
      for (int nr = 1; nr <= kernels::kNr; ++nr) {
        const std::vector<double> c0 = RandomPanel(std::size_t{4} * ldc, rng);
        std::vector<double> c_portable = c0, c_avx2 = c0;
        portable(kc, pa.data(), pb.data(), c_portable.data(), ldc, mr, nr);
        avx2(kc, pa.data(), pb.data(), c_avx2.data(), ldc, mr, nr);
        EXPECT_EQ(0, std::memcmp(c_portable.data(), c_avx2.data(),
                                 c0.size() * sizeof(double)))
            << "kc " << kc << " tile " << mr << "x" << nr;
      }
    }
  }
}

TEST(MatrixKernelsTest, Avx2ProductsBitIdenticalToPortable) {
  if (!kernels::CpuHasAvx2()) GTEST_SKIP() << "CPU has no AVX2";
  // m and n off the 4 x 8 tile grid; k on both sides of the 192-deep panel.
  Rng rng(110);
  for (const auto& [m, n] : {std::pair{203, 190}, std::pair{37, 45},
                             std::pair{66, 7}}) {
    for (int k : {1, 191, 192, 193, 400}) {
      const Matrix a = RandomMatrix(m, k, rng);
      const Matrix b = RandomMatrix(k, n, rng);
      const Matrix at = RandomMatrix(k, m, rng);
      const Matrix bt = RandomMatrix(n, k, rng);
      Matrix ab[2], atb[2], abt[2];
      for (int i = 0; i < 2; ++i) {
        ActiveKernelsGuard guard(i == 0 ? kernels::PortableKernels()
                                        : *kernels::Avx2Kernels());
        ab[i] = Multiply(a, b);
        atb[i] = MultiplyATB(at, b);
        abt[i] = MultiplyABT(a, bt);
      }
      EXPECT_TRUE(SameBits(ab[0], ab[1])) << m << "x" << k << "x" << n;
      EXPECT_TRUE(SameBits(atb[0], atb[1])) << m << "x" << k << "x" << n;
      EXPECT_TRUE(SameBits(abt[0], abt[1])) << m << "x" << k << "x" << n;
    }
  }
}

TEST(MatrixKernelsTest, Avx2SolveSweepsBitIdenticalToPortable) {
  if (!kernels::CpuHasAvx2()) GTEST_SKIP() << "CPU has no AVX2";
  const kernels::KernelSet& portable = kernels::PortableKernels();
  const kernels::KernelSet& avx2 = *kernels::Avx2Kernels();
  Rng rng(111);
  for (int n : {1, 5, 17, 64, 67}) {
    // A banded SPD matrix, so L has exact zeros the sweeps skip.
    Matrix spd(n, n);
    for (int i = 0; i < n; ++i) {
      spd(i, i) = 4.0 + rng.Uniform(0.0, 1.0);
      for (int j = std::max(0, i - 3); j < i; ++j) {
        spd(i, j) = spd(j, i) = rng.Uniform(-0.5, 0.5);
      }
    }
    Cholesky chol;
    ASSERT_TRUE(chol.Factorize(spd));
    const double* l = chol.lower().data();
    for (int cols : {1, 3, 4, 15, 16, 17, 37, 64}) {
      std::vector<double> b0 =
          RandomPanel(static_cast<std::size_t>(n) * cols, rng);
      // An infinite entry: a sweep that multiplied an exact zero of L by it
      // instead of skipping it would spread NaN into later rows.
      b0[b0.size() / 3] = std::numeric_limits<double>::infinity();
      // The whole width, and a ragged stripe that starts off the 4-grid.
      for (const auto& [begin, end] :
           {std::pair{0, cols}, std::pair{std::min(3, cols), cols}}) {
        std::vector<double> x_portable = b0, x_avx2 = b0;
        portable.forward_sweep(l, n, x_portable.data(), cols, begin, end);
        avx2.forward_sweep(l, n, x_avx2.data(), cols, begin, end);
        EXPECT_EQ(0, std::memcmp(x_portable.data(), x_avx2.data(),
                                 b0.size() * sizeof(double)))
            << "forward n " << n << " columns " << begin << "-" << end;
        portable.backward_sweep(l, n, x_portable.data(), cols, begin, end);
        avx2.backward_sweep(l, n, x_avx2.data(), cols, begin, end);
        EXPECT_EQ(0, std::memcmp(x_portable.data(), x_avx2.data(),
                                 b0.size() * sizeof(double)))
            << "backward n " << n << " columns " << begin << "-" << end;
      }
    }
    // And the whole SolveInPlace; at n = 64 and 67 it is wide enough to
    // split into one column stripe per pool thread.
    const Matrix b = RandomMatrix(n, 500, rng);
    Matrix x[2] = {b, b};
    for (int i = 0; i < 2; ++i) {
      ActiveKernelsGuard guard(i == 0 ? portable : avx2);
      chol.SolveInPlace(x[i]);
    }
    EXPECT_TRUE(SameBits(x[0], x[1])) << "SolveInPlace n " << n;
  }
}

}  // namespace
}  // namespace wfm

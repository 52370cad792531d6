#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <sstream>
#include <vector>

#include "linalg/kernels.h"
#include "linalg/thread_pool.h"

namespace wfm {
namespace {

/// Below this flop count the packed GEMM path is skipped entirely: for tiny
/// products the packing traffic exceeds the multiply itself, so a scalar
/// loop wins. Chosen so the unit-test sizes exercise both paths.
constexpr double kPackedFlopThreshold = 32.0 * 1024;

/// Runs fn(begin, end) over [0, total) on the global pool when the work is
/// large enough, inline otherwise.
template <typename Fn>
void PoolParallelFor(int total, double flops, Fn&& fn) {
  if (flops < kPoolFlopThreshold || total < 2) {
    fn(0, total);
    return;
  }
  ThreadPool::Global().ParallelFor(total, fn);
}

// ---- Packed, register-tiled GEMM core -------------------------------------
//
// C (m x n, row-major) += op(A) (m x k) * op(B) (k x n), where op is encoded
// by the (row, col) strides of a ConstView — so the same core serves A*B,
// AᵀB, and ABᵀ; strided access happens only inside the O(mk + kn) packing,
// never in the O(mnk) inner loop.
//
// Blocking: k in panels of kKc, n in panels of kNc (the packed B panel then
// stays cache-resident), and the m dimension in kMr-row micro-tiles that are
// the unit of thread-pool parallelism. The micro-kernel accumulates a
// kMr x kNr tile in registers over the whole k panel before touching C; it
// comes from linalg/kernels.h, in the AVX2 build when the CPU has it.

using kernels::kMr;
using kernels::kNr;

// Panel sizes tuned empirically (perf_suite, 1024³ shapes): the B panel
// (kKc * kNc doubles = 576 KiB) stays L2/L3-resident; larger panels lost
// 10-20% on both the dev container and CI-class runners.
constexpr int kKc = 192;  // k-panel depth (packed micro-panels span it).
constexpr int kNc = 384;  // n-panel width.

struct ConstView {
  const double* p;
  std::ptrdiff_t row_stride;
  std::ptrdiff_t col_stride;
  double at(int r, int c) const { return p[r * row_stride + c * col_stride]; }
};

/// Reused across calls so steady-state GEMMs allocate nothing. tl_pack_b
/// grows to the largest kKc * kNc panel seen by this thread (at most 576 KiB);
/// tl_pack_a holds every micro-panel of the current k panel (m/kMr tiles),
/// packed once per k panel and reused across all n panels. Both belong to
/// the dispatching thread; pool workers read them via captured pointers
/// (writes are synchronized by the fork-join barrier between dispatches).
thread_local std::vector<double> tl_pack_b;
thread_local std::vector<double> tl_pack_a;

/// Packs op(B)[kk : kk+kc, jj : jj+nc] as kNr-wide panels, each panel laid
/// out k-major so the micro-kernel streams it unit-stride. Ragged right
/// panels are zero-padded to kNr.
void PackB(const ConstView& b, int kk, int kc, int jj, int nc, double* dst) {
  for (int j0 = 0; j0 < nc; j0 += kNr) {
    const int nr = std::min(kNr, nc - j0);
    for (int p = 0; p < kc; ++p) {
      for (int j = 0; j < nr; ++j) *dst++ = b.at(kk + p, jj + j0 + j);
      for (int j = nr; j < kNr; ++j) *dst++ = 0.0;
    }
  }
}

/// Packs op(A)[i0 : i0+mr, kk : kk+kc] k-major, zero-padded to kMr rows.
void PackA(const ConstView& a, int i0, int mr, int kk, int kc, double* dst) {
  for (int p = 0; p < kc; ++p) {
    for (int r = 0; r < mr; ++r) dst[p * kMr + r] = a.at(i0 + r, kk + p);
    for (int r = mr; r < kMr; ++r) dst[p * kMr + r] = 0.0;
  }
}

/// Scalar fallback for products too small to amortize packing. Same
/// ascending-k accumulation order as the packed path.
void GemmSmall(const ConstView& a, const ConstView& b, Matrix& c, int m, int n,
               int k) {
  for (int i = 0; i < m; ++i) {
    double* crow = c.RowPtr(i);
    for (int p = 0; p < k; ++p) {
      const double aip = a.at(i, p);
      if (aip == 0.0) continue;
      for (int j = 0; j < n; ++j) crow[j] += aip * b.at(p, j);
    }
  }
}

/// c (pre-zeroed m x n) += op(a) * op(b). Bit-identical across thread counts:
/// every output tile is produced by one thread, accumulating k panels in
/// ascending order.
void Gemm(const ConstView& a, const ConstView& b, Matrix& c, int m, int n,
          int k) {
  if (m == 0 || n == 0 || k == 0) return;
  const double flops = static_cast<double>(m) * n * k;
  if (flops < kPackedFlopThreshold) {
    GemmSmall(a, b, c, m, n, k);
    return;
  }
  const int ldc = c.cols();
  const kernels::MicroKernelFn micro_kernel =
      kernels::ActiveKernels().gemm_micro;
  const int row_tiles = (m + kMr - 1) / kMr;
  for (int kk = 0; kk < k; kk += kKc) {
    const int kc = std::min(kKc, k - kk);
    tl_pack_a.resize(static_cast<std::size_t>(row_tiles) * kMr * kc);
    double* pack_a = tl_pack_a.data();
    for (int jj = 0; jj < n; jj += kNc) {
      const int nc = std::min(kNc, n - jj);
      const int panels = (nc + kNr - 1) / kNr;
      tl_pack_b.resize(static_cast<std::size_t>(panels) * kc * kNr);
      PackB(b, kk, kc, jj, nc, tl_pack_b.data());
      const double* pack_b = tl_pack_b.data();

      // A micro-panels are packed by whichever thread first owns the tile
      // (jj == 0) and reused for the remaining n panels of this k panel.
      const bool pack_a_pass = jj == 0;
      auto tile_range = [&](int tile_begin, int tile_end) {
        for (int t = tile_begin; t < tile_end; ++t) {
          const int i0 = t * kMr;
          const int mr = std::min(kMr, m - i0);
          double* pa = pack_a + static_cast<std::size_t>(t) * kMr * kc;
          if (pack_a_pass) PackA(a, i0, mr, kk, kc, pa);
          double* ctile_row = c.RowPtr(i0) + jj;
          for (int j0 = 0; j0 < nc; j0 += kNr) {
            const int nr = std::min(kNr, nc - j0);
            micro_kernel(
                kc, pa, pack_b + static_cast<std::size_t>(j0 / kNr) * kc * kNr,
                ctile_row + j0, ldc, mr, nr);
          }
        }
      };
      PoolParallelFor(row_tiles, flops, tile_range);
    }
  }
}

ConstView RowMajor(const Matrix& m) { return {m.data(), m.cols(), 1}; }
ConstView Transposed(const Matrix& m) { return {m.data(), 1, m.cols()}; }

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<std::size_t>(rows_) * cols_);
  for (const auto& row : rows) {
    WFM_CHECK_EQ(static_cast<int>(row.size()), cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  const int n = static_cast<int>(d.size());
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::RowVector(const Vector& v) {
  Matrix m(1, static_cast<int>(v.size()));
  std::copy(v.begin(), v.end(), m.RowPtr(0));
  return m;
}

Vector Matrix::Row(int r) const {
  WFM_CHECK(r >= 0 && r < rows_);
  return Vector(RowPtr(r), RowPtr(r) + cols_);
}

Vector Matrix::Col(int c) const {
  WFM_CHECK(c >= 0 && c < cols_);
  Vector v(rows_);
  for (int r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::SetRow(int r, const Vector& v) {
  WFM_CHECK(r >= 0 && r < rows_);
  WFM_CHECK_EQ(static_cast<int>(v.size()), cols_);
  std::copy(v.begin(), v.end(), RowPtr(r));
}

void Matrix::SetCol(int c, const Vector& v) {
  WFM_CHECK(c >= 0 && c < cols_);
  WFM_CHECK_EQ(static_cast<int>(v.size()), rows_);
  for (int r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::Transpose() const {
  // Blocked transpose for cache friendliness on large matrices.
  Matrix t;
  TransposeInto(*this, t);
  return t;
}

Vector Matrix::RowSums() const {
  Vector sums;
  RowSumsInto(sums);
  return sums;
}

void Matrix::RowSumsInto(Vector& out) const {
  out.resize(rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    double s = 0.0;
    for (int c = 0; c < cols_; ++c) s += row[c];
    out[r] = s;
  }
}

Vector Matrix::ColSums() const {
  Vector sums(cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    for (int c = 0; c < cols_; ++c) sums[c] += row[c];
  }
  return sums;
}

double Matrix::Trace() const {
  double t = 0.0;
  const int n = std::min(rows_, cols_);
  for (int i = 0; i < n; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::FrobeniusNormSq() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  WFM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  WFM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " matrix\n";
  const int r_show = std::min(rows_, max_rows);
  const int c_show = std::min(cols_, max_cols);
  for (int r = 0; r < r_show; ++r) {
    os << "  [";
    for (int c = 0; c < c_show; ++c) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%10.4g", (*this)(r, c));
      os << buf << (c + 1 < c_show ? " " : "");
    }
    os << (c_show < cols_ ? " ...]\n" : "]\n");
  }
  if (r_show < rows_) os << "  ...\n";
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

void MultiplyInto(const Matrix& a, const Matrix& b, Matrix& c) {
  WFM_CHECK_EQ(a.cols(), b.rows());
  WFM_DCHECK(&c != &a && &c != &b);
  c.Resize(a.rows(), b.cols());
  Gemm(RowMajor(a), RowMajor(b), c, a.rows(), b.cols(), a.cols());
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  Matrix c;
  MultiplyInto(a, b, c);
  return c;
}

void MultiplyATBInto(const Matrix& a, const Matrix& b, Matrix& c) {
  WFM_CHECK_EQ(a.rows(), b.rows());
  WFM_DCHECK(&c != &a && &c != &b);
  c.Resize(a.cols(), b.cols());
  Gemm(Transposed(a), RowMajor(b), c, a.cols(), b.cols(), a.rows());
}

Matrix MultiplyATB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MultiplyATBInto(a, b, c);
  return c;
}

void MultiplyABTInto(const Matrix& a, const Matrix& b, Matrix& c) {
  WFM_CHECK_EQ(a.cols(), b.cols());
  WFM_DCHECK(&c != &a && &c != &b);
  c.Resize(a.rows(), b.rows());
  Gemm(RowMajor(a), Transposed(b), c, a.rows(), b.rows(), a.cols());
}

Matrix MultiplyABT(const Matrix& a, const Matrix& b) {
  Matrix c;
  MultiplyABTInto(a, b, c);
  return c;
}

void MultiplyVecInto(const Matrix& a, const Vector& x, Vector& y) {
  WFM_CHECK_EQ(a.cols(), static_cast<int>(x.size()));
  WFM_DCHECK(&y != &x);
  y.resize(a.rows());
  const double* xp = x.data();
  const int n = a.cols();
  const double flops = static_cast<double>(a.rows()) * n;
  // Each y_i is one in-order chain s += a_ij x_j from +0.0, which the
  // compiler may not reorder; the kernel runs several rows' chains side by
  // side instead.
  const kernels::MatVecFn mat_vec = kernels::ActiveKernels().mat_vec;
  PoolParallelFor(a.rows(), flops, [&](int row_begin, int row_end) {
    mat_vec(a.RowPtr(row_begin), n, row_end - row_begin, n, xp,
            y.data() + row_begin);
  });
}

Vector MultiplyVec(const Matrix& a, const Vector& x) {
  Vector y;
  MultiplyVecInto(a, x, y);
  return y;
}

void MultiplyTVecInto(const Matrix& a, const Vector& x, Vector& y) {
  WFM_CHECK_EQ(a.rows(), static_cast<int>(x.size()));
  WFM_DCHECK(&y != &x);
  y.assign(a.cols(), 0.0);
  const int rows = a.rows();
  const double flops = static_cast<double>(rows) * a.cols();
  // Threads own disjoint output-column ranges; each streams only its column
  // stripe of A, so A is read once in total.
  PoolParallelFor(a.cols(), flops, [&](int col_begin, int col_end) {
    for (int i = 0; i < rows; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      const double* row = a.RowPtr(i);
      for (int j = col_begin; j < col_end; ++j) y[j] += xi * row[j];
    }
  });
}

Vector MultiplyTVec(const Matrix& a, const Vector& x) {
  Vector y;
  MultiplyTVecInto(a, x, y);
  return y;
}

void TransposeInto(const Matrix& a, Matrix& out) {
  WFM_DCHECK(&out != &a);
  out.ResizeUninitialized(a.cols(), a.rows());
  // Within a block, each output row is written contiguously from a strided
  // column of a. Strided writes would put a block's 32 output rows at a
  // power-of-two stride whenever a has 2^k rows (256 x 64 in the optimizer),
  // where they alias in L1: about 5x slower at that shape.
  constexpr int kBlock = 32;
  for (int cb = 0; cb < a.cols(); cb += kBlock) {
    const int cmax = std::min(cb + kBlock, a.cols());
    for (int rb = 0; rb < a.rows(); rb += kBlock) {
      const int rmax = std::min(rb + kBlock, a.rows());
      for (int c = cb; c < cmax; ++c) {
        double* out_row = out.RowPtr(c);
        for (int r = rb; r < rmax; ++r) out_row[r] = a(r, c);
      }
    }
  }
}

void ScaleRows(Matrix& a, const Vector& s) {
  WFM_CHECK_EQ(a.rows(), static_cast<int>(s.size()));
  for (int r = 0; r < a.rows(); ++r) {
    double* row = a.RowPtr(r);
    const double f = s[r];
    for (int c = 0; c < a.cols(); ++c) row[c] *= f;
  }
}

void ScaleCols(Matrix& a, const Vector& s) {
  WFM_CHECK_EQ(a.cols(), static_cast<int>(s.size()));
  for (int r = 0; r < a.rows(); ++r) {
    double* row = a.RowPtr(r);
    for (int c = 0; c < a.cols(); ++c) row[c] *= s[c];
  }
}

double Dot(const Vector& a, const Vector& b) {
  WFM_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double NormSq(const Vector& a) { return Dot(a, a); }

double Sum(const Vector& a) {
  double s = 0.0;
  for (double v : a) s += v;
  return s;
}

double MaxAbsVec(const Vector& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace wfm

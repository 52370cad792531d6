#include "linalg/cholesky.h"

#include <cmath>

#include "linalg/kernels.h"
#include "linalg/thread_pool.h"

namespace wfm {

bool Cholesky::Factorize(const Matrix& a, double rel_tol) {
  WFM_CHECK_EQ(a.rows(), a.cols());
  const int n = a.rows();
  l_ = a;
  ok_ = false;

  double max_diag = 0.0;
  for (int i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(a(i, i)));
  const double tol = std::max(rel_tol * max_diag, 0.0);

  for (int j = 0; j < n; ++j) {
    double* lj = l_.RowPtr(j);
    double d = lj[j];
    for (int k = 0; k < j; ++k) d -= lj[k] * lj[k];
    if (!(d > tol)) return false;  // Also rejects NaN.
    const double ljj = std::sqrt(d);
    lj[j] = ljj;
    const double inv = 1.0 / ljj;
    for (int i = j + 1; i < n; ++i) {
      double* li = l_.RowPtr(i);
      double s = li[j];
      for (int k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s * inv;
    }
  }
  // Zero the strict upper triangle so lower() is a clean factor.
  for (int i = 0; i < n; ++i) {
    double* li = l_.RowPtr(i);
    for (int j = i + 1; j < n; ++j) li[j] = 0.0;
  }
  ok_ = true;
  return true;
}

Vector Cholesky::Solve(const Vector& b) const {
  WFM_CHECK(ok_);
  const int n = l_.rows();
  WFM_CHECK_EQ(static_cast<int>(b.size()), n);
  Vector y(b);
  // Forward: L y = b.
  for (int i = 0; i < n; ++i) {
    const double* li = l_.RowPtr(i);
    double s = y[i];
    for (int k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  // Backward: Lᵀ x = y.
  for (int i = n - 1; i >= 0; --i) {
    double s = y[i];
    for (int k = i + 1; k < n; ++k) s -= l_(k, i) * y[k];
    y[i] = s / l_(i, i);
  }
  return y;
}

Matrix Cholesky::Solve(const Matrix& b) const {
  Matrix x(b);
  SolveInPlace(x);
  return x;
}

void Cholesky::SolveInPlace(Matrix& b) const {
  WFM_CHECK(ok_);
  const int n = l_.rows();
  WFM_CHECK_EQ(b.rows(), n);
  const int k_cols = b.cols();
  // Rows are sequentially dependent but columns are independent, so threads
  // own disjoint column stripes and run the full forward + backward
  // substitution on their stripe (row-major friendly within each stripe).
  const kernels::KernelSet& kernel = kernels::ActiveKernels();
  auto stripe = [&](int col_begin, int col_end) {
    kernel.forward_sweep(l_.data(), n, b.data(), k_cols, col_begin, col_end);
    kernel.backward_sweep(l_.data(), n, b.data(), k_cols, col_begin, col_end);
  };
  // Two triangular solves: ~2 n² flops per column. Every stripe re-streams
  // the whole factor L, so the column range is split into exactly one
  // contiguous stripe per thread (not the pool's finer default chunking,
  // which would multiply L traffic by the chunk count).
  const double flops = 2.0 * n * n * k_cols;
  ThreadPool& pool = ThreadPool::Global();
  const int stripes = std::min(pool.num_threads(), k_cols);
  if (flops >= kPoolFlopThreshold && stripes >= 2) {
    pool.ParallelFor(stripes, [&](int begin, int end) {
      for (int s = begin; s < end; ++s) {
        const int col_begin = static_cast<int>(
            static_cast<long long>(k_cols) * s / stripes);
        const int col_end = static_cast<int>(
            static_cast<long long>(k_cols) * (s + 1) / stripes);
        stripe(col_begin, col_end);
      }
    });
  } else {
    stripe(0, k_cols);
  }
}

double Cholesky::LogDet() const {
  WFM_CHECK(ok_);
  double s = 0.0;
  for (int i = 0; i < l_.rows(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

}  // namespace wfm

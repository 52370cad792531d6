#include "linalg/reference_kernels.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace wfm {
namespace reference {
namespace {

/// Work size (output cells x inner length) above which the product kernels
/// split across threads. Small products stay single-threaded: thread startup
/// costs more than the multiply.
constexpr double kParallelFlopThreshold = 4e6;

/// Runs fn(begin, end) over [0, total) split across freshly spawned threads —
/// the pre-pool behavior this file preserves for comparison.
template <typename Fn>
void SpawningParallelFor(int total, double flops, Fn fn) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1 || flops < kParallelFlopThreshold || total < 2) {
    fn(0, total);
    return;
  }
  const int num_threads = static_cast<int>(std::min<unsigned>(hw, total));
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  const int chunk = (total + num_threads - 1) / num_threads;
  for (int t = 1; t < num_threads; ++t) {
    const int begin = t * chunk;
    const int end = std::min(total, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back(fn, begin, end);
  }
  fn(0, std::min(total, chunk));
  for (auto& th : threads) th.join();
}

}  // namespace

Matrix Multiply(const Matrix& a, const Matrix& b) {
  WFM_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  const int n = b.cols();
  const double flops = static_cast<double>(a.rows()) * a.cols() * n;
  SpawningParallelFor(a.rows(), flops, [&](int row_begin, int row_end) {
    for (int i = row_begin; i < row_end; ++i) {
      double* crow = c.RowPtr(i);
      const double* arow = a.RowPtr(i);
      for (int k = 0; k < a.cols(); ++k) {
        const double aik = arow[k];
        if (aik == 0.0) continue;
        const double* brow = b.RowPtr(k);
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  });
  return c;
}

Matrix MultiplyATB(const Matrix& a, const Matrix& b) {
  WFM_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  const int n = b.cols();
  const double flops = static_cast<double>(a.rows()) * a.cols() * n;
  SpawningParallelFor(a.cols(), flops, [&](int out_begin, int out_end) {
    for (int k = 0; k < a.rows(); ++k) {
      const double* arow = a.RowPtr(k);
      const double* brow = b.RowPtr(k);
      for (int i = out_begin; i < out_end; ++i) {
        const double aki = arow[i];
        if (aki == 0.0) continue;
        double* crow = c.RowPtr(i);
        for (int j = 0; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  });
  return c;
}

Matrix MultiplyABT(const Matrix& a, const Matrix& b) {
  WFM_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  const int k_len = a.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (int j = 0; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double s = 0.0;
      for (int k = 0; k < k_len; ++k) s += arow[k] * brow[k];
      crow[j] = s;
    }
  }
  return c;
}

Vector MultiplyVec(const Matrix& a, const Vector& x) {
  WFM_CHECK_EQ(a.cols(), static_cast<int>(x.size()));
  Vector y(a.rows(), 0.0);
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    double s = 0.0;
    for (int j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

Vector MultiplyTVec(const Matrix& a, const Vector& x) {
  WFM_CHECK_EQ(a.rows(), static_cast<int>(x.size()));
  Vector y(a.cols(), 0.0);
  for (int i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* row = a.RowPtr(i);
    for (int j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
  return y;
}

int CholeskyFactorize(const Matrix& a, Matrix& l, double rel_tol) {
  WFM_CHECK_EQ(a.rows(), a.cols());
  const int n = a.rows();
  l = a;

  double max_diag = 0.0;
  for (int i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(a(i, i)));
  const double tol = std::max(rel_tol * max_diag, 0.0);

  for (int j = 0; j < n; ++j) {
    double* lj = l.RowPtr(j);
    double d = lj[j];
    for (int k = 0; k < j; ++k) d -= lj[k] * lj[k];
    if (!(d > tol)) return j;  // Also rejects NaN.
    const double ljj = std::sqrt(d);
    lj[j] = ljj;
    const double inv = 1.0 / ljj;
    for (int i = j + 1; i < n; ++i) {
      double* li = l.RowPtr(i);
      double s = li[j];
      for (int k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s * inv;
    }
  }
  // Zero the strict upper triangle so the result is a clean factor.
  for (int i = 0; i < n; ++i) {
    double* li = l.RowPtr(i);
    for (int j = i + 1; j < n; ++j) li[j] = 0.0;
  }
  return -1;
}

}  // namespace reference
}  // namespace wfm

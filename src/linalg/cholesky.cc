#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/kernels.h"
#include "linalg/thread_pool.h"

namespace wfm {

using kernels::kMr;
using kernels::kNr;

bool Cholesky::Factorize(const Matrix& a, double rel_tol) {
  WFM_CHECK_EQ(a.rows(), a.cols());
  const int n = a.rows();
  l_ = a;
  ok_ = false;
  failed_column_ = -1;

  double max_diag = 0.0;
  for (int i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(a(i, i)));
  const double tol = std::max(rel_tol * max_diag, 0.0);

  for (int j0 = 0; j0 < n; j0 += kPanel) {
    const int j1 = std::min(n, j0 + kPanel);
    if (!FactorPanel(j0, j1, tol)) return false;
    if (j1 < n) UpdateTrailing(j0, j1);
  }
  // Zero the strict upper triangle so lower() is a clean factor.
  for (int i = 0; i < n; ++i) {
    double* li = l_.RowPtr(i);
    for (int j = i + 1; j < n; ++j) li[j] = 0.0;
  }
  ok_ = true;
  return true;
}

bool Cholesky::FactorPanel(int j0, int j1, double tol) {
  const int n = l_.rows();
  // Diagonal block: the unblocked loop, continuing each entry from k = j0.
  for (int j = j0; j < j1; ++j) {
    double* lj = l_.RowPtr(j);
    double d = lj[j];
    for (int k = j0; k < j; ++k) d -= lj[k] * lj[k];
    if (!(d > tol)) {  // Also rejects NaN.
      failed_column_ = j;
      return false;
    }
    const double ljj = std::sqrt(d);
    lj[j] = ljj;
    const double inv = 1.0 / ljj;
    for (int i = j + 1; i < j1; ++i) {
      double* li = l_.RowPtr(i);
      double s = li[j];
      for (int k = j0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s * inv;
    }
  }
  const int rows = n - j1;
  if (rows == 0) return true;

  // Panel below: rows [j1, n) of columns [j0, j1), packed transposed and
  // zero-padded to whole kNr-wide column tiles for the trailing update.
  const int nb = j1 - j0;
  const int ld = (rows + kNr - 1) / kNr * kNr;
  panel_ld_ = ld;
  panel_.resize(static_cast<std::size_t>(nb) * ld);
  for (int jj = 0; jj < nb; ++jj) {
    double* pj = panel_.data() + static_cast<std::size_t>(jj) * ld;
    for (int i = rows; i < ld; ++i) pj[i] = 0.0;
  }
  for (int i = 0; i < rows; ++i) {
    const double* li = l_.RowPtr(j1 + i) + j0;
    for (int jj = 0; jj < nb; ++jj) {
      panel_[static_cast<std::size_t>(jj) * ld + i] = li[jj];
    }
  }
  kernels::ActiveKernels().panel_sweep(l_.RowPtr(j0) + j0, n, nb,
                                       panel_.data(), ld, rows);
  for (int i = 0; i < rows; ++i) {
    double* li = l_.RowPtr(j1 + i) + j0;
    for (int jj = 0; jj < nb; ++jj) {
      li[jj] = panel_[static_cast<std::size_t>(jj) * ld + i];
    }
  }
  return true;
}

void Cholesky::UpdateTrailing(int j0, int j1) {
  const int n = l_.rows();
  const int rows = n - j1;
  const int nb = j1 - j0;
  const int ld = panel_ld_;
  const double* p = panel_.data();
  double* c = l_.RowPtr(j1) + j1;
  const kernels::DowndateFn downdate = kernels::ActiveKernels().downdate_micro;
  // One row tile of kMr rows, across the column tiles that hold its lower
  // triangle. Tiles that straddle the diagonal also update a few entries of
  // the strict upper triangle, which is never read and is zeroed at the end.
  auto row_tiles = [&](int begin, int end) {
    for (int t = begin; t < end; ++t) {
      const int i0 = t * kMr;
      const int mr = std::min(kMr, rows - i0);
      for (int jc = 0; jc < i0 + mr; jc += kNr) {
        downdate(nb, p + i0, p + jc, ld,
                 c + static_cast<std::ptrdiff_t>(i0) * n + jc, n, mr,
                 std::min(kNr, rows - jc));
      }
    }
  };
  const int tiles = (rows + kMr - 1) / kMr;
  // A multiply and a subtraction per lower-triangle entry and panel column.
  const double flops = static_cast<double>(rows) * rows * nb;
  if (flops >= kPoolFlopThreshold && tiles >= 2) {
    ThreadPool::Global().ParallelFor(tiles, row_tiles);
  } else {
    row_tiles(0, tiles);
  }
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
  // Backward: Lᵀ x = y, entry i subtracting l_ki x_k for k = i + 1, …,
  // n − 1 in that order. Those l_ki run down column i of L, a whole row
  // apart (a page apart at n = 512), so each tile of kTile columns, bottom
  // tile first, is copied along L's rows into a compact block whose column
  // entries sit kTile doubles apart, and the entries read that.
  constexpr int kTile = 32;
  std::vector<double> block(static_cast<std::size_t>(std::min(n, kTile)) * n);
  for (int i1 = n; i1 > 0; i1 -= kTile) {
    const int i0 = std::max(0, i1 - kTile);
    const std::size_t w = i1 - i0;  // l_ki is block[(k - i0) * w + i - i0].
    for (int k = i0; k < n; ++k) {
      std::copy_n(l_.RowPtr(k) + i0, w, block.data() + (k - i0) * w);
    }
    for (int i = i1 - 1; i >= i0; --i) {
      const double* col = block.data() + (i - i0);
      double s = y[i];
      for (int k = i + 1; k < n; ++k) s -= col[(k - i0) * w] * y[k];
      y[i] = s / col[(i - i0) * w];
    }
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

}  // namespace wfm

#include "linalg/kron.h"

#include <cstddef>
#include <limits>
#include <utility>

#include "common/check.h"

namespace wfm {
namespace {

// Applies A (or Aᵀ) along the middle axis of a (left, n, right) row-major
// tensor: out[l, r, t] = Σ_c A(r, c) · in[l, c, t]. The inner loop streams
// `right` contiguous doubles per (r, c) pair, so locality is good even when
// the factor matrices are tiny.
void ContractMode(const Matrix& a, bool transpose, std::int64_t left,
                  std::int64_t right, const double* in, Vector& out) {
  const std::int64_t rows = transpose ? a.cols() : a.rows();
  const std::int64_t cols = transpose ? a.rows() : a.cols();
  const std::int64_t out_size =
      CheckedMulNonNegative(CheckedMulNonNegative(left, rows), right);
  out.assign(static_cast<std::size_t>(out_size), 0.0);
  for (std::int64_t l = 0; l < left; ++l) {
    const double* in_block = in + l * cols * right;
    double* out_block = out.data() + l * rows * right;
    for (std::int64_t r = 0; r < rows; ++r) {
      double* out_row = out_block + r * right;
      for (std::int64_t c = 0; c < cols; ++c) {
        const double w = transpose
                             ? a(static_cast<int>(c), static_cast<int>(r))
                             : a(static_cast<int>(r), static_cast<int>(c));
        if (w == 0.0) continue;
        const double* in_row = in_block + c * right;
        for (std::int64_t t = 0; t < right; ++t) out_row[t] += w * in_row[t];
      }
    }
  }
}

void MatVecImpl(const std::vector<const Matrix*>& factors, bool transpose,
                const Vector& x, Vector& y, Vector& scratch) {
  const std::size_t k = factors.size();
  WFM_CHECK_GT(k, 0u) << "KroneckerMatVec needs at least one factor";
  std::int64_t in_dim = 1;
  for (const Matrix* f : factors) {
    WFM_CHECK(f != nullptr);
    in_dim = CheckedMulNonNegative(in_dim,
                                   transpose ? f->rows() : f->cols());
  }
  WFM_CHECK_EQ(static_cast<std::int64_t>(x.size()), in_dim)
      << "Kronecker operand length mismatch";

  // One factor is a plain dense matvec: the pooled row-parallel kernels are
  // several times faster than a single serial mode contraction.
  if (k == 1) {
    if (transpose) {
      MultiplyTVecInto(*factors[0], x, y);
    } else {
      MultiplyVecInto(*factors[0], x, y);
    }
    return;
  }

  // Ping-pong between y and scratch; the first contraction reads x directly.
  const double* src = x.data();
  Vector* dst = &y;
  Vector* other = &scratch;
  std::int64_t left = 1;   // Π of already-contracted output dims.
  std::int64_t right = 1;  // Π of not-yet-contracted input dims.
  for (std::size_t j = 1; j < k; ++j) {
    right = CheckedMulNonNegative(
        right, transpose ? factors[j]->rows() : factors[j]->cols());
  }
  for (std::size_t i = 0; i < k; ++i) {
    const Matrix& a = *factors[i];
    ContractMode(a, transpose, left, right, src, *dst);
    left = CheckedMulNonNegative(left, transpose ? a.cols() : a.rows());
    if (i + 1 < k) {
      const Matrix& next = *factors[i + 1];
      const std::int64_t next_in = transpose ? next.rows() : next.cols();
      WFM_CHECK_GT(next_in, 0);
      right /= next_in;
      src = dst->data();
      std::swap(dst, other);
    }
  }
  if (dst != &y) y = std::move(*dst);
}

}  // namespace

std::int64_t CheckedMulNonNegative(std::int64_t a, std::int64_t b) {
  WFM_CHECK_GE(a, 0);
  WFM_CHECK_GE(b, 0);
  if (a == 0 || b == 0) return 0;
  WFM_CHECK_LE(a, std::numeric_limits<std::int64_t>::max() / b)
      << "product-domain extent overflows int64";
  return a * b;
}

Matrix KroneckerProduct(const Matrix& a, const Matrix& b) {
  const std::int64_t rows =
      CheckedMulNonNegative(a.rows(), b.rows());
  const std::int64_t cols =
      CheckedMulNonNegative(a.cols(), b.cols());
  WFM_CHECK_LE(rows, std::numeric_limits<int>::max());
  WFM_CHECK_LE(cols, std::numeric_limits<int>::max());
  Matrix out(static_cast<int>(rows), static_cast<int>(cols));
  for (int ra = 0; ra < a.rows(); ++ra) {
    for (int rb = 0; rb < b.rows(); ++rb) {
      double* out_row = out.RowPtr(ra * b.rows() + rb);
      const double* b_row = b.RowPtr(rb);
      for (int ca = 0; ca < a.cols(); ++ca) {
        const double w = a(ra, ca);
        if (w == 0.0) continue;
        double* dst = out_row + static_cast<std::size_t>(ca) * b.cols();
        for (int cb = 0; cb < b.cols(); ++cb) dst[cb] = w * b_row[cb];
      }
    }
  }
  return out;
}

Matrix KroneckerProductAll(const std::vector<const Matrix*>& factors) {
  WFM_CHECK_GT(factors.size(), 0u);
  WFM_CHECK(factors[0] != nullptr);
  Matrix out = *factors[0];
  for (std::size_t i = 1; i < factors.size(); ++i) {
    WFM_CHECK(factors[i] != nullptr);
    out = KroneckerProduct(out, *factors[i]);
  }
  return out;
}

Vector KroneckerMatVec(const std::vector<const Matrix*>& factors,
                       const Vector& x) {
  Vector y, scratch;
  KroneckerMatVecInto(factors, x, y, scratch);
  return y;
}

void KroneckerMatVecInto(const std::vector<const Matrix*>& factors,
                         const Vector& x, Vector& y, Vector& scratch) {
  MatVecImpl(factors, /*transpose=*/false, x, y, scratch);
}

void KroneckerMatTVecInto(const std::vector<const Matrix*>& factors,
                          const Vector& x, Vector& y, Vector& scratch) {
  MatVecImpl(factors, /*transpose=*/true, x, y, scratch);
}

std::int64_t KroneckerCols(const std::vector<const Matrix*>& factors) {
  std::int64_t n = 1;
  for (const Matrix* f : factors) {
    WFM_CHECK(f != nullptr);
    n = CheckedMulNonNegative(n, f->cols());
  }
  return n;
}

}  // namespace wfm

#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>

namespace wfm {
namespace {

/// Sum of squares of off-diagonal entries.
double OffDiagonalNormSq(const Matrix& a) {
  double s = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    for (int j = 0; j < a.cols(); ++j) {
      if (i != j) s += row[j] * row[j];
    }
  }
  return s;
}

}  // namespace

EigenDecomposition SymmetricEigen(const Matrix& input, int max_sweeps) {
  WFM_CHECK_EQ(input.rows(), input.cols());
  const int n = input.rows();

  // Symmetrize to protect against round-off asymmetry in upstream products.
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = 0.5 * (input(i, j) + input(j, i));
  }
  Matrix v = Matrix::Identity(n);

  const double frob = std::sqrt(a.FrobeniusNormSq());
  const double tol = std::max(1e-30, 1e-28 * frob * frob);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (OffDiagonalNormSq(a) <= tol) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Classical stable rotation computation (Golub & Van Loan 8.4).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Update rows/columns p and q of A (A <- JᵀAJ).
        for (int k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        // Accumulate eigenvectors: V <- V J.
        for (int k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Extract and sort ascending.
  std::vector<std::pair<double, int>> order(n);
  for (int i = 0; i < n; ++i) order[i] = {a(i, i), i};
  std::sort(order.begin(), order.end());

  EigenDecomposition out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix(n, n);
  for (int i = 0; i < n; ++i) {
    out.eigenvalues[i] = order[i].first;
    const int src = order[i].second;
    for (int k = 0; k < n; ++k) out.eigenvectors(k, i) = v(k, src);
  }
  return out;
}

Vector SingularValuesFromGram(const Matrix& gram) {
  EigenDecomposition eig = SymmetricEigen(gram);
  Vector sv(eig.eigenvalues.size());
  for (std::size_t i = 0; i < sv.size(); ++i) {
    const double lambda = eig.eigenvalues[eig.eigenvalues.size() - 1 - i];
    sv[i] = lambda > 0.0 ? std::sqrt(lambda) : 0.0;
  }
  return sv;
}

}  // namespace wfm

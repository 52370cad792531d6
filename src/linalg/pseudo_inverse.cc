#include "linalg/pseudo_inverse.h"

#include <cmath>

#include "linalg/symmetric_eigen.h"

namespace wfm {
namespace {

/// Applies f to each eigenvalue of the symmetric matrix and reconstructs.
template <typename Fn>
Matrix SpectralFunction(const Matrix& a, Fn f) {
  EigenDecomposition eig = SymmetricEigen(a);
  const int n = a.rows();
  // Reconstruct V f(Λ) Vᵀ without forming intermediate full products twice:
  // scale columns of V by f(lambda), then multiply by Vᵀ.
  Matrix scaled = eig.eigenvectors;
  Vector fvals(n);
  for (int i = 0; i < n; ++i) fvals[i] = f(eig.eigenvalues[i]);
  ScaleCols(scaled, fvals);
  return MultiplyABT(scaled, eig.eigenvectors);
}

double MaxAbsEigen(const Vector& eigenvalues) {
  double m = 0.0;
  for (double v : eigenvalues) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace

Matrix SymmetricPseudoInverse(const Matrix& a, double rel_tol) {
  EigenDecomposition eig = SymmetricEigen(a);
  const double cutoff = rel_tol * MaxAbsEigen(eig.eigenvalues);
  Matrix scaled = eig.eigenvectors;
  Vector inv(eig.eigenvalues.size());
  for (std::size_t i = 0; i < inv.size(); ++i) {
    const double lambda = eig.eigenvalues[i];
    inv[i] = std::abs(lambda) > cutoff ? 1.0 / lambda : 0.0;
  }
  ScaleCols(scaled, inv);
  return MultiplyABT(scaled, eig.eigenvectors);
}

Matrix PsdSqrt(const Matrix& a) {
  return SpectralFunction(a, [](double lambda) {
    return lambda > 0.0 ? std::sqrt(lambda) : 0.0;
  });
}

Matrix PseudoInverse(const Matrix& a, double rel_tol) {
  // A† = (AᵀA)† Aᵀ. Valid for any A; computed spectrally.
  const Matrix ata = MultiplyATB(a, a);
  // Use a squared tolerance because eigenvalues of AᵀA are squared singular
  // values of A.
  const Matrix ata_pinv = SymmetricPseudoInverse(ata, rel_tol * rel_tol);
  return MultiplyABT(ata_pinv, a);
}

PsdSolver::PsdSolver(const Matrix& a) {
  if (chol_.Factorize(a)) {
    used_cholesky_ = true;
  } else {
    pinv_ = SymmetricPseudoInverse(a);
  }
}

Matrix PsdSolver::Solve(const Matrix& b) const {
  if (used_cholesky_) return chol_.Solve(b);
  return Multiply(pinv_, b);
}

Vector PsdSolver::Solve(const Vector& b) const {
  if (used_cholesky_) return chol_.Solve(b);
  return MultiplyVec(pinv_, b);
}

}  // namespace wfm

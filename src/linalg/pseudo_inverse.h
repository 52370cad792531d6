// Pseudo-inverse, matrix functions and PSD solves built on SymmetricEigen.
//
// The optimization objective (Theorem 3.11) and the closed-form V
// (Theorem 3.10) are written in terms of the Moore-Penrose pseudo-inverse of
// the symmetric PSD matrix A = Qᵀ D_Q⁻¹ Q. On the optimizer's trajectory A is
// positive definite, so PsdSolver prefers Cholesky and falls back to the
// spectral pseudo-inverse near rank deficiency.

#ifndef WFM_LINALG_PSEUDO_INVERSE_H_
#define WFM_LINALG_PSEUDO_INVERSE_H_

#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace wfm {

/// Moore-Penrose pseudo-inverse of a symmetric (PSD or indefinite) matrix.
/// Eigenvalues with |lambda| <= rel_tol * max|lambda| are treated as zero.
Matrix SymmetricPseudoInverse(const Matrix& a, double rel_tol = 1e-10);

/// Symmetric PSD square root: B with B B = A. Negative eigenvalues (round-off)
/// are clamped to zero.
Matrix PsdSqrt(const Matrix& a);

/// Pseudo-inverse of a general rectangular matrix via the eigendecomposition
/// of AᵀA (adequate for the moderately conditioned matrices in this project).
Matrix PseudoInverse(const Matrix& a, double rel_tol = 1e-10);

/// Solves A X = B for symmetric PSD A: Cholesky when positive definite, else
/// spectral pseudo-inverse (minimum-norm solution on the range of A).
class PsdSolver {
 public:
  explicit PsdSolver(const Matrix& a);

  /// True if the fast Cholesky path was used (A numerically PD).
  bool used_cholesky() const { return used_cholesky_; }

  Matrix Solve(const Matrix& b) const;
  Vector Solve(const Vector& b) const;

 private:
  Cholesky chol_;
  Matrix pinv_;  // Only populated on the fallback path.
  bool used_cholesky_ = false;
};

}  // namespace wfm

#endif  // WFM_LINALG_PSEUDO_INVERSE_H_

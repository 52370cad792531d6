// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Jacobi is slower than tridiagonalization+QR but is simple, numerically
// robust, and produces fully orthogonal eigenvectors — important because the
// pseudo-inverse, the matrix square root (Matrix Mechanism baseline) and the
// SVD lower bound (Theorem 5.6) are all built on it. All inputs in this
// project are at most a few thousand on a side.

#ifndef WFM_LINALG_SYMMETRIC_EIGEN_H_
#define WFM_LINALG_SYMMETRIC_EIGEN_H_

#include "linalg/matrix.h"

namespace wfm {

struct EigenDecomposition {
  /// Eigenvalues in ascending order.
  Vector eigenvalues;
  /// Columns are the corresponding orthonormal eigenvectors:
  /// A = V diag(eigenvalues) Vᵀ.
  Matrix eigenvectors;
};

/// Decomposes a symmetric matrix. The input is symmetrized internally
/// ((A+Aᵀ)/2) to absorb round-off asymmetry from upstream products.
EigenDecomposition SymmetricEigen(const Matrix& a, int max_sweeps = 64);

/// Singular values of a workload W given only its Gram matrix G = WᵀW:
/// the square roots of G's eigenvalues (clamped at zero), descending.
Vector SingularValuesFromGram(const Matrix& gram);

}  // namespace wfm

#endif  // WFM_LINALG_SYMMETRIC_EIGEN_H_

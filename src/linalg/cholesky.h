// Cholesky (LLᵀ) factorization of symmetric positive definite matrices.
//
// Three hot paths factor with this class: the strategy optimizer's
// A = Qᵀ D_Q⁻¹ Q at every PGD iteration (core/objective.h), PsdSolver's fast
// path (linalg/pseudo_inverse.h), and WNNLS's free block G_FF at each
// projected-Newton step: any size for a dense Gram, up to 2,048 columns for
// a Kronecker one (estimation/wnnls.h). Callers fall back to the eigenvalue
// pseudo-inverse, or to CG, when Factorize reports failure.
//
// Factorize is blocked and right-looking over column panels of kPanel
// columns. For each panel [j0, j1):
//   - the diagonal block runs the textbook scalar loop over k ∈ [j0, j);
//   - the panel below it is solved against that block by a forward sweep on
//     a packed transpose (kernels::PanelSweepFn);
//   - the trailing matrix is updated, C −= L21 L21ᵀ, by a register-tiled
//     micro-kernel (kernels::DowndateFn), split across the thread pool when
//     the update is large enough.
//
// The factor does not depend on the blocking, the kernel build or the pool
// size, bit for bit. Every entry (i, j), i >= j, sees exactly the sequence of
// the unblocked loop:
//
//   s = a_ij;  s -= l_ik · l_jk  for k = 0, 1, …, j−1;  l_ij = s · (1 / l_jj)
//
// (for i = j: l_jj = √s). The trailing updates of earlier panels perform the
// subtractions for k < j0 in ascending order, each loading the stored partial
// sum and storing it back; the diagonal block or the panel sweep performs
// those for k ∈ [j0, j), then the scaling. No kernel reassociates, skips an
// exact zero, or fuses a multiply-add, and each entry is written by exactly
// one thread. A matrix that fits one panel runs the unblocked loop itself.

#ifndef WFM_LINALG_CHOLESKY_H_
#define WFM_LINALG_CHOLESKY_H_

#include <vector>

#include "linalg/matrix.h"

namespace wfm {

class Cholesky {
 public:
  /// Panel width of the blocked factorization.
  static constexpr int kPanel = 32;

  /// Attempts to factor the symmetric matrix `a` as L Lᵀ. Returns false if a
  /// pivot drops below `rel_tol` times the largest diagonal entry (the matrix
  /// is numerically semi-definite or indefinite); the object is then unusable
  /// and failed_column() names the pivot. Reuses its buffers, so repeated
  /// calls at one size allocate nothing.
  bool Factorize(const Matrix& a, double rel_tol = 1e-12);

  bool ok() const { return ok_; }
  const Matrix& lower() const { return l_; }
  /// The column whose pivot failed in the last Factorize, or -1.
  int failed_column() const { return failed_column_; }

  /// Solves A x = b.
  Vector Solve(const Vector& b) const;
  /// Solves A X = B column-wise (B is n x k).
  Matrix Solve(const Matrix& b) const;
  /// Solves A X = B overwriting `b` with the solution — the allocation-free
  /// form the optimizer workspace uses. Column stripes split across the
  /// thread pool for wide right-hand sides (columns are independent, so the
  /// result is bit-identical across thread counts).
  void SolveInPlace(Matrix& b) const;

 private:
  /// Factors the panel [j0, j1) whose trailing updates are all applied.
  bool FactorPanel(int j0, int j1, double tol);
  /// Applies panel [j0, j1) to the trailing matrix.
  void UpdateTrailing(int j0, int j1);

  Matrix l_;
  /// The panel below the current diagonal block, transposed (kPanel rows,
  /// leading dimension panel_ld_).
  std::vector<double> panel_;
  int panel_ld_ = 0;
  bool ok_ = false;
  int failed_column_ = -1;
};

}  // namespace wfm

#endif  // WFM_LINALG_CHOLESKY_H_

// Optimization objective L(Q) = tr[(Qᵀ D_Q⁻¹ Q)† (WᵀW)] (Theorem 3.11) and
// its analytic gradient — the per-iteration hot path of Algorithm 2.
//
// Gradient (checked against central finite differences in
// tests/objective_test.cc): with d = Q1, D = Diag(d), A = Qᵀ D⁻¹ Q,
// G = WᵀW and S = A⁻¹ G A⁻¹,
//
//   ∇_Q L = -2 D⁻¹ Q S + h 1ᵀ,   h_o = [Q S Qᵀ]_oo / d_o².
//
// The positive-definite path costs one Cholesky factorization plus O(n²m)
// products per evaluation — the O(n²m + n³) the paper reports. A spectral
// pseudo-inverse fallback handles (rare) rank deficiency.
//
// When A fails to factor, a well-conditioned G decides the answer without
// the pseudo-inverse. A failed pivot means λ_min(A) < 1e-12·max diag(A) <=
// 1e-12·λ_max(A), below the pseudo-inverse's 1e-10 relative cutoff, so at
// least one unit eigen-direction u of A is dropped from its range. Along u,
// ‖A A†G − G‖_max >= ‖Gu‖ / n >= λ_min(G) / n. So when λ_min(G) / n clears
// the range test's tolerance 1e-6·max(1, max|G|) by a 10x margin, the
// pseudo-inverse path can only conclude +∞, and the evaluation returns +∞
// directly (GramCertificate). Singular or nearly singular Grams, such as
// marginals and parity, still take the pseudo-inverse path.
//
// Population-weighted variant (src/adaptive re-optimization): the paper's D
// = Diag(Q 1) is the multinomial denominator for a UNIFORM population —
// Cov(y) ≼ Diag(Q x̃) for population mix x̃, and uniform x̃ ∝ 1 recovers
// Q 1. Passing a non-empty `population` x̃ (n-vector of non-negative type
// weights; overall scale is irrelevant to the argmin) evaluates the same
// objective with d = Q x̃, i.e. optimizes expected variance for the
// population actually reporting. The only gradient change is the diagonal
// back-propagation ∂d_o/∂q_ou = x̃_u, turning the rank-one term into h x̃ᵀ.

#ifndef WFM_CORE_OBJECTIVE_H_
#define WFM_CORE_OBJECTIVE_H_

#include <mutex>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace wfm {

/// Whether, for the workload Gram G, every strategy whose A fails to factor
/// has objective +∞ (see the file comment). λ_min(G) is computed on the
/// first query, by one SymmetricEigen(G), under std::call_once, so one
/// certificate can serve concurrent optimizer runs. `gram` must outlive it.
class GramCertificate {
 public:
  explicit GramCertificate(const Matrix& gram) : gram_(gram) {}

  GramCertificate(const GramCertificate&) = delete;
  GramCertificate& operator=(const GramCertificate&) = delete;

  bool FailedFactorIsInfinite() const;

 private:
  const Matrix& gram_;
  mutable std::once_flag once_;
  mutable bool infinite_ = false;
};

struct ObjectiveEvaluation {
  double value = 0.0;
  Matrix gradient;          ///< m x n, same shape as Q.
  bool used_cholesky = true;
};

/// Scratch buffers for the objective evaluation, owned by the caller so the
/// gram (Qᵀ D⁻¹ Q), the scaled strategy, the Cholesky factor, the X/S/QS
/// temporaries, and the gradient are allocated once and reused across every
/// PGD iteration and restart. After a warm-up evaluation at a given (m, n),
/// the Cholesky path performs no heap allocation, nor does a failed
/// factorization that `certificate` settles as +∞ once it has computed
/// λ_min(G) (the rare pseudo-inverse fallback still allocates). Buffers
/// resize transparently if the shape changes, so one workspace can serve a
/// whole optimizer run.
struct ObjectiveWorkspace {
  Vector row_sums;  ///< d = Q 1.
  Vector dinv;      ///< 1/d with 0 for zero-mass rows.
  Matrix dq;        ///< D⁻¹ Q.
  Matrix a;         ///< A = Qᵀ D⁻¹ Q.
  Matrix x;         ///< X = A⁻¹ G (trace of this is the objective).
  Matrix s;         ///< S = A⁻¹ G A⁻¹.
  Matrix qs;        ///< Q S, the gradient driver.
  Matrix gradient;  ///< m x n, valid after EvalObjectiveAndGradient.
  Cholesky chol;
  /// Certificate for the Gram the workspace is evaluated against, shared by
  /// the caller across evaluations. Null: an evaluation whose factorization
  /// fails builds a temporary one.
  const GramCertificate* certificate = nullptr;
  /// Pseudo-inverse evaluations since the last PublishPseudoInverses.
  int pseudo_inverses = 0;
};

/// Adds ws.pseudo_inverses to wfm_optimizer_pseudo_inverse_total and resets
/// it. The value-returning forms below publish their own count.
void PublishPseudoInverses(ObjectiveWorkspace& ws);

struct ObjectiveValue {
  double value = 0.0;
  bool used_cholesky = true;  ///< False when A failed to factor.
};

/// Value + gradient. `gram` is the workload Gram matrix G = WᵀW.
ObjectiveEvaluation EvalObjectiveAndGradient(const Matrix& q, const Matrix& gram);

/// Workspace form: identical numerics, but every temporary (including the
/// returned gradient, left in ws.gradient) lives in `ws`.
ObjectiveValue EvalObjectiveAndGradient(const Matrix& q, const Matrix& gram,
                                        ObjectiveWorkspace& ws);

/// Population-weighted workspace form: d = Q x̃ instead of Q 1 (see the
/// file comment). An empty `population` is the uniform objective.
ObjectiveValue EvalObjectiveAndGradient(const Matrix& q, const Matrix& gram,
                                        const Vector& population,
                                        ObjectiveWorkspace& ws);

/// Value only (cheaper: skips S and the gradient products).
double EvalObjective(const Matrix& q, const Matrix& gram);

/// Workspace form of the value-only evaluation.
double EvalObjective(const Matrix& q, const Matrix& gram,
                     ObjectiveWorkspace& ws);

/// Population-weighted value-only evaluation.
double EvalObjective(const Matrix& q, const Matrix& gram,
                     const Vector& population, ObjectiveWorkspace& ws);

}  // namespace wfm

#endif  // WFM_CORE_OBJECTIVE_H_

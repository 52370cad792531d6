#include "core/objective.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/pseudo_inverse.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

/// Fills ws.row_sums / ws.dinv / ws.dq / ws.a for the strategy q:
/// A = Qᵀ D⁻¹ Q with D = Diag(Q x̃), where x̃ is the population weight
/// vector (empty means uniform, reducing D to the paper's Diag(Q 1)).
/// All outputs live in the workspace.
void PrepareInto(const Matrix& q, const Vector& population,
                 ObjectiveWorkspace& ws) {
  if (population.empty()) {
    q.RowSumsInto(ws.row_sums);
  } else {
    MultiplyVecInto(q, population, ws.row_sums);
  }
  ws.dinv.resize(ws.row_sums.size());
  for (std::size_t o = 0; o < ws.row_sums.size(); ++o) {
    ws.dinv[o] = ws.row_sums[o] > 1e-300 ? 1.0 / ws.row_sums[o] : 0.0;
  }
  ws.dq = q;
  ScaleRows(ws.dq, ws.dinv);
  MultiplyATBInto(q, ws.dq, ws.a);
}

/// On the pseudo-inverse path A is rank deficient; the objective is finite
/// only if range(G) ⊆ range(A) (equivalently W = W Q†Q holds). Otherwise the
/// strategy cannot answer part of the workload at all: the true objective is
/// +infinity, and reporting the truncated trace instead would reward the
/// optimizer for diving into the rank-deficient boundary (the paper relies
/// on the objective blowing up there).
constexpr double kRangeTolerance = 1e-6;

bool RangeCovered(const Matrix& a, const Matrix& x_pinv_g, const Matrix& gram) {
  const Matrix ax = Multiply(a, x_pinv_g);
  const double scale = std::max(1.0, gram.MaxAbs());
  return (ax - gram).MaxAbs() <= kRangeTolerance * scale;
}

/// How FactorOrFallback settled A.
enum class Solve {
  kCholesky,       ///< ws.chol holds A's factor; ws.x = A⁻¹G.
  kPseudoInverse,  ///< pinv = A†; ws.x = A†G, and range(G) ⊆ range(A).
  kInfinite,       ///< The objective is +∞.
};

/// The one place that decides between the Cholesky path, the certified +∞
/// and the pseudo-inverse fallback, for both the value and the gradient.
Solve FactorOrFallback(const Matrix& gram, ObjectiveWorkspace& ws,
                       Matrix& pinv) {
  if (ws.chol.Factorize(ws.a)) {
    ws.x = gram;
    ws.chol.SolveInPlace(ws.x);  // A⁻¹ G.
    return Solve::kCholesky;
  }
  const bool infinite = ws.certificate != nullptr
                            ? ws.certificate->FailedFactorIsInfinite()
                            : GramCertificate(gram).FailedFactorIsInfinite();
  if (infinite) return Solve::kInfinite;
  ++ws.pseudo_inverses;
  pinv = SymmetricPseudoInverse(ws.a);
  MultiplyInto(pinv, gram, ws.x);
  return RangeCovered(ws.a, ws.x, gram) ? Solve::kPseudoInverse
                                        : Solve::kInfinite;
}

Counter& PseudoInverseEvaluations() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "wfm_optimizer_pseudo_inverse_total");
  return counter;
}

}  // namespace

bool GramCertificate::FailedFactorIsInfinite() const {
  std::call_once(once_, [this] {
    const int n = gram_.rows();
    if (n == 0) return;
    // Safety factor between λ_min(G) / n and the range test's tolerance.
    constexpr double kMargin = 10.0;
    const double lambda_min = SymmetricEigen(gram_).eigenvalues.front();
    const double tolerance = kRangeTolerance * std::max(1.0, gram_.MaxAbs());
    infinite_ = lambda_min / n > kMargin * tolerance;
  });
  return infinite_;
}

void PublishPseudoInverses(ObjectiveWorkspace& ws) {
  PseudoInverseEvaluations().Add(ws.pseudo_inverses);
  ws.pseudo_inverses = 0;
}

ObjectiveValue EvalObjectiveAndGradient(const Matrix& q, const Matrix& gram,
                                        const Vector& population,
                                        ObjectiveWorkspace& ws) {
  WFM_CHECK_EQ(q.cols(), gram.rows());
  WFM_CHECK(population.empty() ||
            static_cast<int>(population.size()) == q.cols());
  const int m = q.rows();
  const int n = q.cols();
  PrepareInto(q, population, ws);

  ObjectiveValue out;

  // X = A† G and S = A† G A†. On the Cholesky path two in-place triangular
  // solves; on the (rare, allocating) fallback path two products with the
  // spectral pseudo-inverse.
  Matrix pinv;
  const Solve solve = FactorOrFallback(gram, ws, pinv);
  out.used_cholesky = solve == Solve::kCholesky;
  if (solve == Solve::kInfinite) {
    out.value = std::numeric_limits<double>::infinity();
    ws.gradient.Resize(m, n);
    return out;
  }
  if (solve == Solve::kCholesky) {
    TransposeInto(ws.x, ws.s);
    ws.chol.SolveInPlace(ws.s);  // A⁻¹ (GA⁻¹) = A⁻¹GA⁻¹.
  } else {
    MultiplyInto(ws.x, pinv, ws.s);  // A†G A†.
  }
  out.value = ws.x.Trace();

  // QS (m x n) drives both gradient terms. With d = Q x̃ the diagonal term
  // back-propagates through ∂d_o/∂q_ou = x̃_u, so the rank-one correction is
  // h x̃ᵀ (h 1ᵀ in the uniform case).
  MultiplyInto(q, ws.s, ws.qs);
  ws.gradient.ResizeUninitialized(m, n);  // Every entry written below.
  for (int o = 0; o < m; ++o) {
    const double* qs_row = ws.qs.RowPtr(o);
    const double* q_row = q.RowPtr(o);
    double* g_row = ws.gradient.RowPtr(o);
    const double dinv_o = ws.dinv[o];
    // h_o = (QS · Q)_o / d_o² — the row-wise inner product.
    double h = 0.0;
    for (int u = 0; u < n; ++u) h += qs_row[u] * q_row[u];
    h *= dinv_o * dinv_o;
    if (population.empty()) {
      for (int u = 0; u < n; ++u) {
        g_row[u] = -2.0 * dinv_o * qs_row[u] + h;
      }
    } else {
      for (int u = 0; u < n; ++u) {
        g_row[u] = -2.0 * dinv_o * qs_row[u] + h * population[u];
      }
    }
  }
  return out;
}

ObjectiveValue EvalObjectiveAndGradient(const Matrix& q, const Matrix& gram,
                                        ObjectiveWorkspace& ws) {
  return EvalObjectiveAndGradient(q, gram, Vector(), ws);
}

ObjectiveEvaluation EvalObjectiveAndGradient(const Matrix& q,
                                             const Matrix& gram) {
  ObjectiveWorkspace ws;
  const ObjectiveValue v = EvalObjectiveAndGradient(q, gram, ws);
  PublishPseudoInverses(ws);
  ObjectiveEvaluation out;
  out.value = v.value;
  out.used_cholesky = v.used_cholesky;
  out.gradient = std::move(ws.gradient);
  return out;
}

double EvalObjective(const Matrix& q, const Matrix& gram,
                     const Vector& population, ObjectiveWorkspace& ws) {
  WFM_CHECK_EQ(q.cols(), gram.rows());
  WFM_CHECK(population.empty() ||
            static_cast<int>(population.size()) == q.cols());
  PrepareInto(q, population, ws);
  Matrix pinv;
  if (FactorOrFallback(gram, ws, pinv) == Solve::kInfinite) {
    return std::numeric_limits<double>::infinity();
  }
  return ws.x.Trace();
}

double EvalObjective(const Matrix& q, const Matrix& gram,
                     ObjectiveWorkspace& ws) {
  return EvalObjective(q, gram, Vector(), ws);
}

double EvalObjective(const Matrix& q, const Matrix& gram) {
  ObjectiveWorkspace ws;
  const double value = EvalObjective(q, gram, Vector(), ws);
  PublishPseudoInverses(ws);
  return value;
}

}  // namespace wfm

#include "estimation/wnnls.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/kron.h"
#include "linalg/symmetric_eigen.h"

namespace wfm {
namespace {

/// max_i violation of the KKT conditions for min_{x>=0} f(x):
/// grad_i >= -tol when x_i == 0 and |grad_i| <= tol when x_i > 0.
double KktResidual(const Vector& x, const Vector& grad) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0) {
      worst = std::max(worst, std::abs(grad[i]));
    } else {
      worst = std::max(worst, std::max(0.0, -grad[i]));
    }
  }
  return worst;
}

}  // namespace

double WnnlsLipschitz(const std::vector<const Matrix*>& gram_factors) {
  double lambda = 1.0;
  for (const Matrix* g : gram_factors) {
    lambda *= PowerIterationLargestEigenvalue(*g);
  }
  return 2.0 * lambda;
}

WnnlsResult SolveWnnls(const std::vector<const Matrix*>& gram_factors,
                       const Vector& rhs, const WnnlsOptions& options,
                       const Vector* warm_start) {
  WFM_CHECK_GT(gram_factors.size(), 0u) << "WNNLS needs a Gram factor";
  for (const Matrix* g : gram_factors) {
    WFM_CHECK(g != nullptr);
    WFM_CHECK_EQ(g->rows(), g->cols());
  }
  const std::size_t n = static_cast<std::size_t>(KroneckerCols(gram_factors));
  WFM_CHECK_EQ(rhs.size(), n);

  // Callers with a cached Lipschitz constant (ReportDecoder) pass it in and
  // skip the power iteration.
  const double lip = options.lipschitz > 0.0 ? options.lipschitz
                                             : WnnlsLipschitz(gram_factors);
  WnnlsResult result;
  if (lip <= 0.0) {
    // G = 0: any non-negative x is optimal.
    result.x.assign(n, 0.0);
    result.converged = true;
    return result;
  }
  const double step = 1.0 / lip;

  Vector x(n, 0.0);
  if (warm_start != nullptr) {
    WFM_CHECK_EQ(warm_start->size(), n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::max(0.0, (*warm_start)[i]);
  }
  Vector momentum = x;  // FISTA extrapolation point.
  double t_prev = 1.0;

  // Tolerance scaled to the problem: gradient entries are O(||r||_inf).
  const double tol = options.tolerance * std::max(1.0, MaxAbsVec(rhs));

  // Iteration buffers, hoisted so the loop reuses them.
  Vector grad(n), x_next(n), gx(n), scratch;
  auto gram_op = [&gram_factors, &scratch](const Vector& v, Vector& out) {
    KroneckerMatVecInto(gram_factors, v, out, scratch);
  };
  for (int it = 0; it < options.max_iterations; ++it) {
    // Gradient step at the extrapolated point.
    gram_op(momentum, grad);
    for (std::size_t i = 0; i < n; ++i) grad[i] = 2.0 * (grad[i] - rhs[i]);
    for (std::size_t i = 0; i < n; ++i) {
      x_next[i] = std::max(0.0, momentum[i] - step * grad[i]);
    }

    // Adaptive restart (O'Donoghue & Candès): drop momentum when it points
    // against the descent direction.
    double restart_test = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      restart_test += (momentum[i] - x_next[i]) * (x_next[i] - x[i]);
    }
    double t_next;
    if (restart_test > 0.0) {
      t_next = 1.0;
      momentum = x_next;
    } else {
      t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_prev * t_prev));
      const double gamma = (t_prev - 1.0) / t_next;
      for (std::size_t i = 0; i < n; ++i) {
        momentum[i] = x_next[i] + gamma * (x_next[i] - x[i]);
      }
    }
    std::swap(x, x_next);
    t_prev = t_next;
    result.iterations = it + 1;

    // Check KKT at x every few iterations (gradient at x, not momentum).
    if ((it & 15) == 0 || it + 1 == options.max_iterations) {
      gram_op(x, gx);
      for (std::size_t i = 0; i < n; ++i) gx[i] = 2.0 * (gx[i] - rhs[i]);
      result.kkt_residual = KktResidual(x, gx);
      if (result.kkt_residual <= tol) {
        result.converged = true;
        break;
      }
    }
  }
  result.x = std::move(x);
  gram_op(result.x, gx);
  result.objective = Dot(result.x, gx) - 2.0 * Dot(rhs, result.x);
  return result;
}

WnnlsResult WnnlsEstimate(const ReportDecoder& decoder, const Vector& aggregate,
                          std::int64_t num_reports,
                          const WnnlsOptions& options) {
  const Vector unbiased = decoder.EstimateDataVector(aggregate, num_reports);
  const std::vector<const Matrix*> grams = decoder.gram_factors();
  WnnlsOptions opts = options;
  if (opts.lipschitz <= 0.0) opts.lipschitz = decoder.GramLipschitz();
  Vector rhs, scratch;
  KroneckerMatVecInto(grams, unbiased, rhs, scratch);
  return SolveWnnls(grams, rhs, opts, &unbiased);
}

}  // namespace wfm

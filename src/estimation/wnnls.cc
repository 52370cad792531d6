#include "estimation/wnnls.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/kron.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "workload/kronecker.h"

namespace wfm {
namespace {

// Solver telemetry, recorded once per solve: which path served it and how
// much work it took. A fallback is a free block that did not factor or a
// line search that stalled, after which FISTA finished the solve.
Counter& NewtonSteps() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_wnnls_newton_steps_total");
  return counter;
}

Counter& FistaIterations() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_wnnls_fista_iterations_total");
  return counter;
}

Counter& Fallbacks() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_wnnls_fallback_total");
  return counter;
}

/// Backtracking budget of the projected-Newton line search: 2^-30 ≈ 1e-9 is
/// the smallest step tried before the step counts as stalled.
constexpr int kMaxBacktracks = 30;
/// Armijo fraction of the first-order decrease an accepted step must achieve.
constexpr double kArmijo = 1e-4;

using GramOp = std::function<void(const Vector&, Vector&)>;

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

/// grad = 2(Gx - r).
void Gradient(const GramOp& gram_op, const Vector& x, const Vector& rhs,
              Vector& grad) {
  gram_op(x, grad);
  for (std::size_t i = 0; i < x.size(); ++i) grad[i] = 2.0 * (grad[i] - rhs[i]);
}

/// G_FF for G = ⊗ factors, into `gff` (resized). With one factor, G_FF is a
/// gather of G's entries. With k factors, entry (a, b) is Π_i G_i(u_i, v_i)
/// over the mixed-radix digits of u = free[a] and v = free[b], multiplied
/// left to right as KroneckerProductAll folds, so it reproduces the dense
/// product's entry bit for bit.
void FreeGramInto(const std::vector<const Matrix*>& factors,
                  const std::vector<int>& free, std::vector<int>& digits,
                  Matrix& gff) {
  const std::size_t k = factors.size();
  const int m = static_cast<int>(free.size());
  gff.ResizeUninitialized(m, m);
  if (k == 1) {
    const Matrix& g = *factors[0];
    for (int a = 0; a < m; ++a) {
      const double* src = g.RowPtr(free[a]);
      double* row = gff.RowPtr(a);
      for (int b = 0; b < m; ++b) row[b] = src[free[b]];
    }
    return;
  }
  digits.resize(static_cast<std::size_t>(m) * k);
  for (int a = 0; a < m; ++a) {
    int u = free[a];
    for (std::size_t i = k; i-- > 0;) {
      digits[a * k + i] = u % factors[i]->rows();
      u /= factors[i]->rows();
    }
  }
  for (int a = 0; a < m; ++a) {
    const int* da = &digits[a * k];
    double* row = gff.RowPtr(a);
    for (int b = 0; b < m; ++b) {
      const int* db = &digits[b * k];
      double v = (*factors[0])(da[0], db[0]);
      for (std::size_t i = 1; i < k; ++i) v *= (*factors[i])(da[i], db[i]);
      row[b] = v;
    }
  }
}

/// vᵀ G_FF v - 2 r_Fᵀ v: the objective of any x supported on F. `gv` is
/// scratch for G_FF v; the quadratic term sums v_a (G_FF v)_a in ascending a.
double FreeObjective(const Matrix& gff, const Vector& v, const Vector& rhs_f,
                     Vector& gv) {
  MultiplyVecInto(gff, v, gv);
  return Dot(v, gv) - 2.0 * Dot(rhs_f, v);
}

enum class NewtonExit { kConverged, kBudget, kFallback };

/// Projected Newton (Bertsekas 1982) on the free block, from x and for at
/// most `budget` steps; result.iterations counts the steps taken. Each step
/// takes the free set F = {i : x_i > 0 or g_i <= 0}, solves G_FF z = r_F by
/// Cholesky (the clamped coordinates are zero, so they drop out of the
/// right-hand side), and follows the projected arc P(x + α(z - x)) from
/// α = 1, halving α until the objective falls by an Armijo margin. Only F
/// moves and x stays supported on F, so the objective is evaluated on G_FF.
/// Returns kFallback when G_FF does not factor or no step lowers the
/// objective.
NewtonExit ProjectedNewton(const std::vector<const Matrix*>& factors,
                           const GramOp& gram_op, const Vector& rhs,
                           double tol, int budget, Vector& x,
                           WnnlsResult& result) {
  const std::size_t n = x.size();
  std::vector<int> free, digits;
  Vector grad(n), rhs_f, x_f, trial, gv;
  Matrix gff;
  Cholesky chol;
  for (;;) {
    Gradient(gram_op, x, rhs, grad);
    if (KktResidual(x, grad) <= tol) return NewtonExit::kConverged;
    if (result.iterations >= budget) return NewtonExit::kBudget;

    free.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] > 0.0 || grad[i] <= 0.0) free.push_back(static_cast<int>(i));
    }
    FreeGramInto(factors, free, digits, gff);
    if (!chol.Factorize(gff)) return NewtonExit::kFallback;
    const std::size_t m = free.size();
    rhs_f.resize(m);
    x_f.resize(m);
    for (std::size_t a = 0; a < m; ++a) {
      rhs_f[a] = rhs[free[a]];
      x_f[a] = x[free[a]];
    }
    const Vector z = chol.Solve(rhs_f);

    const double f0 = FreeObjective(gff, x_f, rhs_f, gv);
    trial.resize(m);
    bool accepted = false;
    double alpha = 1.0;
    for (int k = 0; k <= kMaxBacktracks && !accepted; ++k, alpha *= 0.5) {
      // First-order decrease g_Fᵀ(x_F - trial) predicted for the step.
      double predicted = 0.0;
      for (std::size_t a = 0; a < m; ++a) {
        trial[a] = std::max(0.0, x_f[a] + alpha * (z[a] - x_f[a]));
        predicted += grad[free[a]] * (x_f[a] - trial[a]);
      }
      const double decrease = f0 - FreeObjective(gff, trial, rhs_f, gv);
      accepted = decrease > 0.0 && decrease >= kArmijo * predicted;
    }
    if (!accepted) return NewtonExit::kFallback;
    for (std::size_t a = 0; a < m; ++a) x[free[a]] = trial[a];
    ++result.iterations;
  }
}

/// FISTA (accelerated projected gradient with adaptive restart) from x for
/// at most `budget` iterations, adding them to result.iterations. The KKT
/// certificate is checked every 16 iterations and at the last one.
void Fista(const GramOp& gram_op, const Vector& rhs, double lip, double tol,
           int budget, Vector& x, WnnlsResult& result) {
  const std::size_t n = x.size();
  const double step = 1.0 / lip;
  Vector momentum = x;  // FISTA extrapolation point.
  double t_prev = 1.0;
  // Iteration buffers, hoisted so the loop reuses them.
  Vector grad(n), x_next(n), gx(n);
  for (int it = 0; it < budget; ++it) {
    // Gradient step at the extrapolated point.
    Gradient(gram_op, momentum, rhs, grad);
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
    ++result.iterations;

    // Check KKT at x every few iterations (gradient at x, not momentum).
    if ((it & 15) == 0 || it + 1 == budget) {
      Gradient(gram_op, x, rhs, gx);
      if (KktResidual(x, gx) <= tol) {
        result.converged = true;
        return;
      }
    }
  }
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

  WnnlsResult result;
  Vector x(n, 0.0);
  if (warm_start != nullptr) {
    WFM_CHECK_EQ(warm_start->size(), n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::max(0.0, (*warm_start)[i]);
  }
  // Tolerance scaled to the problem: gradient entries are O(||r||_inf).
  const double tol = options.tolerance * std::max(1.0, MaxAbsVec(rhs));

  Vector grad(n), scratch;
  const GramOp gram_op = [&gram_factors, &scratch](const Vector& v,
                                                   Vector& out) {
    KroneckerMatVecInto(gram_factors, v, out, scratch);
  };

  // Newton on the free block wherever a dense G_FF may be formed; FISTA on
  // the operator form above that, and as the Newton path's fallback.
  bool run_fista = options.max_iterations > 0;
  if (run_fista &&
      n <= static_cast<std::size_t>(KroneckerWorkload::kDenseGramLimit)) {
    const NewtonExit exit =
        ProjectedNewton(gram_factors, gram_op, rhs, tol,
                        options.max_iterations, x, result);
    NewtonSteps().Add(result.iterations);
    result.converged = exit == NewtonExit::kConverged;
    run_fista = exit == NewtonExit::kFallback;
    if (run_fista) Fallbacks().Increment();
  }
  if (run_fista) {
    // Callers with a cached Lipschitz constant (ReportDecoder) pass it in
    // and skip the power iteration.
    const double lip = options.lipschitz > 0.0 ? options.lipschitz
                                               : WnnlsLipschitz(gram_factors);
    if (lip <= 0.0) {
      // G = 0: any non-negative x is optimal.
      x.assign(n, 0.0);
      result.converged = true;
    } else {
      const int start = result.iterations;
      Fista(gram_op, rhs, lip, tol, options.max_iterations - start, x, result);
      FistaIterations().Add(result.iterations - start);
    }
  }

  result.x = std::move(x);
  gram_op(result.x, grad);
  result.objective = Dot(result.x, grad) - 2.0 * Dot(rhs, result.x);
  for (std::size_t i = 0; i < n; ++i) grad[i] = 2.0 * (grad[i] - rhs[i]);
  result.kkt_residual = KktResidual(result.x, grad);
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

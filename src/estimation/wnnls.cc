#include "estimation/wnnls.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/kron.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

// Solver telemetry: Newton steps (added once per solve), PCG iterations
// (added per step) and free blocks that did not factor.
Counter& NewtonSteps() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_wnnls_newton_steps_total");
  return counter;
}

Counter& CgIterations() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_wnnls_cg_iterations_total");
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
/// Largest free block of a Kronecker Gram solved by Cholesky. On Prefix
/// domains, 512 or 1,024 left mid-feasibility solves unconverged at the PCG
/// budget and 4,096 cost up to 23 GFlop a step. A one-factor Gram always
/// takes Cholesky: PCG's preconditioner would factor all of G.
constexpr int kMaxCholeskyBlock = 2048;
/// PCG iterations per Newton step.
constexpr int kMaxCgIterations = 100;
/// Eisenstat–Walker forcing term (choice 2): the PCG tolerance of step k is
/// η_k = γ (kkt_k / kkt_{k-1})², safeguarded by γ η_{k-1}² while that exceeds
/// kForcingSafeguard. It starts at kForcingMax and never rises: the KKT
/// residual of an active-set method is not monotone, and a tolerance that
/// loosened after each rise left near-feasible solves taking loose steps
/// for tens of Newton steps.
constexpr double kForcingGamma = 0.9;
constexpr double kForcingMax = 0.5;
constexpr double kForcingSafeguard = 0.1;
/// The PCG tolerance once fewer than kMaxCgIterations coordinates are
/// clamped. The Kronecker preconditioner's error then has rank below the
/// iteration cap, so PCG reaches the exact Newton step within it.
constexpr double kExactForcing = 1e-10;
/// Ridge, relative to ||G_i||_F >= λ_max(G_i) (1 for a zero factor), added
/// to a Gram factor that does not factor, so the preconditioner is definite.
constexpr double kPreconditionerRidge = 1e-6;

/// max_i violation of the KKT conditions for min_{x>=0} f(x):
/// grad_i >= -tol when x_i == 0 and |grad_i| <= tol when x_i > 0.
double KktResidual(const Vector& x, const Vector& grad) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, x[i] > 0.0 ? std::abs(grad[i]) : -grad[i]);
  }
  return worst;
}

/// True when `g` is finite and equal to its transpose bit for bit. Then
/// G x = Σ_{j: x_j ≠ 0} x_j G(j, :) summed in ascending j (MultiplyTVecInto)
/// is MultiplyVecInto's chain for each entry with its ±0 terms dropped: a
/// chain that starts at +0.0 never reaches −0.0, and adding ±0 to it changes
/// nothing. It reads only the rows of the support of x, where the full
/// product reads all of G every Newton step. Compared in square tiles so
/// both of a tile pair's reads stay in cache.
bool FiniteAndSymmetric(const Matrix& g) {
  constexpr int kTile = 64;
  const int n = g.rows();
  for (int i0 = 0; i0 < n; i0 += kTile) {
    const int i1 = std::min(n, i0 + kTile);
    for (int j0 = i0; j0 < n; j0 += kTile) {
      const int j1 = std::min(n, j0 + kTile);
      for (int i = i0; i < i1; ++i) {
        const double* row = g.RowPtr(i);
        for (int j = std::max(i, j0); j < j1; ++j) {
          if (!std::isfinite(row[j]) ||
              std::bit_cast<std::uint64_t>(row[j]) !=
                  std::bit_cast<std::uint64_t>(g(j, i))) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

/// out = G x for G = ⊗ factors, by the rows of the support of x when
/// `by_support` (one factor that FiniteAndSymmetric accepts) and at most 3/4
/// of x is non-zero, else by the full Kronecker product; both give the same
/// bits. Past 3/4 the row sweep is the slower one: at n = 512 (one thread)
/// it took 9 µs at 10% support, 47 µs at half and 87 µs at full support,
/// against 65-68 µs for the full product at any support.
void GramTimes(const std::vector<const Matrix*>& factors, bool by_support,
               const Vector& x, Vector& out, Vector& scratch) {
  const auto support = [&x] {
    return static_cast<std::size_t>(
        std::count_if(x.begin(), x.end(), [](double v) { return v != 0.0; }));
  };
  if (by_support && 4 * support() <= 3 * x.size()) {
    MultiplyTVecInto(*factors[0], x, out);
  } else {
    KroneckerMatVecInto(factors, x, out, scratch);
  }
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

/// The free block as an operator, for the steps Cholesky does not take:
/// G_FF v = (G P_F v)_F, one Kronecker mat-vec over the whole domain, and
/// PCG on G_FF z = r_F preconditioned by (⊗ G_i⁻¹)_FF, or plain CG for one
/// factor. `free` is read at each call, so one operator serves every step
/// of a solve.
class FreeOperator {
 public:
  FreeOperator(const std::vector<const Matrix*>& factors,
               const std::vector<int>& free, std::size_t n)
      : factors_(factors), free_(free), full_(n) {}

  /// out = src_F, the free coordinates of an n-vector.
  void Gather(const Vector& src, Vector& out) const {
    out.resize(free_.size());
    for (std::size_t a = 0; a < free_.size(); ++a) out[a] = src[free_[a]];
  }

  /// out = G_FF v.
  void Apply(const Vector& v, Vector& out) {
    Scatter(v);
    KroneckerMatVecInto(factors_, full_, product_, scratch_);
    Gather(product_, out);
  }

  /// Preconditioned CG on G_FF z = r_F from z = x_F, whose residual
  /// r_F - G_FF x_F = -g_F / 2 the caller passes in `residual`. Stops once
  /// ||residual||₂ <= eta ||residual_0||₂, at a direction of zero curvature,
  /// or after `max_iterations`; returns the iterations taken. G_FF may be
  /// singular: r_F = W_Fᵀ(W x̂) lies in its range, so every iteration still
  /// lowers the objective on F.
  int Pcg(double eta, int max_iterations, Vector& z, Vector& residual) {
    Precondition(residual, s_);
    p_ = s_;
    double rs = Dot(residual, s_);
    const double target = eta * std::sqrt(NormSq(residual));
    int it = 0;
    while (it < max_iterations && rs > 0.0) {
      Apply(p_, q_);
      const double curvature = Dot(p_, q_);
      if (!(curvature > 0.0)) break;
      const double alpha = rs / curvature;
      for (std::size_t a = 0; a < z.size(); ++a) {
        z[a] += alpha * p_[a];
        residual[a] -= alpha * q_[a];
      }
      ++it;
      if (std::sqrt(NormSq(residual)) <= target) break;
      Precondition(residual, s_);
      const double rs_next = Dot(residual, s_);
      const double beta = rs_next / rs;
      for (std::size_t a = 0; a < z.size(); ++a) p_[a] = s_[a] + beta * p_[a];
      rs = rs_next;
    }
    return it;
  }

 private:
  /// out = (⊗ G_i⁻¹)_FF v. Each G_i = L_i L_iᵀ is factored on first use;
  /// mode i then solves L_i and L_iᵀ along the middle axis of the
  /// (left, n_i, right) tensor, so no inverse and no product is formed. A
  /// singular factor (3WayMarginals) is factored with a small ridge on its
  /// diagonal, which keeps the preconditioner definite. A singular
  /// one-factor Gram runs plain CG: G⁻¹ measured 2-9x slower.
  void Precondition(const Vector& v, Vector& out) {
    if (factors_.size() == 1) {
      out = v;
      return;
    }
    if (lower_.empty()) {
      Cholesky chol;
      for (const Matrix* g : factors_) {
        if (!chol.Factorize(*g)) {
          const double norm = std::sqrt(g->FrobeniusNormSq());
          const double ridge = norm > 0.0 ? kPreconditionerRidge * norm : 1.0;
          Matrix shifted = *g;
          for (int d = 0; d < g->rows(); ++d) shifted(d, d) += ridge;
          WFM_CHECK(chol.Factorize(shifted)) << "ridge-shifted Gram factor";
        }
        lower_.push_back(chol.lower());
        upper_.push_back(chol.lower().Transpose());
      }
    }
    Scatter(v);
    std::size_t left = 1;
    std::size_t right = full_.size();
    for (std::size_t i = 0; i < lower_.size(); ++i) {
      const int ni = lower_[i].rows();
      right /= static_cast<std::size_t>(ni);
      for (std::size_t l = 0; l < left; ++l) {
        double* block = full_.data() + l * ni * right;
        // L y = b: row c /= L_cc, then row r -= L_rc row c for r > c.
        for (int c = 0; c < ni; ++c) {
          SweepStep(upper_[i].RowPtr(c), c, c + 1, ni, right, block);
        }
        // Lᵀ x = y: row c /= L_cc, then row r -= L_cr row c for r < c.
        for (int c = ni; c-- > 0;) {
          SweepStep(lower_[i].RowPtr(c), c, 0, c, right, block);
        }
      }
      left *= static_cast<std::size_t>(ni);
    }
    Gather(full_, out);
  }

  /// One column step of a triangular sweep over the rows of `block`, each
  /// `right` doubles long: row c /= coef_c, then row r -= coef_r · row c for
  /// r in [begin, end). `coef` is a row of L or Lᵀ, so every loop streams
  /// contiguous memory; a one-double row runs as one axpy over r.
  static void SweepStep(const double* coef, int c, int begin, int end,
                        std::size_t right, double* block) {
    double* src = block + c * right;
    for (std::size_t t = 0; t < right; ++t) src[t] /= coef[c];
    if (right == 1) {
      const double x = src[0];
      for (int r = begin; r < end; ++r) block[r] -= coef[r] * x;
      return;
    }
    for (int r = begin; r < end; ++r) {
      double* dst = block + r * right;
      for (std::size_t t = 0; t < right; ++t) dst[t] -= coef[r] * src[t];
    }
  }

  void Scatter(const Vector& v) {
    std::fill(full_.begin(), full_.end(), 0.0);
    for (std::size_t a = 0; a < free_.size(); ++a) full_[free_[a]] = v[a];
  }

  const std::vector<const Matrix*>& factors_;
  const std::vector<int>& free_;
  std::vector<Matrix> lower_, upper_;  ///< L_i and L_iᵀ of the Gram factors.
  Vector full_, product_, scratch_, s_, p_, q_;
};

/// Projected Newton (Bertsekas 1982) from x for at most `budget` steps,
/// counted in result.iterations. Each step solves G_FF z = r_F on
/// F = {i : x_i > 0 or g_i <= 0} (clamped coordinates are zero and drop out
/// of the right-hand side) and searches the projected arc toward z. Returns
/// true once the KKT residual is within tol, false when the step or PCG
/// budget runs out or no arc lowers the objective.
bool ProjectedNewton(const std::vector<const Matrix*>& factors,
                     bool by_support, const Vector& rhs, double tol,
                     int budget, Vector& x, WnnlsResult& result) {
  const std::size_t n = x.size();
  std::vector<int> free, digits;
  Vector grad(n), scratch, rhs_f, x_f, trial, step, gv, z, residual;
  Matrix gff;
  Cholesky chol;
  FreeOperator op(factors, free, n);
  // A Gram whose free block did not factor once is singular; its later
  // blocks go straight to PCG.
  bool try_cholesky = true;
  // `budget` also bounds the PCG iterations of the whole solve, so an active
  // set that settles slowly cannot cost `budget` x kMaxCgIterations.
  int cg_budget = budget;
  double eta = kForcingMax;
  double kkt_prev = 0.0;
  for (;;) {
    GramTimes(factors, by_support, x, grad, scratch);
    for (std::size_t i = 0; i < n; ++i) grad[i] = 2.0 * (grad[i] - rhs[i]);
    const double kkt = KktResidual(x, grad);
    if (kkt <= tol) return true;
    if (result.iterations >= budget) return false;
    if (result.iterations > 0) {
      const double safeguard = kForcingGamma * eta * eta;
      double next = kForcingGamma * (kkt / kkt_prev) * (kkt / kkt_prev);
      if (safeguard > kForcingSafeguard) next = std::max(next, safeguard);
      eta = std::min(eta, next);
    }
    kkt_prev = kkt;

    free.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] > 0.0 || grad[i] <= 0.0) free.push_back(static_cast<int>(i));
    }
    const std::size_t m = free.size();
    op.Gather(rhs, rhs_f);
    op.Gather(x, x_f);
    bool dense =
        try_cholesky && (factors.size() == 1 || m <= kMaxCholeskyBlock);
    if (dense) {
      FreeGramInto(factors, free, digits, gff);
      if (!chol.Factorize(gff)) {
        Fallbacks().Increment();
        dense = try_cholesky = false;
      }
    }
    if (dense) {
      z = chol.Solve(rhs_f);
    } else {
      if (cg_budget == 0) return false;
      z = x_f;
      op.Gather(grad, residual);
      for (double& v : residual) v *= -0.5;
      const bool exact = n - m < static_cast<std::size_t>(kMaxCgIterations);
      const int taken = op.Pcg(exact ? kExactForcing : eta,
                               std::min(kMaxCgIterations, cg_budget), z,
                               residual);
      cg_budget -= taken;
      CgIterations().Add(taken);
    }
    // Arc P(x_F + α(z - x_F)) from α = 1, halving α until the objective
    // falls by an Armijo margin. f(x) - f(trial) = -g_Fᵀd - dᵀG_FF d for
    // d = trial - x_F is computed from d: a difference of two objective
    // values loses a late, small decrease to rounding when |f| is large.
    // Near the bound the Newton arc can raise f at every α; the second arc
    // is then projected gradient, toward z = x_F - s g_F with
    // s = ||g_F||² / (2 g_Fᵀ G_FF g_F) its exact line minimizer, which
    // lowers f unless x is stationary.
    trial.resize(m);
    step.resize(m);
    bool accepted = false;
    for (int arc = 0; arc < 2 && !accepted; ++arc) {
      if (arc == 1) {
        op.Gather(grad, residual);
        op.Apply(residual, gv);
        const double curvature = Dot(residual, gv);
        if (!(curvature > 0.0)) return false;
        const double s = NormSq(residual) / (2.0 * curvature);
        for (std::size_t a = 0; a < m; ++a) z[a] = x_f[a] - s * residual[a];
      }
      double alpha = 1.0;
      for (int k = 0; k <= kMaxBacktracks && !accepted; ++k, alpha *= 0.5) {
        // First-order decrease -g_Fᵀd predicted for the step.
        double predicted = 0.0;
        for (std::size_t a = 0; a < m; ++a) {
          trial[a] = std::max(0.0, x_f[a] + alpha * (z[a] - x_f[a]));
          step[a] = trial[a] - x_f[a];
          predicted -= grad[free[a]] * step[a];
        }
        if (dense) {
          MultiplyVecInto(gff, step, gv);
        } else {
          op.Apply(step, gv);
        }
        const double decrease = predicted - Dot(step, gv);
        accepted = decrease > 0.0 && decrease >= kArmijo * predicted;
      }
    }
    if (!accepted) return false;
    for (std::size_t a = 0; a < m; ++a) x[free[a]] = trial[a];
    ++result.iterations;
  }
}

}  // namespace

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

  const bool by_support =
      gram_factors.size() == 1 && FiniteAndSymmetric(*gram_factors[0]);
  if (options.max_iterations > 0) {
    result.converged = ProjectedNewton(gram_factors, by_support, rhs, tol,
                                       options.max_iterations, x, result);
    NewtonSteps().Add(result.iterations);
  }

  result.x = std::move(x);
  Vector grad, scratch;
  GramTimes(gram_factors, by_support, result.x, grad, scratch);
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
  Vector rhs, scratch;
  KroneckerMatVecInto(grams, unbiased, rhs, scratch);
  return SolveWnnls(grams, rhs, options, &unbiased);
}

}  // namespace wfm

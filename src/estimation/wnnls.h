// Workload non-negative least squares (WNNLS; Remark 1 / Appendix A /
// Section 6.7): post-process the unbiased estimate V y into consistent
// workload answers by solving
//
//   x_hat = argmin_{x >= 0} || W x - V y ||²
//
// and answering W x_hat. The quadratic depends on W only through the Gram
// matrix: f(x) = xᵀ G x - 2 rᵀ x + const with r = Wᵀ(V y) = G (B y), so the
// solver is Gram-based like everything else. G is passed as a list of
// factors, G = G_0 ⊗ ... ⊗ G_{k-1}, matching ReportDecoder::gram_factors():
// {G} for a dense deployment, {G_i} for a Kronecker one. Every G x runs
// through KroneckerMatVecInto, whose one-factor case is the pooled dense
// matvec, so there is one solver for both.
//
// The paper uses scipy's L-BFGS-B here. We certify the solution with the
// KKT conditions
//   x >= 0,  g = 2(Gx - r) >= 0 (componentwise, up to tol),  x ∘ g = 0
// and reach them one of two ways:
//
//   * n <= KroneckerWorkload::kDenseGramLimit: projected Newton (Bertsekas
//     1982) on the free block. Each step takes F = {i : x_i > 0 or g_i <= 0},
//     forms G_FF entry by entry from the Gram factors, solves G_FF z = r_F by
//     Cholesky and line-searches along the projected arc toward z; no step
//     raises the objective. Its cost does not grow with the condition
//     number of G (O(n²) for Prefix), so it converges in tens of steps where
//     first-order methods need tens of thousands of iterations.
//   * n above the limit, where no dense block may be formed: FISTA
//     (accelerated projected gradient with adaptive restart) over the
//     operator G x. FISTA is also the fallback when G_FF does not factor
//     (a singular Gram, e.g. 3WayMarginals) or the line search stalls; it
//     continues from the Newton iterate within the remaining budget.
//
// WnnlsResult::iterations counts Newton steps plus FISTA iterations, so
// options.max_iterations bounds both paths together.

#ifndef WFM_ESTIMATION_WNNLS_H_
#define WFM_ESTIMATION_WNNLS_H_

#include <cstdint>
#include <vector>

#include "estimation/decoder.h"
#include "linalg/matrix.h"

namespace wfm {

struct WnnlsOptions {
  /// Newton steps plus FISTA iterations. 0 returns the clipped warm start,
  /// not converged.
  int max_iterations = 3000;
  /// KKT tolerance relative to the gradient scale.
  double tolerance = 1e-8;
  /// Known Lipschitz constant 2·λ_max(G) of the gradient, the FISTA step;
  /// values <= 0 mean "estimate by power iteration" once FISTA runs.
  /// ReportDecoder::GramLipschitz() caches this per deployment so repeated
  /// decodes skip the estimation entirely.
  double lipschitz = 0.0;
};

struct WnnlsResult {
  Vector x;                   ///< Non-negative estimate of the data vector.
  int iterations = 0;         ///< Newton steps + FISTA iterations.
  bool converged = false;     ///< kkt_residual <= tol was certified.
  double objective = 0.0;     ///< xᵀGx - 2rᵀx at the solution.
  double kkt_residual = 0.0;  ///< Largest KKT violation at x.
};

/// 2·λ_max(G) = 2·Π λ_max(G_i) for G = ⊗ gram_factors: the Lipschitz
/// constant of the WNNLS gradient (eigenvalues of a Kronecker product are
/// the products of factor eigenvalues), by power iteration per factor.
double WnnlsLipschitz(const std::vector<const Matrix*>& gram_factors);

/// Solves min_{x>=0} xᵀ G x - 2 rᵀ x with G = ⊗ gram_factors (each square;
/// at least one). `warm_start` (optional) seeds the iteration, e.g. with the
/// clipped unbiased estimate. When FISTA runs and options.lipschitz is not
/// positive, its step size comes from WnnlsLipschitz; G = 0 then returns
/// x = 0, converged. Results do not depend on the ThreadPool size.
WnnlsResult SolveWnnls(const std::vector<const Matrix*>& gram_factors,
                       const Vector& rhs, const WnnlsOptions& options = {},
                       const Vector* warm_start = nullptr);

/// Consistent data-vector estimate from a report aggregate: r = G x_hat with
/// x_hat the decoder's unbiased estimate, solved over the decoder's Gram
/// factors and warm-started at clip(x_hat, 0, inf). Works for any deployable
/// mechanism's decoder (estimation/decoder.h); `num_reports` is the report
/// count N behind the aggregate, which affine decoders (RAPPOR/OUE) need to
/// debias and linear ones ignore.
WnnlsResult WnnlsEstimate(const ReportDecoder& decoder, const Vector& aggregate,
                          std::int64_t num_reports,
                          const WnnlsOptions& options = {});

}  // namespace wfm

#endif  // WFM_ESTIMATION_WNNLS_H_

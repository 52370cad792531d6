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
// and reach them by projected Newton (Bertsekas 1982) at every domain size:
// each step solves G_FF z = r_F on the free block F = {i : x_i > 0 or
// g_i <= 0} and line-searches along the projected arc toward z, so its cost
// does not grow with the condition number of G (O(n²) for Prefix). The
// block is factored by Cholesky for a dense Gram, and for a Kronecker one
// up to 2,048 columns; larger Kronecker blocks and singular Grams are
// solved by (preconditioned) CG on the operator v ↦ (G P_F v)_F, so no
// n x n matrix is formed. Where the Newton arc lowers f nowhere, the step
// follows a projected-gradient arc instead. WnnlsResult::iterations counts
// steps; options.max_iterations bounds them and, separately, the CG
// iterations of the whole solve (wfm_wnnls_cg_iterations_total).

#ifndef WFM_ESTIMATION_WNNLS_H_
#define WFM_ESTIMATION_WNNLS_H_

#include <cstdint>
#include <vector>

#include "estimation/decoder.h"
#include "linalg/matrix.h"

namespace wfm {

struct WnnlsOptions {
  /// Projected-Newton steps; the PCG iterations of the whole solve are
  /// bounded by the same number. 0 returns the clipped warm start, not
  /// converged.
  int max_iterations = 3000;
  /// KKT tolerance relative to the gradient scale.
  double tolerance = 1e-8;
};

struct WnnlsResult {
  Vector x;                   ///< Non-negative estimate of the data vector.
  int iterations = 0;         ///< Projected-Newton steps.
  bool converged = false;     ///< kkt_residual <= tol was certified.
  double objective = 0.0;     ///< xᵀGx - 2rᵀx at the solution.
  double kkt_residual = 0.0;  ///< Largest KKT violation at x.
};

/// Solves min_{x>=0} xᵀ G x - 2 rᵀ x with G = ⊗ gram_factors (each square;
/// at least one). `warm_start` (optional) seeds the iteration, e.g. with the
/// clipped unbiased estimate. Stops unconverged when the step budget runs
/// out or no step lowers the objective, e.g. when it is unbounded below (an
/// r outside range(G), as for G = 0 with some r_i > 0). Results do not
/// depend on the ThreadPool size.
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

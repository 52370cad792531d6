// Kronecker-product kernels: the vec-trick matvec that lets strategy
// optimization and decoding scale past the dense domain ceiling.
//
// Convention used throughout the repo: factor 0 is the MOST significant
// index. For factors A_0 (m_0 x n_0), ..., A_{k-1} (m_{k-1} x n_{k-1}),
// the product A = A_0 ⊗ A_1 ⊗ ... ⊗ A_{k-1} acts on x ∈ R^{Π n_i} indexed
// by the mixed-radix flattening u = ((u_0·n_1 + u_1)·n_2 + u_2)·... — the
// same row-major order a nested loop over attributes produces.
//
// KroneckerMatVec never materializes A: it contracts one mode at a time,
// reshaping the operand as a (left, n_i, right) tensor and applying A_i
// along the middle axis. Peak memory is two buffers of at most
// max_i (Π_{j<i} m_j) · n_i · (Π_{j>i} n_j) doubles — for square-ish
// factors this is O(max(m, n)) where m = Π m_i, n = Π n_i, versus the
// O(m·n) an explicit product would need. Cost is Σ_i left_i·m_i·n_i·right_i
// flops, e.g. O(n · Σ m_i) for equal square factors instead of O(n·m).
// A single factor is an ordinary dense matrix: the one-factor case runs the
// pooled MultiplyVecInto kernel, so dense callers pay nothing for going
// through the Kronecker interface.

#ifndef WFM_LINALG_KRON_H_
#define WFM_LINALG_KRON_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace wfm {

/// Dense A ⊗ B for tests and small explicit paths. Dimensions are checked
/// against int overflow (the result must still fit a dense Matrix).
Matrix KroneckerProduct(const Matrix& a, const Matrix& b);

/// Dense fold of KroneckerProduct over all factors (left to right, so factor
/// 0 is most significant). Requires at least one factor.
Matrix KroneckerProductAll(const std::vector<const Matrix*>& factors);

/// y = (A_0 ⊗ ... ⊗ A_{k-1}) x without materializing the product.
/// x.size() must equal Π cols(A_i). Requires at least one factor.
Vector KroneckerMatVec(const std::vector<const Matrix*>& factors,
                       const Vector& x);

/// Allocation-reusing form: `y` receives the result, `scratch` is an
/// intermediate buffer; both are resized as needed and may be reused across
/// calls. `x` must not alias either.
void KroneckerMatVecInto(const std::vector<const Matrix*>& factors,
                         const Vector& x, Vector& y, Vector& scratch);

/// Π cols(A_i), checked against int64 overflow.
std::int64_t KroneckerCols(const std::vector<const Matrix*>& factors);

/// Multiplies two non-negative extents, aborting (WFM_CHECK) on int64
/// overflow. Shared by the workload layer's product-domain sizing.
std::int64_t CheckedMulNonNegative(std::int64_t a, std::int64_t b);

}  // namespace wfm

#endif  // WFM_LINALG_KRON_H_

// The pre-tiling product kernels and the unblocked Cholesky factorization,
// retained verbatim as a baseline.
//
// These are the exact scalar loops (and the per-call std::thread splitting)
// that matrix.cc shipped before the tiled/pooled kernel layer, and the loop
// Cholesky::Factorize ran before it was blocked. They serve two purposes:
//   - tests/matrix_kernels_test.cc and tests/cholesky_test.cc check the
//     tuned kernels against them on ragged and tail-size shapes, and
//   - bench/perf_suite.cc times them side by side with the current kernels so
//     BENCH_perf.json records the speedup over the old implementation on
//     every run.
//
// They live in the wfm_linalg_reference target, which only tests and
// benches link; it is not part of wfm::all and is not installed.

#ifndef WFM_LINALG_REFERENCE_KERNELS_H_
#define WFM_LINALG_REFERENCE_KERNELS_H_

#include "linalg/matrix.h"

namespace wfm {
namespace reference {

/// C = A * B (i-k-j scalar loops, per-call thread splitting above 4e6 flops).
Matrix Multiply(const Matrix& a, const Matrix& b);
/// C = Aᵀ * B (rank-1 update loops, per-call thread splitting).
Matrix MultiplyATB(const Matrix& a, const Matrix& b);
/// C = A * Bᵀ (row-dot loops, single-threaded).
Matrix MultiplyABT(const Matrix& a, const Matrix& b);
/// y = A x (single-threaded).
Vector MultiplyVec(const Matrix& a, const Vector& x);
/// y = Aᵀ x (single-threaded).
Vector MultiplyTVec(const Matrix& a, const Vector& x);

/// Unblocked Cholesky: factors symmetric `a` into the lower triangle of `l`
/// (strict upper triangle zeroed). Returns -1 on success, or the column j
/// whose pivot dropped below rel_tol times the largest diagonal entry; `l`
/// is then partly written.
int CholeskyFactorize(const Matrix& a, Matrix& l, double rel_tol = 1e-12);

}  // namespace reference
}  // namespace wfm

#endif  // WFM_LINALG_REFERENCE_KERNELS_H_

// The innermost loops of the dense products and solves, each in a portable
// build and an AVX2 build, with the build picked once at run time.
//
// The strategy optimizer spends most of its time in two places: the GEMM
// micro-kernel and the two triangular-solve sweeps of Cholesky::SolveInPlace.
// Cholesky::Factorize spends most of its time in the panel sweep and the
// trailing-update micro-kernel below, and WNNLS in the factorization and the
// row-major matrix-vector product.
// The default build targets baseline x86-64 (SSE2), so the portable loops run
// two doubles wide even on hosts that have AVX2. Each loop therefore also has
// an AVX2 build, compiled with a per-function target attribute so the rest of
// the library keeps the baseline ISA, and ActiveKernels() picks it when
// __builtin_cpu_supports("avx2") says the CPU has it.
//
// Algorithm 1's projection (core/projection.h) follows the same pick: its
// column-lanes sweeps run four columns wide when ActiveKernels() is the AVX2
// build and two wide otherwise.
//
// Both builds give bit-identical results. Every output element sees the same
// operations in the same order, and the AVX2 build multiplies and adds
// separately: its target enables AVX2 only, never FMA, so the compiler
// cannot fuse a*b+c. A strategy optimized on an AVX2 host is therefore the
// same, bit for bit, as one optimized on a host without it.

#ifndef WFM_LINALG_KERNELS_H_
#define WFM_LINALG_KERNELS_H_

namespace wfm::kernels {

/// Micro-tile of the packed GEMM: kMr rows by kNr columns of C.
inline constexpr int kMr = 4;
inline constexpr int kNr = 8;

/// C[0:mr, 0:nr] += A·B over one k panel of depth kc. `pa` holds A packed
/// k-major (kc x kMr), `pb` holds B packed k-major (kc x kNr), both
/// zero-padded, and C is row-major with leading dimension ldc. The full
/// kMr x kNr tile accumulates from +0.0 in ascending k; only the write-back
/// respects the ragged edge mr <= kMr, nr <= kNr.
using MicroKernelFn = void (*)(int kc, const double* pa, const double* pb,
                               double* c, int ldc, int mr, int nr);

/// One triangular sweep over columns [col_begin, col_end) of the row-major
/// n x ldb right-hand side b, in place. `l` is the row-major n x n lower
/// factor L. The forward sweep solves L Y = B, the backward sweep Lᵀ X = Y.
/// Row i subtracts l·(row k) for every earlier row k in order, skipping
/// exact zeros of L, then scales by 1 / L_ii.
using SweepFn = void (*)(const double* l, int n, double* b, int ldb,
                         int col_begin, int col_end);

/// The panel step of the blocked Cholesky factorization. `p` holds the
/// panel below the diagonal block transposed: nb rows of `cols` entries with
/// leading dimension ldp, row jj being column j0 + jj of A. `l` points at the
/// diagonal block's factor L11 (leading dimension ldl). Row jj subtracts
/// L11(jj, kk) · (row kk) for kk = 0 … jj−1 in order, zeros included, then
/// multiplies by 1 / L11(jj, jj); afterwards `p` holds L21ᵀ.
using PanelSweepFn = void (*)(const double* l, int ldl, int nb, double* p,
                              int ldp, int cols);

/// The trailing update of the blocked Cholesky factorization on one
/// kMr x kNr tile: C[r, c] −= a[k·ldp + r] · b[k·ldp + c] for k = 0 … kc−1
/// in ascending order, starting from the value loaded from C. `a` and `b`
/// point into the same transposed panel, so the update is C −= L21 L21ᵀ.
/// Only the ragged edge mr <= kMr, nr <= kNr of C is read and written, but
/// `a` and `b` must be readable for the full kMr and kNr lanes.
using DowndateFn = void (*)(int kc, const double* a, const double* b, int ldp,
                            double* c, int ldc, int mr, int nr);

/// y[r] = Σ_j a[r·lda + j] · x[j] for r in [0, rows): each y[r] is one sum
/// from +0.0 in ascending j, whatever number of rows runs side by side.
using MatVecFn = void (*)(const double* a, int lda, int rows, int cols,
                          const double* x, double* y);

struct KernelSet {
  const char* name;  ///< "portable" or "avx2".
  MicroKernelFn gemm_micro;
  MatVecFn mat_vec;
  SweepFn forward_sweep;
  SweepFn backward_sweep;
  PanelSweepFn panel_sweep;
  DowndateFn downdate_micro;
};

/// The baseline build, available everywhere.
const KernelSet& PortableKernels();

/// The AVX2 build, or nullptr where it is not compiled in (non-x86 targets
/// or compilers without target attributes). Call it only when CpuHasAvx2().
const KernelSet* Avx2Kernels();

/// True when the AVX2 build is compiled in and the running CPU supports it.
bool CpuHasAvx2();

/// The set every product and solve uses: AVX2 when CpuHasAvx2(), otherwise
/// portable. Decided on first use.
const KernelSet& ActiveKernels();

/// Test and bench hook: makes ActiveKernels() return `set` (nullptr restores
/// the run-time choice), which also picks the projection's build. Not for
/// production use; the results are the same anyway.
void SetActiveKernelsForTesting(const KernelSet* set);

}  // namespace wfm::kernels

#endif  // WFM_LINALG_KERNELS_H_

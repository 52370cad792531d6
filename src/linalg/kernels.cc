#include "linalg/kernels.h"

#include <atomic>
#include <cstddef>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define WFM_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define WFM_HAVE_AVX2_KERNELS 0
#endif

namespace wfm::kernels {
namespace {

// ---- Portable builds -------------------------------------------------------

/// The accumulator is always the full kMr x kNr tile (padding lanes multiply
/// zeros), so the loop nest is fully unrollable.
void MicroKernelPortable(int kc, const double* pa, const double* pb, double* c,
                         int ldc, int mr, int nr) {
  double acc[kMr][kNr] = {};
  for (int p = 0; p < kc; ++p) {
    const double* a = pa + p * kMr;
    const double* b = pb + p * kNr;
    for (int r = 0; r < kMr; ++r) {
      const double ar = a[r];
      for (int j = 0; j < kNr; ++j) acc[r][j] += ar * b[j];
    }
  }
  for (int r = 0; r < mr; ++r) {
    double* crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += acc[r][j];
  }
}

/// Four rows' sums run side by side, so four add chains overlap and each x_j
/// is loaded once.
void MatVecPortable(const double* a, int lda, int rows, int cols,
                    const double* x, double* y) {
  int i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* r0 = a + static_cast<std::ptrdiff_t>(i) * lda;
    const double* r1 = r0 + lda;
    const double* r2 = r1 + lda;
    const double* r3 = r2 + lda;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int j = 0; j < cols; ++j) {
      const double xj = x[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < rows; ++i) {
    const double* row = a + static_cast<std::ptrdiff_t>(i) * lda;
    double s = 0.0;
    for (int j = 0; j < cols; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

void ForwardSweepPortable(const double* l, int n, double* b, int ldb,
                          int col_begin, int col_end) {
  for (int i = 0; i < n; ++i) {
    const double* li = l + static_cast<std::ptrdiff_t>(i) * n;
    double* xi = b + static_cast<std::ptrdiff_t>(i) * ldb;
    for (int k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      const double* xk = b + static_cast<std::ptrdiff_t>(k) * ldb;
      for (int c = col_begin; c < col_end; ++c) xi[c] -= lik * xk[c];
    }
    const double inv = 1.0 / li[i];
    for (int c = col_begin; c < col_end; ++c) xi[c] *= inv;
  }
}

void BackwardSweepPortable(const double* l, int n, double* b, int ldb,
                           int col_begin, int col_end) {
  for (int i = n - 1; i >= 0; --i) {
    double* xi = b + static_cast<std::ptrdiff_t>(i) * ldb;
    for (int k = i + 1; k < n; ++k) {
      const double lki = l[static_cast<std::ptrdiff_t>(k) * n + i];
      if (lki == 0.0) continue;
      const double* xk = b + static_cast<std::ptrdiff_t>(k) * ldb;
      for (int c = col_begin; c < col_end; ++c) xi[c] -= lki * xk[c];
    }
    const double inv = 1.0 / l[static_cast<std::ptrdiff_t>(i) * n + i];
    for (int c = col_begin; c < col_end; ++c) xi[c] *= inv;
  }
}

void PanelSweepPortable(const double* l, int ldl, int nb, double* p, int ldp,
                        int cols) {
  for (int jj = 0; jj < nb; ++jj) {
    const double* lj = l + static_cast<std::ptrdiff_t>(jj) * ldl;
    double* xj = p + static_cast<std::ptrdiff_t>(jj) * ldp;
    for (int kk = 0; kk < jj; ++kk) {
      const double f = lj[kk];
      const double* xk = p + static_cast<std::ptrdiff_t>(kk) * ldp;
      for (int c = 0; c < cols; ++c) xj[c] -= f * xk[c];
    }
    const double inv = 1.0 / lj[jj];
    for (int c = 0; c < cols; ++c) xj[c] *= inv;
  }
}

/// Same register tile as the GEMM micro-kernel, but seeded from C and
/// subtracting, so each entry of C is one in-order chain of differences.
void DowndatePortable(int kc, const double* a, const double* b, int ldp,
                      double* c, int ldc, int mr, int nr) {
  double acc[kMr][kNr] = {};
  for (int r = 0; r < mr; ++r) {
    const double* crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) acc[r][j] = crow[j];
  }
  for (int k = 0; k < kc; ++k) {
    const double* ak = a + static_cast<std::ptrdiff_t>(k) * ldp;
    const double* bk = b + static_cast<std::ptrdiff_t>(k) * ldp;
    for (int r = 0; r < kMr; ++r) {
      const double ar = ak[r];
      for (int j = 0; j < kNr; ++j) acc[r][j] -= ar * bk[j];
    }
  }
  for (int r = 0; r < mr; ++r) {
    double* crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] = acc[r][j];
  }
}

const KernelSet kPortable = {
    "portable",           MicroKernelPortable, MatVecPortable,
    ForwardSweepPortable, BackwardSweepPortable, PanelSweepPortable,
    DowndatePortable};

// ---- AVX2 builds -----------------------------------------------------------
//
// Same loops four doubles wide. The target enables AVX2 without FMA, so each
// `sub(x, mul(l, y))` stays a rounded product followed by a rounded
// difference, exactly as in the portable build.

#if WFM_HAVE_AVX2_KERNELS

#define WFM_AVX2 __attribute__((target("avx2")))

WFM_AVX2 void MicroKernelAvx2(int kc, const double* pa, const double* pb,
                              double* c, int ldc, int mr, int nr) {
  __m256d c0l = _mm256_setzero_pd(), c0h = _mm256_setzero_pd();
  __m256d c1l = _mm256_setzero_pd(), c1h = _mm256_setzero_pd();
  __m256d c2l = _mm256_setzero_pd(), c2h = _mm256_setzero_pd();
  __m256d c3l = _mm256_setzero_pd(), c3h = _mm256_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const double* a = pa + p * kMr;
    const __m256d bl = _mm256_loadu_pd(pb + p * kNr);
    const __m256d bh = _mm256_loadu_pd(pb + p * kNr + 4);
    __m256d ar = _mm256_broadcast_sd(a + 0);
    c0l = _mm256_add_pd(c0l, _mm256_mul_pd(ar, bl));
    c0h = _mm256_add_pd(c0h, _mm256_mul_pd(ar, bh));
    ar = _mm256_broadcast_sd(a + 1);
    c1l = _mm256_add_pd(c1l, _mm256_mul_pd(ar, bl));
    c1h = _mm256_add_pd(c1h, _mm256_mul_pd(ar, bh));
    ar = _mm256_broadcast_sd(a + 2);
    c2l = _mm256_add_pd(c2l, _mm256_mul_pd(ar, bl));
    c2h = _mm256_add_pd(c2h, _mm256_mul_pd(ar, bh));
    ar = _mm256_broadcast_sd(a + 3);
    c3l = _mm256_add_pd(c3l, _mm256_mul_pd(ar, bl));
    c3h = _mm256_add_pd(c3h, _mm256_mul_pd(ar, bh));
  }
  if (mr == kMr && nr == kNr) {
    const __m256d tile[kMr][2] = {
        {c0l, c0h}, {c1l, c1h}, {c2l, c2h}, {c3l, c3h}};
    for (int r = 0; r < kMr; ++r) {
      double* crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
      _mm256_storeu_pd(crow,
                       _mm256_add_pd(_mm256_loadu_pd(crow), tile[r][0]));
      _mm256_storeu_pd(crow + 4,
                       _mm256_add_pd(_mm256_loadu_pd(crow + 4), tile[r][1]));
    }
    return;
  }
  alignas(32) double acc[kMr][kNr];
  _mm256_store_pd(acc[0], c0l);
  _mm256_store_pd(acc[0] + 4, c0h);
  _mm256_store_pd(acc[1], c1l);
  _mm256_store_pd(acc[1] + 4, c1h);
  _mm256_store_pd(acc[2], c2l);
  _mm256_store_pd(acc[2] + 4, c2h);
  _mm256_store_pd(acc[3], c3l);
  _mm256_store_pd(acc[3] + 4, c3h);
  for (int r = 0; r < mr; ++r) {
    double* crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += acc[r][j];
  }
}

/// Rows [0, 4·kGroups) of the matrix-vector product. Lane r of s[g] is row
/// 4g + r's sum; a pair of 128-bit loads from rows 4g..4g+3 and two unpacks
/// give the column vectors (a[·][j]) and (a[·][j+1]), each multiplied by a
/// broadcast x_j and added in ascending j.
template <int kGroups>
WFM_AVX2 inline void MatVecRowsAvx2(const double* a, std::ptrdiff_t lda,
                                    int cols, const double* x, double* y) {
  __m256d s[kGroups];
  for (int g = 0; g < kGroups; ++g) s[g] = _mm256_setzero_pd();
  int j = 0;
  for (; j + 2 <= cols; j += 2) {
    const __m256d x0 = _mm256_broadcast_sd(x + j);
    const __m256d x1 = _mm256_broadcast_sd(x + j + 1);
    for (int g = 0; g < kGroups; ++g) {
      const double* r = a + 4 * g * lda + j;
      const __m256d t0 = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(r)), _mm_loadu_pd(r + 2 * lda),
          1);
      const __m256d t1 = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(r + lda)),
          _mm_loadu_pd(r + 3 * lda), 1);
      s[g] = _mm256_add_pd(s[g], _mm256_mul_pd(_mm256_unpacklo_pd(t0, t1), x0));
      s[g] = _mm256_add_pd(s[g], _mm256_mul_pd(_mm256_unpackhi_pd(t0, t1), x1));
    }
  }
  if (j < cols) {
    const __m256d xj = _mm256_broadcast_sd(x + j);
    for (int g = 0; g < kGroups; ++g) {
      const double* r = a + 4 * g * lda + j;
      const __m256d c = _mm256_set_pd(r[3 * lda], r[2 * lda], r[lda], r[0]);
      s[g] = _mm256_add_pd(s[g], _mm256_mul_pd(c, xj));
    }
  }
  for (int g = 0; g < kGroups; ++g) _mm256_storeu_pd(y + 4 * g, s[g]);
}

WFM_AVX2 void MatVecAvx2(const double* a, int lda, int rows, int cols,
                         const double* x, double* y) {
  int i = 0;
  for (; i + 16 <= rows; i += 16) {
    MatVecRowsAvx2<4>(a + static_cast<std::ptrdiff_t>(i) * lda, lda, cols, x,
                      y + i);
  }
  for (; i + 4 <= rows; i += 4) {
    MatVecRowsAvx2<1>(a + static_cast<std::ptrdiff_t>(i) * lda, lda, cols, x,
                      y + i);
  }
  // The last rows - i < 4 rows take the portable loop's one-row path.
  MatVecPortable(a + static_cast<std::ptrdiff_t>(i) * lda, lda, rows - i, cols,
                 x, y + i);
}

/// Row i of a sweep: x_i ← (x_i − Σ_k f_k x_k) / d over columns
/// [col_begin, col_end). The multipliers f_k = coef(k) run over k in
/// [k_begin, k_end) in ascending order, skipping exact zeros when kSkipZeros,
/// and the division is a multiplication by 1/d. Each block of 16 columns
/// stays in registers across the whole k loop; the per-element operation
/// order is that of the portable sweep.
template <bool kSkipZeros, typename Coef>
WFM_AVX2 inline void SweepRowAvx2(double* b, int ldb, int i, int k_begin,
                                  int k_end, Coef coef, double d,
                                  int col_begin, int col_end) {
  double* xi = b + static_cast<std::ptrdiff_t>(i) * ldb;
  const double inv = 1.0 / d;
  const __m256d vinv = _mm256_set1_pd(inv);
  int c = col_begin;
  for (; c + 16 <= col_end; c += 16) {
    __m256d x0 = _mm256_loadu_pd(xi + c);
    __m256d x1 = _mm256_loadu_pd(xi + c + 4);
    __m256d x2 = _mm256_loadu_pd(xi + c + 8);
    __m256d x3 = _mm256_loadu_pd(xi + c + 12);
    for (int k = k_begin; k < k_end; ++k) {
      const double f = coef(k);
      if (kSkipZeros && f == 0.0) continue;
      const __m256d vf = _mm256_set1_pd(f);
      const double* xk = b + static_cast<std::ptrdiff_t>(k) * ldb + c;
      x0 = _mm256_sub_pd(x0, _mm256_mul_pd(vf, _mm256_loadu_pd(xk)));
      x1 = _mm256_sub_pd(x1, _mm256_mul_pd(vf, _mm256_loadu_pd(xk + 4)));
      x2 = _mm256_sub_pd(x2, _mm256_mul_pd(vf, _mm256_loadu_pd(xk + 8)));
      x3 = _mm256_sub_pd(x3, _mm256_mul_pd(vf, _mm256_loadu_pd(xk + 12)));
    }
    _mm256_storeu_pd(xi + c, _mm256_mul_pd(x0, vinv));
    _mm256_storeu_pd(xi + c + 4, _mm256_mul_pd(x1, vinv));
    _mm256_storeu_pd(xi + c + 8, _mm256_mul_pd(x2, vinv));
    _mm256_storeu_pd(xi + c + 12, _mm256_mul_pd(x3, vinv));
  }
  for (; c + 4 <= col_end; c += 4) {
    __m256d x0 = _mm256_loadu_pd(xi + c);
    for (int k = k_begin; k < k_end; ++k) {
      const double f = coef(k);
      if (kSkipZeros && f == 0.0) continue;
      const double* xk = b + static_cast<std::ptrdiff_t>(k) * ldb + c;
      x0 = _mm256_sub_pd(x0,
                         _mm256_mul_pd(_mm256_set1_pd(f), _mm256_loadu_pd(xk)));
    }
    _mm256_storeu_pd(xi + c, _mm256_mul_pd(x0, vinv));
  }
  for (; c < col_end; ++c) {
    double x = xi[c];
    for (int k = k_begin; k < k_end; ++k) {
      const double f = coef(k);
      if (kSkipZeros && f == 0.0) continue;
      x -= f * b[static_cast<std::ptrdiff_t>(k) * ldb + c];
    }
    xi[c] = x * inv;
  }
}

WFM_AVX2 void ForwardSweepAvx2(const double* l, int n, double* b, int ldb,
                               int col_begin, int col_end) {
  for (int i = 0; i < n; ++i) {
    const double* li = l + static_cast<std::ptrdiff_t>(i) * n;
    SweepRowAvx2<true>(
        b, ldb, i, 0, i, [li](int k) { return li[k]; }, li[i], col_begin,
        col_end);
  }
}

WFM_AVX2 void BackwardSweepAvx2(const double* l, int n, double* b, int ldb,
                                int col_begin, int col_end) {
  for (int i = n - 1; i >= 0; --i) {
    const double* col_i = l + i;  // Column i of L, stride n.
    SweepRowAvx2<true>(
        b, ldb, i, i + 1, n,
        [col_i, n](int k) { return col_i[static_cast<std::ptrdiff_t>(k) * n]; },
        col_i[static_cast<std::ptrdiff_t>(i) * n], col_begin, col_end);
  }
}

WFM_AVX2 void PanelSweepAvx2(const double* l, int ldl, int nb, double* p,
                            int ldp, int cols) {
  for (int jj = 0; jj < nb; ++jj) {
    const double* lj = l + static_cast<std::ptrdiff_t>(jj) * ldl;
    SweepRowAvx2<false>(
        p, ldp, jj, 0, jj, [lj](int k) { return lj[k]; }, lj[jj], 0, cols);
  }
}

WFM_AVX2 void DowndateAvx2(int kc, const double* a, const double* b, int ldp,
                           double* c, int ldc, int mr, int nr) {
  // A ragged tile runs on a zero-padded copy of its valid part.
  alignas(32) double edge[kMr][kNr] = {};
  double* t = c;
  int ldt = ldc;
  const bool full = mr == kMr && nr == kNr;
  if (!full) {
    for (int r = 0; r < mr; ++r) {
      const double* crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
      for (int j = 0; j < nr; ++j) edge[r][j] = crow[j];
    }
    t = edge[0];
    ldt = kNr;
  }
  double* t0 = t;
  double* t1 = t + ldt;
  double* t2 = t + 2 * static_cast<std::ptrdiff_t>(ldt);
  double* t3 = t + 3 * static_cast<std::ptrdiff_t>(ldt);
  __m256d c0l = _mm256_loadu_pd(t0), c0h = _mm256_loadu_pd(t0 + 4);
  __m256d c1l = _mm256_loadu_pd(t1), c1h = _mm256_loadu_pd(t1 + 4);
  __m256d c2l = _mm256_loadu_pd(t2), c2h = _mm256_loadu_pd(t2 + 4);
  __m256d c3l = _mm256_loadu_pd(t3), c3h = _mm256_loadu_pd(t3 + 4);
  for (int k = 0; k < kc; ++k) {
    const double* ak = a + static_cast<std::ptrdiff_t>(k) * ldp;
    const double* bk = b + static_cast<std::ptrdiff_t>(k) * ldp;
    const __m256d bl = _mm256_loadu_pd(bk);
    const __m256d bh = _mm256_loadu_pd(bk + 4);
    __m256d ar = _mm256_broadcast_sd(ak + 0);
    c0l = _mm256_sub_pd(c0l, _mm256_mul_pd(ar, bl));
    c0h = _mm256_sub_pd(c0h, _mm256_mul_pd(ar, bh));
    ar = _mm256_broadcast_sd(ak + 1);
    c1l = _mm256_sub_pd(c1l, _mm256_mul_pd(ar, bl));
    c1h = _mm256_sub_pd(c1h, _mm256_mul_pd(ar, bh));
    ar = _mm256_broadcast_sd(ak + 2);
    c2l = _mm256_sub_pd(c2l, _mm256_mul_pd(ar, bl));
    c2h = _mm256_sub_pd(c2h, _mm256_mul_pd(ar, bh));
    ar = _mm256_broadcast_sd(ak + 3);
    c3l = _mm256_sub_pd(c3l, _mm256_mul_pd(ar, bl));
    c3h = _mm256_sub_pd(c3h, _mm256_mul_pd(ar, bh));
  }
  _mm256_storeu_pd(t0, c0l);
  _mm256_storeu_pd(t0 + 4, c0h);
  _mm256_storeu_pd(t1, c1l);
  _mm256_storeu_pd(t1 + 4, c1h);
  _mm256_storeu_pd(t2, c2l);
  _mm256_storeu_pd(t2 + 4, c2h);
  _mm256_storeu_pd(t3, c3l);
  _mm256_storeu_pd(t3 + 4, c3h);
  if (!full) {
    for (int r = 0; r < mr; ++r) {
      for (int j = 0; j < nr; ++j) {
        c[static_cast<std::ptrdiff_t>(r) * ldc + j] = edge[r][j];
      }
    }
  }
}

#undef WFM_AVX2

const KernelSet kAvx2 = {"avx2",           MicroKernelAvx2,  MatVecAvx2,
                         ForwardSweepAvx2, BackwardSweepAvx2, PanelSweepAvx2,
                         DowndateAvx2};

#endif  // WFM_HAVE_AVX2_KERNELS

std::atomic<const KernelSet*> g_testing_override{nullptr};

}  // namespace

const KernelSet& PortableKernels() { return kPortable; }

const KernelSet* Avx2Kernels() {
#if WFM_HAVE_AVX2_KERNELS
  return &kAvx2;
#else
  return nullptr;
#endif
}

bool CpuHasAvx2() {
#if WFM_HAVE_AVX2_KERNELS
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

const KernelSet& ActiveKernels() {
  const KernelSet* set = g_testing_override.load(std::memory_order_acquire);
  if (set != nullptr) return *set;
  static const KernelSet& chosen =
      CpuHasAvx2() ? *Avx2Kernels() : PortableKernels();
  return chosen;
}

void SetActiveKernelsForTesting(const KernelSet* set) {
  g_testing_override.store(set, std::memory_order_release);
}

}  // namespace wfm::kernels

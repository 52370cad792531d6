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

const KernelSet kPortable = {"portable", MicroKernelPortable,
                             ForwardSweepPortable, BackwardSweepPortable};

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

/// Row i of a sweep: x_i ← (x_i − Σ_k f_k x_k) / d over columns
/// [col_begin, col_end). The multipliers f_k = coef(k) run over k in
/// [k_begin, k_end) in ascending order, skipping exact zeros, and the
/// division is a multiplication by 1/d. Each block of 16 columns stays in
/// registers across the whole k loop; the per-element operation order is
/// that of the portable sweep.
template <typename Coef>
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
      if (f == 0.0) continue;
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
      if (f == 0.0) continue;
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
      if (f == 0.0) continue;
      x -= f * b[static_cast<std::ptrdiff_t>(k) * ldb + c];
    }
    xi[c] = x * inv;
  }
}

WFM_AVX2 void ForwardSweepAvx2(const double* l, int n, double* b, int ldb,
                               int col_begin, int col_end) {
  for (int i = 0; i < n; ++i) {
    const double* li = l + static_cast<std::ptrdiff_t>(i) * n;
    SweepRowAvx2(
        b, ldb, i, 0, i, [li](int k) { return li[k]; }, li[i], col_begin,
        col_end);
  }
}

WFM_AVX2 void BackwardSweepAvx2(const double* l, int n, double* b, int ldb,
                                int col_begin, int col_end) {
  for (int i = n - 1; i >= 0; --i) {
    const double* col_i = l + i;  // Column i of L, stride n.
    SweepRowAvx2(
        b, ldb, i, i + 1, n,
        [col_i, n](int k) { return col_i[static_cast<std::ptrdiff_t>(k) * n]; },
        col_i[static_cast<std::ptrdiff_t>(i) * n], col_begin, col_end);
  }
}

#undef WFM_AVX2

const KernelSet kAvx2 = {"avx2", MicroKernelAvx2, ForwardSweepAvx2,
                         BackwardSweepAvx2};

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

#include "core/projection.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/lanes.h"
#include "linalg/kernels.h"
#include "obs/metrics.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define WFM_HAVE_AVX2_SWEEPS 1
#else
#define WFM_HAVE_AVX2_SWEEPS 0
#endif

namespace wfm {
namespace {

/// Columns whose piece search missed the 1e-9 column-sum check and went
/// through the bisection polish; added once per projection call.
Counter& ProjectionPolishes() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_projection_polish_total");
  return counter;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// A piece holds the root when its solution lies inside it, up to this slack
// (absolute, in units of λ).
constexpr double kPieceSlack = 1e-12;

/// The bounds every column is clipped to, with the sums the bracket pass
/// reads: Σ lo and Σ ub, each added in ascending row order.
struct Bounds {
  Bounds(const double* lo_in, const double* ub_in, int m_in)
      : lo(lo_in), ub(ub_in), m(m_in) {
    for (int o = 0; o < m; ++o) {
      lo_sum += lo[o];
      ub_sum += ub[o];
    }
  }

  const double* lo;
  const double* ub;
  int m;
  double lo_sum = 0.0;
  double ub_sum = 0.0;
};

/// One column's safeguarded-Newton search for its shift λ (Cominetti,
/// Mascarenhas & Silva 2014). The bracket pass starts it; every later sweep
/// evaluates the linear piece of f(t) = Σ_o clip(r_o + t, lo_o, ub_o) that
/// holds `t`, and Take() either reads λ from that piece or moves one end of
/// the bracket to a breakpoint at or beyond t.
struct ColumnSearch {
  double left = 0.0;  ///< f(left) = f_left < 1.
  double right = 0.0;  ///< f(right) = f_right > 1.
  double f_left = 0.0;
  double f_right = 0.0;
  double last_breakpoint = 0.0;  ///< Where a failed search ends.
  double t = 0.0;  ///< The next sweep's guess.
  double lambda = 0.0;
  int passes = 1;  ///< Sweeps over the column, the bracket pass included.
  bool done = false;

  void Finish(double value) {
    lambda = value;
    done = true;
  }

  /// The extreme breakpoints bracket the root: every entry is at its lower
  /// bound at `min_activate` and at its upper bound at `max_saturate`, so
  /// f there is Σ lo and Σ ub. The first guess is the shift with no entry
  /// clipped.
  void Start(double min_activate, double max_saturate, double r_sum,
             const Bounds& b) {
    left = min_activate;
    right = max_saturate;
    f_left = b.lo_sum;
    f_right = b.ub_sum;
    if (std::abs(f_left - 1.0) <= kPieceSlack) return Finish(left);
    // Where the search finds no piece it falls back, as the sorted sweep
    // did, to the last breakpoint, and the caller's polish takes over: when
    // Σ ub is 1, when the bounds admit no root, and when rounding hides the
    // root (only for |r| far beyond the bounds' scale, as after a failed
    // step).
    last_breakpoint = right;
    if (!(f_left < 1.0 && f_right > 1.0 + kPieceSlack)) {
      return Finish(last_breakpoint);
    }
    t = (1.0 - r_sum) / b.m;
    Guard();
  }

  /// The next t is the Newton step when it falls strictly inside the
  /// bracket, else the secant through the bracket's ends, else its
  /// midpoint, so every sweep moves an end to a new breakpoint and the
  /// search ends within 2m + 1 sweeps.
  void Guard() {
    if (!(t > left && t < right)) {
      t = left + (1.0 - f_left) * (right - left) / (f_right - f_left);
      if (!(t > left && t < right)) t = 0.5 * (left + right);
      if (!(t > left && t < right)) return Finish(last_breakpoint);
    }
    ++passes;
  }

  /// Takes the piece at t: on [below, above] every entry keeps the clip
  /// state it has at t, so f(s) = fixed + free_r + free · s there.
  void Take(double fixed, double free_r, int free, double below,
            double above) {
    if (free == 0) {
      // Flat piece: f = fixed on all of it. If that is 1, return its left
      // end, where the piece to its left has its solution.
      if (std::abs(fixed - 1.0) <= kPieceSlack) {
        return Finish(std::isfinite(below) ? below : above);
      }
      if (fixed < 1.0) {
        left = above;
        f_left = fixed;
      } else {
        right = below;
        f_right = fixed;
      }
      t = std::numeric_limits<double>::quiet_NaN();  // Take the secant.
      return Guard();
    }
    const double root = (1.0 - fixed - free_r) / free;
    // A piece of zero width (its free entries' bounds closer than r's
    // spacing, as after a failed step) never holds the root, as in the
    // sorted sweep.
    if (below < above && root >= below - kPieceSlack &&
        root <= above + kPieceSlack) {
      return Finish(root);
    }
    if (root > above) {
      left = above;
      f_left = fixed + free_r + free * above;
    } else {
      right = below;
      f_right = fixed + free_r + free * below;
    }
    t = root;  // The Newton step.
    Guard();
  }
};

// ---- The column-lanes sweeps ------------------------------------------------
//
// Each sweep runs down the rows of a group of up to L::kWidth adjacent
// columns of the row-major input, one vector lane per column: row o of the
// group is the contiguous run r[o·ld + j], j < count. A lane computes
// exactly what a scalar sweep down its own column would, and every sum and
// min/max it keeps runs in ascending row order, so each column's λ, pass
// count, q and pattern are the same, bit for bit, at every width. Lanes
// past `count` (the last group of a width that does not divide n) repeat
// lane 0 and are never read back.
//
// The entries' clip states are decided by comparisons, which a branch would
// mispredict, so each sum selects every entry's contribution instead: an
// entry in another state contributes -0.0 (the exact additive identity) or
// ±∞ (the identity of min/max).
//
// The sweeps use only the vector extensions' operators, never a function
// that takes or returns a vector, and are always inlined: the four-lane
// build then compiles entirely inside its AVX2 entry point below, and no
// 32-byte vector crosses a function boundary compiled for baseline x86-64.
// A scalar x splats exactly as `x - V{}` (x − (+0) is x for every x,
// -0.0 included).

/// The two-lane build, core/lanes.h's vectors (SSE2 on x86-64).
struct TwoLanes {
  using V = lanes::Lanes;
  using M = lanes::Mask;
  static constexpr int kWidth = 2;
};

#if WFM_HAVE_AVX2_SWEEPS
/// The four-lane build, instantiated only under target("avx2").
struct FourLanes {
  typedef double V __attribute__((vector_size(32)));
  typedef std::int64_t M __attribute__((vector_size(32)));
  static constexpr int kWidth = 4;
};
#endif

#define WFM_INLINE_SWEEP inline __attribute__((always_inline))

/// Row `p` of a group: lanes [0, count) from p, the rest copies of lane 0.
template <class L>
WFM_INLINE_SWEEP void LoadRow(const double* p, int count, typename L::V& v) {
  if (count == L::kWidth) {
    std::memcpy(&v, p, sizeof v);
    return;
  }
  v = p[0] - typename L::V{};
  std::memcpy(&v, p, count * sizeof(double));
}

/// Stores lanes [0, count) of `v` and of the clip states `state` to row `q`
/// and row `pattern` of a group.
template <class L>
WFM_INLINE_SWEEP void StoreRow(const typename L::V& v,
                               const typename L::M& state, int count,
                               double* q, ClipState* pattern) {
  if (count == L::kWidth) {
    std::memcpy(q, &v, sizeof v);
    for (int j = 0; j < L::kWidth; ++j) {
      pattern[j] = static_cast<ClipState>(state[j]);
    }
    return;
  }
  std::memcpy(q, &v, count * sizeof(double));
  for (int j = 0; j < count; ++j) pattern[j] = static_cast<ClipState>(state[j]);
}

/// Bracket pass: each lane's smallest activation breakpoint lo_o - r_o,
/// largest saturation breakpoint ub_o - r_o, and Σ r_o.
template <class L>
WFM_INLINE_SWEEP void StartGroup(const Bounds& b, const double* r,
                                 std::ptrdiff_t ld, int count,
                                 ColumnSearch* search) {
  using V = typename L::V;
  V left = kInf - V{};
  V right = -kInf - V{};
  V r_sum = {};
  for (int o = 0; o < b.m; ++o) {
    V rv = {};
    LoadRow<L>(r + o * ld, count, rv);
    const V activate = b.lo[o] - rv;
    const V saturate = b.ub[o] - rv;
    left = activate < left ? activate : left;  // std::min(left, activate).
    right = right < saturate ? saturate : right;  // std::max.
    r_sum += rv;
  }
  for (int j = 0; j < L::kWidth; ++j) {
    if (j < count) search[j].Start(left[j], right[j], r_sum[j], b);
  }
}

/// One piece sweep: each unsettled lane j takes the piece holding its own
/// search[j].t. Returns false, without sweeping, once every lane settled.
template <class L>
WFM_INLINE_SWEEP bool SweepPieces(const Bounds& b, const double* r,
                                  std::ptrdiff_t ld, int count,
                                  ColumnSearch* search) {
  using V = typename L::V;
  using M = typename L::M;
  V t = {};
  bool active = false;
  for (int j = 0; j < L::kWidth; ++j) {
    if (j >= count || search[j].done) continue;
    t[j] = search[j].t;
    active = true;
  }
  if (!active) return false;
  const V neg_zero = -V{};
  const V inf = kInf - V{};
  V fixed = {};   // Σ of the bounds the clipped entries sit at.
  V free_r = {};  // Σ r_o over the free entries.
  M free = {};    // Minus the free entries' count (a true mask lane is -1).
  V below = -inf;
  V above = inf;
  for (int o = 0; o < b.m; ++o) {
    V rv = {};
    LoadRow<L>(r + o * ld, count, rv);
    const V lov = b.lo[o] - V{};
    const V ubv = b.ub[o] - V{};
    // Entry o leaves its lower bound at the breakpoint lo_o - r_o and
    // reaches its upper bound at ub_o - r_o; the states are decided by
    // comparing t with those breakpoints, so t always lies in
    // [below, above].
    const V activate = lov - rv;
    const V saturate = ubv - rv;
    const M at_lower = (M)(t <= activate);
    const M at_upper = ~at_lower & (M)(t >= saturate);
    const M is_free = ~(at_lower | at_upper);
    fixed += at_lower ? lov : (at_upper ? ubv : neg_zero);
    free_r += is_free ? rv : neg_zero;
    free += is_free;
    const V next_above = at_upper ? inf : (at_lower ? activate : saturate);
    above = next_above < above ? next_above : above;  // std::min.
    const V next_below = at_lower ? -inf : (at_upper ? saturate : activate);
    below = below < next_below ? next_below : below;  // std::max.
  }
  for (int j = 0; j < L::kWidth; ++j) {
    if (j >= count || search[j].done) continue;
    search[j].Take(fixed[j], free_r[j], static_cast<int>(-free[j]), below[j],
                   above[j]);
  }
  return true;
}

/// Clip-and-write: q = clip(r + λ, lo, ub) and its state (1 at the lower
/// bound, 2 at the upper, 0 free; an entry on a bound counts as clipped, as
/// in the piece sweep), stored along the rows. `sums` receives each lane's
/// column-sum check Σ_o std::min(std::max(r_o + λ, lo_o), ub_o).
template <class L>
WFM_INLINE_SWEEP void ClipGroup(const Bounds& b, const double* r,
                                std::ptrdiff_t ld, int count,
                                const ColumnSearch* search, double* q,
                                ClipState* pattern, double* sums) {
  using V = typename L::V;
  using M = typename L::M;
  V lambda = search[0].lambda - V{};
  for (int j = 1; j < L::kWidth; ++j) {
    if (j < count) lambda[j] = search[j].lambda;
  }
  V sum = {};
  for (int o = 0; o < b.m; ++o) {
    V rv = {};
    LoadRow<L>(r + o * ld, count, rv);
    const V lov = b.lo[o] - V{};
    const V ubv = b.ub[o] - V{};
    const V raw = rv + lambda;
    const M at_lower = (M)(raw <= lov);
    const M at_upper = ~at_lower & (M)(raw >= ubv);
    const V val = at_lower ? lov : (at_upper ? ubv : raw);
    const M state = (at_lower & 1) | (at_upper & 2);
    const V floor = raw < lov ? lov : raw;
    sum += ubv < floor ? ubv : floor;
    StoreRow<L>(val, state, count, q + o * ld, pattern + o * ld);
  }
  for (int j = 0; j < L::kWidth; ++j) sums[j] = sum[j];
}

/// Σ_o std::min(std::max(r_o + λ, lo_o), ub_o) down one column of stride ld.
double ClippedSum(const double* r, std::ptrdiff_t ld, const Bounds& b,
                  double lambda) {
  double s = 0.0;
  for (int o = 0; o < b.m; ++o) {
    s += std::min(std::max(r[o * ld] + lambda, b.lo[o]), b.ub[o]);
  }
  return s;
}

/// The bisection polish of one column whose search missed the column-sum
/// check: the search is exact in exact arithmetic, so this only runs on
/// pathological float cancellation. f is nondecreasing in λ, so doubling
/// steps bracket the root from the search's λ, and bisection closes in.
double PolishShift(const double* r, std::ptrdiff_t ld, const Bounds& b,
                   double lambda) {
  double lo = lambda, hi = lambda;
  double step = 1.0;
  while (ClippedSum(r, ld, b, lo) > 1.0 && step < 1e18) {
    lo -= step;
    step *= 2.0;
  }
  step = 1.0;
  while (ClippedSum(r, ld, b, hi) < 1.0 && step < 1e18) {
    hi += step;
    step *= 2.0;
  }
  for (int it = 0; it < 200 && hi - lo > 1e-15 * std::max(1.0, std::abs(hi));
       ++it) {
    const double mid = 0.5 * (lo + hi);
    if (ClippedSum(r, ld, b, mid) < 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// A group's searches, from the bracket pass until every lane settled.
template <class L>
WFM_INLINE_SWEEP void SearchGroup(const Bounds& b, const double* r,
                                  std::ptrdiff_t ld, int count,
                                  ColumnSearch* search) {
  StartGroup<L>(b, r, ld, count, search);
  while (SweepPieces<L>(b, r, ld, count, search)) {
  }
}

/// Projects every column of the row-major m x n input `r` into the
/// row-major `q` and `pattern`, L::kWidth columns per group. Returns the
/// number of polished columns.
template <class L>
WFM_INLINE_SWEEP int ProjectGroups(const Bounds& b, const double* r, int n,
                                   double* q, ClipState* pattern) {
  int polishes = 0;
  for (int u = 0; u < n; u += L::kWidth) {
    const int count = std::min(L::kWidth, n - u);
    ColumnSearch search[L::kWidth];
    SearchGroup<L>(b, r + u, n, count, search);
    double sums[L::kWidth];
    ClipGroup<L>(b, r + u, n, count, search, q + u, pattern + u, sums);
    bool polished = false;
    for (int j = 0; j < count; ++j) {
      if (std::abs(sums[j] - 1.0) <= 1e-9) continue;
      search[j].lambda = PolishShift(r + u + j, n, b, search[j].lambda);
      ++polishes;
      polished = true;
    }
    if (polished) {
      ClipGroup<L>(b, r + u, n, count, search, q + u, pattern + u, sums);
    }
  }
  return polishes;
}

/// The widest build's lane count: room for any group's searches.
constexpr int kMaxWidth = 4;

int ProjectGroupsPortable(const Bounds& b, const double* r, int n, double* q,
                          ClipState* pattern) {
  return ProjectGroups<TwoLanes>(b, r, n, q, pattern);
}

void SearchColumnPortable(const Bounds& b, const double* r,
                          ColumnSearch* search) {
  SearchGroup<TwoLanes>(b, r, 1, 1, search);
}

#if WFM_HAVE_AVX2_SWEEPS
// AVX2 only, never FMA, as in linalg/kernels.cc: every lane multiplies and
// adds separately, exactly as the two-lane build does.
#define WFM_AVX2 __attribute__((target("avx2")))

static_assert(FourLanes::kWidth == kMaxWidth);

WFM_AVX2 int ProjectGroupsAvx2(const Bounds& b, const double* r, int n,
                               double* q, ClipState* pattern) {
  return ProjectGroups<FourLanes>(b, r, n, q, pattern);
}

WFM_AVX2 void SearchColumnAvx2(const Bounds& b, const double* r,
                               ColumnSearch* search) {
  SearchGroup<FourLanes>(b, r, 1, 1, search);
}

#undef WFM_AVX2

/// The sweeps follow the linalg kernel build (linalg/kernels.h): four lanes
/// when the AVX2 kernels are active, two otherwise.
bool Avx2SweepsActive() {
  return &kernels::ActiveKernels() == kernels::Avx2Kernels();
}
#endif

#undef WFM_INLINE_SWEEP

}  // namespace

double ProjectionShift(const double* r, const Vector& lo, const Vector& ub,
                       int* passes) {
  const Bounds b(lo.data(), ub.data(), static_cast<int>(lo.size()));
  ColumnSearch search[kMaxWidth];
#if WFM_HAVE_AVX2_SWEEPS
  if (Avx2SweepsActive()) {
    SearchColumnAvx2(b, r, search);
  } else
#endif
  {
    SearchColumnPortable(b, r, search);
  }
  if (passes != nullptr) *passes = search[0].passes;
  return search[0].lambda;
}

bool ProjectionFeasible(const Vector& z, double eps, double tol) {
  double sum = 0.0;
  for (double v : z) {
    if (v < -tol) return false;
    sum += v;
  }
  return sum <= 1.0 + tol && std::exp(eps) * sum >= 1.0 - tol;
}

ProjectionResult ProjectOntoLdpPolytope(const Matrix& r, const Vector& z,
                                        double eps) {
  ProjectionWorkspace ws;
  ProjectionResult out;
  ProjectOntoLdpPolytope(r, z, eps, ws, out);
  return out;
}

void ProjectOntoLdpPolytope(const Matrix& r, const Vector& z, double eps,
                            ProjectionWorkspace& ws, ProjectionResult& out) {
  const int m = r.rows();
  const int n = r.cols();
  WFM_CHECK_EQ(static_cast<int>(z.size()), m);
  WFM_CHECK(ProjectionFeasible(z, eps))
      << "infeasible z: sum =" << Sum(z) << ", e^eps*sum =" << std::exp(eps) * Sum(z);

  const double scale = std::exp(eps);
  ws.ub.resize(m);
  for (int o = 0; o < m; ++o) ws.ub[o] = scale * std::max(z[o], 0.0);
  ws.lo.resize(m);
  for (int o = 0; o < m; ++o) ws.lo[o] = std::max(z[o], 0.0);

  out.q.ResizeUninitialized(m, n);  // Every entry written below.
  out.pattern.resize(static_cast<std::size_t>(m) * n);  // Likewise.

  const Bounds b(ws.lo.data(), ws.ub.data(), m);
  int polishes = 0;
#if WFM_HAVE_AVX2_SWEEPS
  if (Avx2SweepsActive()) {
    polishes =
        ProjectGroupsAvx2(b, r.data(), n, out.q.data(), out.pattern.data());
  } else
#endif
  {
    polishes =
        ProjectGroupsPortable(b, r.data(), n, out.q.data(), out.pattern.data());
  }
  if (polishes > 0) ProjectionPolishes().Add(polishes);
}

Vector ProjectColumn(const Vector& r, const Vector& z, double eps) {
  ProjectionResult res =
      ProjectOntoLdpPolytope(Matrix::RowVector(r).Transpose(), z, eps);
  return res.q.Col(0);
}

}  // namespace wfm

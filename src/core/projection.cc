#include "core/projection.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/lanes.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

/// Columns whose piece search missed the 1e-9 column-sum check and went
/// through the bisection polish; added once per projection call.
Counter& ProjectionPolishes() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_projection_polish_total");
  return counter;
}

using lanes::Broadcast2;
using lanes::Ge2;
using lanes::Lanes;
using lanes::Le2;
using lanes::Load2;
using lanes::Mask;
using lanes::Select2;
using lanes::Splat2;
using lanes::Store2;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The linear piece of f(t) = Σ_o clip(r_o + t, lo_o, ub_o) that holds t:
/// on [below, above] every entry keeps the clip state it has at t, so
/// f(s) = fixed + free_r + free * s there.
struct Piece {
  double fixed = 0.0;   ///< Σ of the bounds the clipped entries sit at.
  double free_r = 0.0;  ///< Σ r_o over the free entries.
  int free = 0;         ///< Free entries, the slope of f on the piece.
  double below = -std::numeric_limits<double>::infinity();
  double above = std::numeric_limits<double>::infinity();
};

/// One linear sweep over the column. Entry o leaves its lower bound at the
/// breakpoint lo_o - r_o and reaches its upper bound at ub_o - r_o; the
/// states are decided by comparing t with those breakpoints, so t always
/// lies in [below, above].
///
/// Each chunk of entries is swept twice. A two-lane pass (core/lanes.h)
/// selects every entry's contribution to each sum and to the min/max: an
/// entry in another state contributes -0.0 (the exact additive identity)
/// or ±∞. A second pass folds them in ascending order, so every running sum
/// and min/max keeps the value and the order of a branchy sweep.
Piece PieceAt(const double* r, const double* lo, const double* ub, int m,
              double t) {
  constexpr int kChunk = 64;
  double fixed[kChunk], free_r[kChunk], above[kChunk], below[kChunk];
  std::int64_t free[kChunk];
  const Lanes t2 = Broadcast2(t);
  const Lanes neg_zero = Broadcast2(-0.0);
  const Lanes inf = Broadcast2(kInf);
  Piece p;
  for (int begin = 0; begin < m; begin += kChunk) {
    const int len = std::min(kChunk, m - begin);
    const double* rc = r + begin;
    const double* loc = lo + begin;
    const double* ubc = ub + begin;
    // Two entries per step. An odd count's last entry fills both lanes, and
    // its second lane lands in a slot the fold below never reads.
    const auto load = [len](const double* p, int i) {
      return i + 1 < len ? Load2(p + i) : Broadcast2(p[i]);
    };
    for (int i = 0; i < len; i += 2) {
      const Lanes rv = load(rc, i);
      const Lanes lov = load(loc, i);
      const Lanes ubv = load(ubc, i);
      const Lanes activate = lov - rv;
      const Lanes saturate = ubv - rv;
      const Mask at_lower = Le2(t2, activate);
      const Mask at_upper = ~at_lower & Ge2(t2, saturate);
      const Mask is_free = ~(at_lower | at_upper);
      const Lanes upper_fixed = Select2(at_upper, ubv, neg_zero);
      Store2(fixed + i, Select2(at_lower, lov, upper_fixed));
      Store2(free_r + i, Select2(is_free, rv, neg_zero));
      const Lanes next_above = Select2(at_lower, activate, saturate);
      Store2(above + i, Select2(at_upper, inf, next_above));
      const Lanes next_below = Select2(at_upper, saturate, activate);
      Store2(below + i, Select2(at_lower, -inf, next_below));
      free[i] = -is_free[0];
      free[i + 1] = -is_free[1];
    }
    for (int i = 0; i < len; ++i) {
      p.fixed += fixed[i];
      p.free_r += free_r[i];
      p.free += static_cast<int>(free[i]);
      p.above = std::min(p.above, above[i]);
      p.below = std::max(p.below, below[i]);
    }
  }
  return p;
}

// A piece holds the root when its solution lies inside it, up to this slack
// (absolute, in units of λ).
constexpr double kPieceSlack = 1e-12;

/// Σ_o clip(r_o + λ, z_o, ub_o).
double ClippedSum(const double* r, const Vector& z, const Vector& ub,
                  double lambda) {
  double s = 0.0;
  for (std::size_t o = 0; o < z.size(); ++o) {
    s += std::min(std::max(r[o] + lambda, z[o]), ub[o]);
  }
  return s;
}

/// Robust wrapper: runs the exact piece search, then verifies the column
/// sum and polishes with bisection if round-off pushed it off target. The
/// search is exact in exact arithmetic; bisection only fires on
/// pathological float cancellation, and counts itself in `polishes`.
double SolveLambdaRobust(const double* r, const Vector& z, const Vector& ub,
                         int& polishes) {
  double lambda = ProjectionShift(r, z, ub);
  double f = ClippedSum(r, z, ub, lambda);
  if (std::abs(f - 1.0) <= 1e-9) return lambda;
  ++polishes;

  // Bracket the root: f is nondecreasing in lambda.
  double lo = lambda, hi = lambda;
  double step = 1.0;
  while (ClippedSum(r, z, ub, lo) > 1.0 && step < 1e18) {
    lo -= step;
    step *= 2.0;
  }
  step = 1.0;
  while (ClippedSum(r, z, ub, hi) < 1.0 && step < 1e18) {
    hi += step;
    step *= 2.0;
  }
  for (int it = 0; it < 200 && hi - lo > 1e-15 * std::max(1.0, std::abs(hi));
       ++it) {
    const double mid = 0.5 * (lo + hi);
    if (ClippedSum(r, z, ub, mid) < 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double ProjectionShift(const double* r, const Vector& lo, const Vector& ub,
                       int* passes) {
  const int m = static_cast<int>(lo.size());
  // First pass: the extreme breakpoints bracket the root. Every entry is at
  // its lower bound at `left` and at its upper bound at `right`, so
  // f(left) = Σ lo and f(right) = Σ ub.
  double left = std::numeric_limits<double>::infinity();
  double right = -std::numeric_limits<double>::infinity();
  double f_left = 0.0, f_right = 0.0, r_sum = 0.0;
  for (int o = 0; o < m; ++o) {
    left = std::min(left, lo[o] - r[o]);
    right = std::max(right, ub[o] - r[o]);
    f_left += lo[o];
    f_right += ub[o];
    r_sum += r[o];
  }
  int count = 1;
  auto done = [&](double lambda) {
    if (passes != nullptr) *passes = count;
    return lambda;
  };
  if (std::abs(f_left - 1.0) <= kPieceSlack) return done(left);
  // Where the search finds no piece it falls back, as the sorted sweep did,
  // to the last breakpoint, and the caller's polish takes over: when Σ ub
  // is 1, when the bounds admit no root, and when rounding hides the root
  // (only for |r| far beyond the bounds' scale, as after a failed step).
  const double last_breakpoint = right;
  if (!(f_left < 1.0 && f_right > 1.0 + kPieceSlack)) {
    return done(last_breakpoint);
  }

  // Safeguarded Newton: the first guess is the shift with no entry clipped.
  // Each sweep either finds the piece holding the root or moves one end of
  // the bracket to a breakpoint at or beyond t. The next t is the Newton
  // step when it falls strictly inside the bracket, else the secant through
  // the bracket's ends, else its midpoint, so every sweep moves an end to a
  // new breakpoint and the search ends within 2m + 1 sweeps.
  double t = (1.0 - r_sum) / m;
  for (;;) {
    if (!(t > left && t < right)) {
      t = left + (1.0 - f_left) * (right - left) / (f_right - f_left);
      if (!(t > left && t < right)) t = 0.5 * (left + right);
      if (!(t > left && t < right)) return done(last_breakpoint);
    }
    ++count;
    const Piece p = PieceAt(r, lo.data(), ub.data(), m, t);
    if (p.free == 0) {
      // Flat piece: f = fixed on all of it. If that is 1, return its left
      // end, where the piece to its left has its solution.
      if (std::abs(p.fixed - 1.0) <= kPieceSlack) {
        return done(std::isfinite(p.below) ? p.below : p.above);
      }
      if (p.fixed < 1.0) {
        left = p.above;
        f_left = p.fixed;
      } else {
        right = p.below;
        f_right = p.fixed;
      }
      t = std::numeric_limits<double>::quiet_NaN();  // Take the secant.
      continue;
    }
    const double lambda = (1.0 - p.fixed - p.free_r) / p.free;
    // A piece of zero width (its free entries' bounds closer than r's
    // spacing, as after a failed step) never holds the root, as in the
    // sorted sweep.
    if (p.below < p.above && lambda >= p.below - kPieceSlack &&
        lambda <= p.above + kPieceSlack) {
      return done(lambda);
    }
    if (lambda > p.above) {
      left = p.above;
      f_left = p.fixed + p.free_r + p.free * p.above;
    } else {
      right = p.below;
      f_right = p.fixed + p.free_r + p.free * p.below;
    }
    t = lambda;  // The Newton step.
  }
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

  // Work column-by-column on a transposed copy for contiguous access.
  TransposeInto(r, ws.rt);  // n x m.
  int polishes = 0;
  for (int u = 0; u < n; ++u) {
    const double* col = ws.rt.RowPtr(u);
    const double lambda = SolveLambdaRobust(col, ws.lo, ws.ub, polishes);
    // Clip and write, two entries at a time (an odd count's last entry
    // fills both lanes and is written once): an entry on a bound counts as
    // clipped, as in PieceAt. The state is 1 at the lower bound, 2 at the
    // upper, 0 free.
    double* q_col = out.q.data() + u;
    ClipState* state_col = out.pattern.data() + u;
    const Lanes lambda2 = Broadcast2(lambda);
    for (int o = 0; o < m; o += 2) {
      const int count = std::min(2, m - o);
      const auto load = [&](const double* p) {
        return count == 2 ? Load2(p + o) : Broadcast2(p[o]);
      };
      const Lanes raw = load(col) + lambda2;
      const Lanes lov = load(ws.lo.data());
      const Lanes ubv = load(ws.ub.data());
      const Mask at_lower = Le2(raw, lov);
      const Mask at_upper = ~at_lower & Ge2(raw, ubv);
      const Lanes val = Select2(at_lower, lov, Select2(at_upper, ubv, raw));
      const Mask state = (at_lower & Splat2(1)) | (at_upper & Splat2(2));
      for (int k = 0; k < count; ++k) {
        q_col[static_cast<std::size_t>(o + k) * n] = val[k];
        state_col[static_cast<std::size_t>(o + k) * n] =
            static_cast<ClipState>(state[k]);
      }
    }
  }
  if (polishes > 0) ProjectionPolishes().Add(polishes);
}

Vector ProjectColumn(const Vector& r, const Vector& z, double eps) {
  ProjectionResult res =
      ProjectOntoLdpPolytope(Matrix::RowVector(r).Transpose(), z, eps);
  return res.q.Col(0);
}

}  // namespace wfm

#include "core/projection.h"

#include <algorithm>
#include <cmath>
#include <limits>

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
Piece PieceAt(const double* r, const double* lo, const double* ub, int m,
              double t) {
  Piece p;
  for (int o = 0; o < m; ++o) {
    const double activate = lo[o] - r[o];
    const double saturate = ub[o] - r[o];
    if (t <= activate) {
      p.fixed += lo[o];
      p.above = std::min(p.above, activate);
    } else if (t >= saturate) {
      p.fixed += ub[o];
      p.below = std::max(p.below, saturate);
    } else {
      p.free_r += r[o];
      ++p.free;
      p.below = std::max(p.below, activate);
      p.above = std::min(p.above, saturate);
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
  out.pattern.assign(static_cast<std::size_t>(m) * n, ClipState::kFree);

  // Work column-by-column on a transposed copy for contiguous access.
  TransposeInto(r, ws.rt);  // n x m.
  int polishes = 0;
  for (int u = 0; u < n; ++u) {
    const double* col = ws.rt.RowPtr(u);
    const double lambda = SolveLambdaRobust(col, ws.lo, ws.ub, polishes);
    for (int o = 0; o < m; ++o) {
      const double raw = col[o] + lambda;
      double val = raw;
      ClipState state = ClipState::kFree;
      if (raw <= ws.lo[o]) {
        val = ws.lo[o];
        state = ClipState::kAtLower;
      } else if (raw >= ws.ub[o]) {
        val = ws.ub[o];
        state = ClipState::kAtUpper;
      }
      out.q(o, u) = val;
      out.pattern[static_cast<std::size_t>(o) * n + u] = state;
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

// Tests for Algorithm 1: projection onto the bounded probability simplex.

#include "core/projection.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "linalg/rng.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

Matrix RandomMatrix(int m, int n, Rng& rng, double lo, double hi) {
  Matrix r(m, n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) r(o, u) = rng.Uniform(lo, hi);
  }
  return r;
}

struct Breakpoint {
  double lambda;
  int index;
  bool activate;  // true: entry leaves its lower bound; false: reaches upper.
};

/// Reference for ProjectionShift: the paper's sorted sweep over the 2m clip
/// breakpoints, O(m log m). Returns λ with Σ clip(r + λ, z, ub) = 1.
double SortedSweepShift(const double* r, const Vector& z, const Vector& ub) {
  const int m = static_cast<int>(z.size());
  std::vector<Breakpoint> events;
  for (int o = 0; o < m; ++o) {
    events.push_back({z[o] - r[o], o, true});
    events.push_back({ub[o] - r[o], o, false});
  }
  std::sort(events.begin(), events.end(),
            [](const Breakpoint& a, const Breakpoint& b) {
              if (a.lambda != b.lambda) return a.lambda < b.lambda;
              // Activate before deactivate so zero-width intervals
              // (z_o == ub_o) pass through harmlessly.
              return a.activate && !b.activate;
            });

  // f(λ) = base + free_r_sum + free_count * λ, starting with every entry at
  // its lower bound.
  double base = 0.0;
  for (int o = 0; o < m; ++o) base += z[o];
  double free_r_sum = 0.0;
  int free_count = 0;

  double prev_lambda = -std::numeric_limits<double>::infinity();
  for (const Breakpoint& bp : events) {
    // Try to solve inside the segment [prev_lambda, bp.lambda).
    if (free_count > 0 && bp.lambda > prev_lambda) {
      const double lambda = (1.0 - base - free_r_sum) / free_count;
      if (lambda >= prev_lambda - 1e-12 && lambda <= bp.lambda + 1e-12) {
        return lambda;
      }
    } else if (free_count == 0) {
      // Flat segment; if f already equals 1 any λ here works.
      if (std::abs(base - 1.0) <= 1e-12) return bp.lambda;
    }
    if (bp.activate) {
      base -= z[bp.index];
      free_r_sum += r[bp.index];
      ++free_count;
    } else {
      base += ub[bp.index];
      free_r_sum -= r[bp.index];
      --free_count;
    }
    prev_lambda = bp.lambda;
  }
  // Past the last breakpoint every entry sits at its upper bound.
  return prev_lambda;
}

/// clip(raw, lo, ub) and its state, with the projection's rule that an entry
/// on a bound is clipped.
double ClipEntry(double raw, double lo, double ub, ClipState* state) {
  *state = ClipState::kFree;
  if (raw <= lo) {
    *state = ClipState::kAtLower;
    return lo;
  }
  if (raw >= ub) {
    *state = ClipState::kAtUpper;
    return ub;
  }
  return raw;
}

/// Checks ProjectionShift against the sorted sweep on one column: λ within
/// 1e-12 relative, the clipped column and its pattern equal up to the
/// resolution of r + λ (an entry that lands on a bound may be reported at
/// the bound or free; its value is the same), and at most 2m + 1 sweeps.
void ExpectShiftMatchesSortedSweep(const Vector& r, const Vector& lo,
                                   const Vector& ub) {
  const int m = static_cast<int>(r.size());
  int passes = 0;
  const double lambda = ProjectionShift(r.data(), lo, ub, &passes);
  const double reference = SortedSweepShift(r.data(), lo, ub);
  EXPECT_LE(passes, 2 * m + 1);
  EXPECT_NEAR(lambda, reference, 1e-12 * std::max(1.0, std::abs(reference)));

  double scale = std::max(1.0, std::abs(reference));
  for (double v : r) scale = std::max(scale, std::abs(v));
  const double tol = 1e-12 * scale;
  double sum = 0.0;
  for (int o = 0; o < m; ++o) {
    ClipState state = ClipState::kFree;
    ClipState ref_state = ClipState::kFree;
    const double q = ClipEntry(r[o] + lambda, lo[o], ub[o], &state);
    const double q_ref = ClipEntry(r[o] + reference, lo[o], ub[o], &ref_state);
    sum += q;
    EXPECT_NEAR(q, q_ref, tol) << "entry " << o;
    const double raw = r[o] + reference;
    const bool on_bound =
        std::abs(raw - lo[o]) <= tol || std::abs(raw - ub[o]) <= tol;
    if (!on_bound) {
      EXPECT_EQ(state, ref_state) << "entry " << o;
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9 * scale);
}

/// Bounds [z, e^ε z] for a random nonuniform z with Σz <= 1 <= e^ε Σz.
void RandomBounds(int m, double eps, Rng& rng, Vector& lo, Vector& ub) {
  lo.resize(m);
  for (double& v : lo) v = rng.Uniform(0.0, 1.0);
  const double target = rng.Uniform(std::exp(-eps), 1.0);
  const double s = Sum(lo);
  for (double& v : lo) v *= target / s;
  ub.resize(m);
  for (int o = 0; o < m; ++o) ub[o] = std::exp(eps) * lo[o];
}

struct ProjCase {
  int m;
  int n;
  double eps;
};

class ProjectionFeasibilitySweep : public ::testing::TestWithParam<ProjCase> {};

TEST_P(ProjectionFeasibilitySweep, OutputSatisfiesAllConstraints) {
  const auto [m, n, eps] = GetParam();
  Rng rng(91 + m * 13 + n);
  const Matrix r = RandomMatrix(m, n, rng, -1.0, 2.0);
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  const ProjectionResult res = ProjectOntoLdpPolytope(r, z, eps);

  // Column sums exactly one.
  for (double s : res.q.ColSums()) EXPECT_NEAR(s, 1.0, 1e-9);
  // Bounds z <= q <= e^eps z.
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) {
      EXPECT_GE(res.q(o, u), z[o] - 1e-12);
      EXPECT_LE(res.q(o, u), std::exp(eps) * z[o] + 1e-12);
    }
  }
  // Hence the result is a valid eps-LDP strategy.
  EXPECT_TRUE(ValidateStrategy(res.q, eps, 1e-8).valid);
}

TEST_P(ProjectionFeasibilitySweep, PatternConsistentWithValues) {
  const auto [m, n, eps] = GetParam();
  Rng rng(191 + m + n);
  const Matrix r = RandomMatrix(m, n, rng, -0.5, 1.5);
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  const ProjectionResult res = ProjectOntoLdpPolytope(r, z, eps);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) {
      switch (res.state(o, u)) {
        case ClipState::kAtLower:
          EXPECT_NEAR(res.q(o, u), z[o], 1e-12);
          break;
        case ClipState::kAtUpper:
          EXPECT_NEAR(res.q(o, u), std::exp(eps) * z[o], 1e-12);
          break;
        case ClipState::kFree:
          EXPECT_GT(res.q(o, u), z[o] - 1e-12);
          EXPECT_LT(res.q(o, u), std::exp(eps) * z[o] + 1e-12);
          break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProjectionFeasibilitySweep,
    ::testing::Values(ProjCase{4, 1, 0.5}, ProjCase{8, 3, 1.0},
                      ProjCase{16, 4, 2.0}, ProjCase{32, 8, 0.25},
                      ProjCase{64, 16, 4.0}, ProjCase{20, 5, 0.05}));

TEST(ProjectionTest, IdempotentOnFeasiblePoints) {
  Rng rng(92);
  const int m = 12, n = 4;
  const double eps = 1.0;
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  const Matrix r = RandomMatrix(m, n, rng, 0.0, 1.0);
  const Matrix q1 = ProjectOntoLdpPolytope(r, z, eps).q;
  const Matrix q2 = ProjectOntoLdpPolytope(q1, z, eps).q;
  EXPECT_TRUE(q2.ApproxEquals(q1, 1e-9));
}

TEST(ProjectionTest, ProjectionIsClosestFeasiblePoint) {
  // Optimality via random feasible competitors: no feasible point may be
  // closer to r than the projection (convexity makes this a valid check).
  Rng rng(93);
  const int m = 10, n = 1;
  const double eps = 1.0;
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  const Matrix r = RandomMatrix(m, n, rng, -0.3, 0.6);
  const Vector proj = ProjectColumn(r.Col(0), z, eps);
  const double proj_dist = NormSq(proj) - 2 * Dot(proj, r.Col(0)) + NormSq(r.Col(0));
  for (int trial = 0; trial < 200; ++trial) {
    // Random feasible column: project a random point (projection of any
    // point is feasible).
    const Matrix cand_src = RandomMatrix(m, 1, rng, -1.0, 1.0);
    const Vector cand = ProjectColumn(cand_src.Col(0), z, eps);
    const double cand_dist =
        NormSq(cand) - 2 * Dot(cand, r.Col(0)) + NormSq(r.Col(0));
    EXPECT_GE(cand_dist, proj_dist - 1e-9);
  }
}

TEST(ProjectionTest, KktCharacterization) {
  // For the projection q of r: free entries share one shift lambda = q-r;
  // lower-clipped entries have q-r >= lambda; upper-clipped have q-r <= lambda.
  Rng rng(94);
  const int m = 20;
  const double eps = 0.8;
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  const Matrix r = RandomMatrix(m, 1, rng, -0.2, 0.4);
  const ProjectionResult res = ProjectOntoLdpPolytope(r, z, eps);
  double lambda = 0.0;
  bool has_free = false;
  for (int o = 0; o < m; ++o) {
    if (res.state(o, 0) == ClipState::kFree) {
      lambda = res.q(o, 0) - r(o, 0);
      has_free = true;
      break;
    }
  }
  if (!has_free) GTEST_SKIP() << "degenerate draw: all entries clipped";
  for (int o = 0; o < m; ++o) {
    const double shift = res.q(o, 0) - r(o, 0);
    switch (res.state(o, 0)) {
      case ClipState::kFree:
        EXPECT_NEAR(shift, lambda, 1e-9);
        break;
      case ClipState::kAtLower:
        EXPECT_GE(shift, lambda - 1e-9);
        break;
      case ClipState::kAtUpper:
        EXPECT_LE(shift, lambda + 1e-9);
        break;
    }
  }
}

TEST(ProjectionTest, HandlesNonuniformZ) {
  Rng rng(95);
  const int m = 10;
  const double eps = 1.0;
  Vector z(m);
  for (int o = 0; o < m; ++o) z[o] = rng.Uniform(0.0, 0.15);
  // Ensure feasibility.
  double s = Sum(z);
  if (s > 0.9) {
    for (double& v : z) v *= 0.9 / s;
  }
  if (std::exp(eps) * Sum(z) < 1.1) {
    for (double& v : z) v += (1.1 / std::exp(eps)) / m;
  }
  ASSERT_TRUE(ProjectionFeasible(z, eps));
  const Matrix r = RandomMatrix(m, 3, rng, -1.0, 1.0);
  const ProjectionResult res = ProjectOntoLdpPolytope(r, z, eps);
  for (double col_sum : res.q.ColSums()) EXPECT_NEAR(col_sum, 1.0, 1e-9);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < 3; ++u) {
      EXPECT_GE(res.q(o, u), z[o] - 1e-12);
      EXPECT_LE(res.q(o, u), std::exp(eps) * z[o] + 1e-12);
    }
  }
}

TEST(ProjectionTest, FeasibilityPredicate) {
  const double eps = 1.0;
  EXPECT_TRUE(ProjectionFeasible(Vector(10, 0.05), eps));
  // Sum > 1: infeasible.
  EXPECT_FALSE(ProjectionFeasible(Vector(10, 0.2), eps));
  // e^eps * sum < 1: infeasible.
  EXPECT_FALSE(ProjectionFeasible(Vector(10, 0.001), eps));
  // Negative entries: infeasible.
  Vector z(10, 0.05);
  z[0] = -0.01;
  EXPECT_FALSE(ProjectionFeasible(z, eps));
}

TEST(ProjectionShiftTest, MatchesSortedSweepOnRandomColumns) {
  Rng rng(301);
  for (int m : {2, 3, 8, 64, 256}) {
    for (double eps : {0.05, 1.0, 4.0}) {
      for (int trial = 0; trial < 40; ++trial) {
        Vector lo, ub;
        RandomBounds(m, eps, rng, lo, ub);
        const double spread = trial % 2 == 0 ? 1.0 / m : 1.0;
        Vector r(m);
        for (double& v : r) v = rng.Uniform(-spread, 2.0 * spread);
        ExpectShiftMatchesSortedSweep(r, lo, ub);
      }
    }
  }
}

TEST(ProjectionShiftTest, MatchesSortedSweepWithTies) {
  // Randomized Response's seed: one entry e^ε / (e^ε + m - 1), the others
  // equal, so most breakpoints coincide; with and without a shift, and
  // after a step that keeps the ties.
  for (int m : {2, 5, 64}) {
    for (double eps : {0.5, 2.0}) {
      const double denom = std::exp(eps) + m - 1;
      const Vector lo(m, 1.0 / denom);
      const Vector ub(m, std::exp(eps) / denom);
      for (double shift : {0.0, 0.3, -0.01}) {
        Vector r(m, 1.0 / denom + shift);
        r[0] = std::exp(eps) / denom + shift;
        ExpectShiftMatchesSortedSweep(r, lo, ub);
        for (int o = 1; o < m; o += 2) r[o] -= 0.5 / denom;
        ExpectShiftMatchesSortedSweep(r, lo, ub);
      }
    }
  }
  // Entries drawn from a three-value set under nonuniform bounds.
  Rng rng(302);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = 16;
    Vector lo, ub;
    RandomBounds(m, 1.0, rng, lo, ub);
    Vector r(m);
    for (double& v : r) v = 0.05 * static_cast<int>(rng.Uniform(0.0, 3.0));
    ExpectShiftMatchesSortedSweep(r, lo, ub);
  }
}

TEST(ProjectionShiftTest, MatchesSortedSweepWithZeroWidthIntervals) {
  Rng rng(303);
  for (int trial = 0; trial < 60; ++trial) {
    const int m = 12;
    Vector lo, ub;
    RandomBounds(m, 1.5, rng, lo, ub);
    // Zero a third of z, then rescale the rest back to the same Σz.
    const double sum = Sum(lo);
    for (int o = trial % 3; o < m; o += 3) lo[o] = 0.0;
    const double rescale = sum / Sum(lo);
    for (int o = 0; o < m; ++o) {
      lo[o] *= rescale;
      ub[o] = std::exp(1.5) * lo[o];
    }
    Vector r(m);
    for (double& v : r) v = rng.Uniform(-0.5, 1.0);
    ExpectShiftMatchesSortedSweep(r, lo, ub);
  }
}

TEST(ProjectionShiftTest, MatchesSortedSweepFromEveryEntryAtOneBound) {
  Rng rng(304);
  for (int trial = 0; trial < 30; ++trial) {
    const int m = 1 + trial;
    Vector lo, ub;
    RandomBounds(m, 1.0, rng, lo, ub);
    const double offset = rng.Uniform(-2.0, 2.0);
    Vector at_lower(m), at_upper(m);
    for (int o = 0; o < m; ++o) {
      at_lower[o] = lo[o] + offset;
      at_upper[o] = ub[o] + offset;
    }
    ExpectShiftMatchesSortedSweep(lo, lo, ub);
    ExpectShiftMatchesSortedSweep(ub, lo, ub);
    ExpectShiftMatchesSortedSweep(at_lower, lo, ub);
    ExpectShiftMatchesSortedSweep(at_upper, lo, ub);

    // Σz = 1 or e^ε Σz = 1 pins every entry of the projection at one bound.
    Vector r(m);
    for (double& v : r) v = rng.Uniform(-1.0, 1.0);
    const double lo_sum = Sum(lo), ub_sum = Sum(ub);
    Vector unit_lo(m), unit_ub(m);
    for (int o = 0; o < m; ++o) {
      unit_lo[o] = lo[o] / lo_sum;
      unit_ub[o] = ub[o] / lo_sum;
    }
    ExpectShiftMatchesSortedSweep(r, unit_lo, unit_ub);
    for (int o = 0; o < m; ++o) {
      unit_lo[o] = lo[o] / ub_sum;
      unit_ub[o] = ub[o] / ub_sum;
    }
    ExpectShiftMatchesSortedSweep(r, unit_lo, unit_ub);
  }
}

TEST(ProjectionShiftTest, MatchesSortedSweepFromFlatPieces) {
  // Entries split far below and far above, so at the first guess
  // (1 - Σr)/m every entry is clipped and the piece is flat.
  Rng rng(305);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = 2 + trial % 9;
    Vector lo, ub;
    RandomBounds(m, 1.0, rng, lo, ub);
    Vector r(m);
    for (int o = 0; o < m; ++o) {
      r[o] = (o % 2 == 0 ? -10.0 : 10.0) + rng.Uniform(-1.0, 1.0);
    }
    ExpectShiftMatchesSortedSweep(r, lo, ub);
  }
  // A flat piece at height exactly one: entry 1 at its upper bound 0.75 and
  // entry 0 at its lower bound 0.25 for every λ in [-9.25, 0.25].
  const Vector lo = {0.25, 0.25};
  const Vector ub = {0.75, 0.75};
  ExpectShiftMatchesSortedSweep({0.0, 10.0}, lo, ub);
  ExpectShiftMatchesSortedSweep({0.0, 0.5}, lo, ub);
}

TEST(ProjectionShiftTest, MatchesSortedSweepOnOneRow) {
  Rng rng(306);
  for (int trial = 0; trial < 20; ++trial) {
    const double z = rng.Uniform(0.3, 1.0);
    const Vector lo = {z};
    const Vector ub = {std::max(1.0, z * std::exp(1.0))};
    ExpectShiftMatchesSortedSweep({rng.Uniform(-5.0, 5.0)}, lo, ub);
  }
}

TEST(ProjectionShiftTest, MatchesSortedSweepOnDivergedColumns) {
  // |r| ~ 1e9, as after a failed PGD step.
  Rng rng(307);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = 64;
    Vector lo, ub;
    RandomBounds(m, 1.0, rng, lo, ub);
    Vector r(m);
    for (double& v : r) v = rng.Normal(0.0, 1e9);
    ExpectShiftMatchesSortedSweep(r, lo, ub);
  }
}

TEST(ProjectionShiftTest, PolishCounterCountsOnlyPolishedColumns) {
  Counter& polishes =
      MetricsRegistry::Global().GetCounter("wfm_projection_polish_total");
  Rng rng(308);
  const int m = 64, n = 32;
  const double eps = 1.0;
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  const std::int64_t before = polishes.value();
  ProjectOntoLdpPolytope(RandomMatrix(m, n, rng, -1.0, 2.0), z, eps);
  EXPECT_EQ(polishes.value(), before);

  // At |r| ~ 1e16 the spacing of r + λ is about 2, so no shift brings a
  // column with a free entry to sum 1 within 1e-9: every such column is
  // polished, and still lands on the polytope.
  Matrix r(m, n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) r(o, u) = rng.Normal(0.0, 1e16);
  }
  const ProjectionResult res = ProjectOntoLdpPolytope(r, z, eps);
  EXPECT_GT(polishes.value(), before);
  EXPECT_LE(polishes.value(), before + n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) {
      EXPECT_GE(res.q(o, u), z[o]);
      EXPECT_LE(res.q(o, u), std::exp(eps) * z[o]);
    }
  }
}

// ---- The branchy sweeps, kept as a bit-exact reference ---------------------
//
// PieceAt, ProjectionShift, the polish and the clip-and-write loop as they
// were before the sweeps selected instead of branching. The library's
// versions must give the same λ, q and pattern bit for bit.
namespace branchy {

struct Piece {
  double fixed = 0.0;
  double free_r = 0.0;
  int free = 0;
  double below = -std::numeric_limits<double>::infinity();
  double above = std::numeric_limits<double>::infinity();
};

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

constexpr double kPieceSlack = 1e-12;

double ProjectionShift(const double* r, const Vector& lo, const Vector& ub,
                       int* passes) {
  const int m = static_cast<int>(lo.size());
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
    *passes = count;
    return lambda;
  };
  if (std::abs(f_left - 1.0) <= kPieceSlack) return done(left);
  const double last_breakpoint = right;
  if (!(f_left < 1.0 && f_right > 1.0 + kPieceSlack)) {
    return done(last_breakpoint);
  }
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
      t = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    const double lambda = (1.0 - p.fixed - p.free_r) / p.free;
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
    t = lambda;
  }
}

double ClippedSum(const double* r, const Vector& z, const Vector& ub,
                  double lambda) {
  double s = 0.0;
  for (std::size_t o = 0; o < z.size(); ++o) {
    s += std::min(std::max(r[o] + lambda, z[o]), ub[o]);
  }
  return s;
}

double SolveLambdaRobust(const double* r, const Vector& z, const Vector& ub) {
  int passes = 0;
  double lambda = ProjectionShift(r, z, ub, &passes);
  if (std::abs(ClippedSum(r, z, ub, lambda) - 1.0) <= 1e-9) return lambda;
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

/// The projection of every column of r, with its pattern.
ProjectionResult Project(const Matrix& r, const Vector& z, double eps) {
  const int m = r.rows(), n = r.cols();
  Vector lo(m), ub(m);
  for (int o = 0; o < m; ++o) {
    lo[o] = std::max(z[o], 0.0);
    ub[o] = std::exp(eps) * std::max(z[o], 0.0);
  }
  ProjectionResult out;
  out.q = Matrix(m, n);
  out.pattern.assign(static_cast<std::size_t>(m) * n, ClipState::kFree);
  const Matrix rt = r.Transpose();
  for (int u = 0; u < n; ++u) {
    const double* col = rt.RowPtr(u);
    const double lambda = SolveLambdaRobust(col, lo, ub);
    for (int o = 0; o < m; ++o) {
      const double raw = col[o] + lambda;
      double val = raw;
      ClipState state = ClipState::kFree;
      if (raw <= lo[o]) {
        val = lo[o];
        state = ClipState::kAtLower;
      } else if (raw >= ub[o]) {
        val = ub[o];
        state = ClipState::kAtUpper;
      }
      out.q(o, u) = val;
      out.pattern[static_cast<std::size_t>(o) * n + u] = state;
    }
  }
  return out;
}

}  // namespace branchy

bool SameBits(const void* a, const void* b, std::size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

/// ProjectionShift (λ and sweep count) and ProjectOntoLdpPolytope (q and
/// pattern) against the branchy reference, bit for bit.
void ExpectBitIdenticalToBranchy(const Matrix& r, const Vector& z, double eps) {
  const int m = r.rows(), n = r.cols();
  Vector lo(m), ub(m);
  for (int o = 0; o < m; ++o) {
    lo[o] = std::max(z[o], 0.0);
    ub[o] = std::exp(eps) * std::max(z[o], 0.0);
  }
  const Matrix rt = r.Transpose();
  for (int u = 0; u < n; ++u) {
    int passes = 0, ref_passes = 0;
    const double lambda = ProjectionShift(rt.RowPtr(u), lo, ub, &passes);
    const double ref = branchy::ProjectionShift(rt.RowPtr(u), lo, ub,
                                                &ref_passes);
    EXPECT_TRUE(SameBits(&lambda, &ref, sizeof(double)))
        << "column " << u << ": " << lambda << " vs " << ref;
    EXPECT_EQ(passes, ref_passes) << "column " << u;
  }
  const ProjectionResult got = ProjectOntoLdpPolytope(r, z, eps);
  const ProjectionResult want = branchy::Project(r, z, eps);
  EXPECT_TRUE(
      SameBits(got.q.data(), want.q.data(), got.q.size() * sizeof(double)));
  ASSERT_EQ(got.pattern.size(), want.pattern.size());
  EXPECT_TRUE(SameBits(got.pattern.data(), want.pattern.data(),
                       got.pattern.size() * sizeof(ClipState)));
}

TEST(ProjectionBranchFreeTest, BitIdenticalOnRandomColumns) {
  Rng rng(309);
  for (int m : {1, 2, 7, 64, 256}) {
    for (double eps : {0.05, 1.0, 4.0}) {
      const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
      for (double spread : {1.0 / m, 1.0, 1e9}) {
        ExpectBitIdenticalToBranchy(
            RandomMatrix(m, 9, rng, -spread, 2 * spread), z, eps);
      }
      // Nonuniform bounds.
      Vector lo, ub;
      RandomBounds(m, eps, rng, lo, ub);
      ExpectBitIdenticalToBranchy(RandomMatrix(m, 9, rng, -1.0 / m, 2.0 / m),
                                  lo, eps);
    }
  }
}

TEST(ProjectionBranchFreeTest, BitIdenticalWithSignedZeros) {
  // -0.0 in r and in z: an all-zero column, zeros mixed into a random one,
  // and zero bounds (a zero-width interval at -0.0).
  Rng rng(310);
  const int m = 16;
  const double eps = 1.0;
  Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  Matrix r = RandomMatrix(m, 6, rng, -0.1, 0.2);
  for (int o = 0; o < m; ++o) {
    r(o, 0) = -0.0;
    r(o, 1) = o % 2 == 0 ? -0.0 : 0.0;
    if (o % 3 == 0) r(o, 2) = -0.0;
  }
  ExpectBitIdenticalToBranchy(r, z, eps);
  const double sum = Sum(z);
  for (int o = 0; o < m; o += 4) z[o] = -0.0;
  const double rescale = sum / Sum(z);
  for (int o = 0; o < m; ++o) z[o] *= rescale;
  ExpectBitIdenticalToBranchy(r, z, eps);
}

TEST(ProjectionBranchFreeTest, BitIdenticalWithEntriesOnBreakpoints) {
  // Re-projecting a projected strategy: its clipped entries sit exactly on
  // their bounds, so at λ = 0 (the first guess when Σr rounds to 1) t lies
  // exactly on their breakpoints.
  Rng rng(311);
  for (int m : {4, 64, 256}) {
    for (double eps : {0.5, 2.0}) {
      const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
      const ProjectionResult first =
          ProjectOntoLdpPolytope(RandomMatrix(m, 12, rng, 0.0, 1.0), z, eps);
      ExpectBitIdenticalToBranchy(first.q, z, eps);
      // And every entry on a bound: r = z or r = e^ε z.
      Matrix bounds(m, 2);
      for (int o = 0; o < m; ++o) {
        bounds(o, 0) = z[o];
        bounds(o, 1) = std::exp(eps) * z[o];
      }
      ExpectBitIdenticalToBranchy(bounds, z, eps);
    }
  }
}

TEST(ProjectionBranchFreeTest, BitIdenticalOnAllClippedAndAllFreeColumns) {
  Rng rng(312);
  const int m = 32;
  // Σz = 1 exactly (1/32 each): every entry ends at its lower bound.
  const Vector unit_z(m, 1.0 / m);
  ExpectBitIdenticalToBranchy(RandomMatrix(m, 5, rng, -1.0, 1.0), unit_z, 1.0);
  // Entries far below and far above: every entry clipped at the first guess.
  const double eps = 1.0;
  const Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  Matrix split(m, 5);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < 5; ++u) {
      split(o, u) = (o % 2 == 0 ? -10.0 : 10.0) + rng.Uniform(-1.0, 1.0);
    }
  }
  ExpectBitIdenticalToBranchy(split, z, eps);
  // Bounds [0.5, e²·0.5] / m around entries 1/m ± 0.1/m: every entry free.
  const Vector wide_z(m, 0.5 / m);
  Matrix inner(m, 5);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < 5; ++u) {
      inner(o, u) = (1.0 + rng.Uniform(-0.1, 0.1)) / m;
    }
  }
  const ProjectionResult res = ProjectOntoLdpPolytope(inner, wide_z, 2.0);
  for (ClipState state : res.pattern) ASSERT_EQ(state, ClipState::kFree);
  ExpectBitIdenticalToBranchy(inner, wide_z, 2.0);
}

TEST(ProjectionDeathTest, InfeasibleZAborts) {
  const Matrix r(4, 2);
  EXPECT_DEATH(ProjectOntoLdpPolytope(r, Vector(4, 0.5), 1.0), "infeasible");
}

TEST(ProjectionTest, AlreadyStochasticColumnsWithLooseBounds) {
  // With very loose bounds the projection of a stochastic column is itself.
  const double eps = 8.0;
  const int m = 4;
  Vector z(m, 0.01);
  Matrix r(m, 1);
  r(0, 0) = 0.4;
  r(1, 0) = 0.3;
  r(2, 0) = 0.2;
  r(3, 0) = 0.1;
  const ProjectionResult res = ProjectOntoLdpPolytope(r, z, eps);
  for (int o = 0; o < m; ++o) EXPECT_NEAR(res.q(o, 0), r(o, 0), 1e-9);
}

}  // namespace
}  // namespace wfm

// Algorithm 1: Euclidean projection onto the bounded probability simplex
// (Problem 4.1). Given an arbitrary matrix R, a row lower-bound vector z and
// privacy budget ε, each column u is mapped to
//
//   q_u = clip(r_u + λ_u 1, z, e^ε z)
//
// with the scalar λ_u chosen so that 1ᵀ q_u = 1. The map t ↦ Σ_o clip(r_o +
// t, z_o, e^ε z_o) is piecewise linear and non-decreasing, with its 2m
// breakpoints at z_o - r_o and e^ε z_o - r_o. The paper sorts them; here λ_u
// comes from a sort-free, safeguarded Newton search (Cominetti, Mascarenhas
// & Silva 2014). Each pass is one linear sweep that returns the linear piece
// holding the current guess; the search stops at the piece that holds the
// root and reads λ_u from that piece's formula, as the sorted sweep does.
// A few passes suffice in practice, and never more than 2m + 1.
//
// The sweeps run with lanes across columns: each reads the row-major R in
// place, a group of adjacent columns at a time with one vector lane per
// column, so no transposed copy is made. Every lane keeps its own column's
// search (its own t sequence and pass count; a lane whose column settled
// idles until its group is done), and every sum and min/max runs in
// ascending row order, so λ, q and the pattern do not depend on the group
// width. The projection follows the linalg kernel build
// (linalg/kernels.h): four lanes in the AVX2 build, two in the portable
// one, with the same bits.
//
// The projection also records which entries ended at their lower/upper
// bounds; the optimizer back-propagates ∇_Q L through this clipping pattern
// to obtain ∇_z L (Algorithm 2).

#ifndef WFM_CORE_PROJECTION_H_
#define WFM_CORE_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace wfm {

enum class ClipState : std::uint8_t {
  kFree = 0,
  kAtLower = 1,
  kAtUpper = 2,
};

struct ProjectionResult {
  Matrix q;
  /// Row-major m x n pattern aligned with q.
  std::vector<ClipState> pattern;

  ClipState state(int o, int u) const {
    return pattern[static_cast<std::size_t>(o) * q.cols() + u];
  }
};

/// Caller-owned scratch for the projection: the clamped bound vectors are
/// reused across calls. With a warmed workspace and a same-shape `out`, the
/// projection allocates nothing.
struct ProjectionWorkspace {
  Vector lo;  ///< max(z, 0).
  Vector ub;  ///< e^ε · max(z, 0).
};

/// Feasibility of the column constraint set {q : z <= q <= e^ε z, 1ᵀq = 1}:
/// requires Σ z <= 1 <= e^ε Σ z.
bool ProjectionFeasible(const Vector& z, double eps, double tol = 1e-9);

/// Projects every column of `r` onto the bounded simplex. CHECK-fails if the
/// constraint set is empty (see ProjectionFeasible); the optimizer maintains
/// feasibility of z between iterations.
ProjectionResult ProjectOntoLdpPolytope(const Matrix& r, const Vector& z,
                                        double eps);

/// Workspace form: identical output, but all buffers (including `out`) are
/// caller-owned and reused — the optimizer inner loop's allocation-free path.
void ProjectOntoLdpPolytope(const Matrix& r, const Vector& z, double eps,
                            ProjectionWorkspace& ws, ProjectionResult& out);

/// The shift λ of one column `r` (length lo.size()): Σ_o clip(r_o + λ, lo_o,
/// ub_o) = 1, for 0 <= lo <= ub with Σ lo <= 1 <= Σ ub. This is the
/// projection's exact piece search run on one column (λ and pass count are
/// those the projection's group search finds for that column); the
/// projection adds a column-sum check and a bisection polish on top. If
/// `passes` is non-null it receives the number of linear sweeps over `r`
/// the search made (at most 2m + 1).
double ProjectionShift(const double* r, const Vector& lo, const Vector& ub,
                       int* passes = nullptr);

/// Single-column variant used by tests: returns clip(r + λ, z, e^ε z) with
/// 1ᵀ result = 1.
Vector ProjectColumn(const Vector& r, const Vector& z, double eps);

}  // namespace wfm

#endif  // WFM_CORE_PROJECTION_H_

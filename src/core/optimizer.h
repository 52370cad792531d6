// Algorithm 2: projected gradient descent over (Q, z) for Problem 3.12.
//
//   α = β / (n e^ε)
//   repeat T times:
//     z ← clip(z − α ∇_z L(Q), 0, 1)      (+ RepairZFeasibility, optimizer.cc)
//     Q ← Π_{z,ε}(Q − β ∇_Q L(Q))
//
// ∇_z L is obtained by back-propagating ∇_Q L through the clipping pattern
// of the most recent projection. Initialization follows the paper: a random
// U[0,1] matrix with m = 4n rows projected onto the constraint set, and
// z = (1+e^{−ε})/(2m) · 1. The step size is found with a short hyper-
// parameter search (the paper does the same), and the best-objective iterate
// is returned — no privacy budget is consumed by any of this because the
// objective is evaluated analytically.
//
// A step whose objective is not finite is backtracked: Q returns to the best
// iterate with every entry marked free (so ∇_z = 0 and z holds still) and β
// halves. A run ends early once two failed steps in a row leave z bitwise
// unchanged and Q − β∇ bitwise equal to the best iterate. From there every
// later iteration would replay the same failed projection, since rounding
// is monotone and a smaller β cannot move Q either. This replay exit is
// exact: it only adds the skipped iterations' failed factorizations to
// cholesky_failures, and every returned field is what the full loop gives.
//
// All runs of one OptimizeStrategy share a GramCertificate (core/
// objective.h), so a failed factorization under a well-conditioned Gram is
// +∞ without an eigendecomposition of A.

#ifndef WFM_CORE_OPTIMIZER_H_
#define WFM_CORE_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "core/projection.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"

namespace wfm {

struct OptimizerConfig {
  /// Number of rows m in randomly initialized strategies; 0 means the
  /// paper's default m = 4n (the random wide init that SNIPPETS.md §1 shows
  /// roughly halving worst-case variance vs. hierarchical seeding).
  int random_init_rows = 0;
  /// Gradient iterations for the main run.
  int iterations = 400;
  /// Relative step-size multiplier candidates for the search phase; the
  /// effective step is candidate / (RMS of the initial gradient).
  std::vector<double> step_candidates = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2};
  /// Iterations per candidate in the search phase.
  int step_search_iterations = 40;
  /// Fixed step size; nonzero skips the search phase.
  double step_size = 0.0;
  /// Independent random restarts; the best strategy wins (ties break to the
  /// lowest restart index). May be 0 when seed_strategies is non-empty
  /// (warm-start-only runs).
  int num_restarts = 1;
  /// Additional warm-start strategies (e.g. the Table 1 baselines). Each
  /// seed gets its own PGD run starting from the seed with z set to its row
  /// minima; because the best-so-far iterate is tracked, the result is never
  /// worse (in objective) than the best seed. This is the initialization
  /// option the paper discusses in Section 4; OptimizedMechanism fills it
  /// with the standard baselines by default.
  ///
  /// Every independent PGD run is concurrent on the linalg ThreadPool: one
  /// fork-join over the step-search candidates, then one over the restarts
  /// followed by the seed runs. Results are bit-identical at any thread
  /// count: each run owns its workspace and its RNG (pre-forked serially in
  /// index order), and the winner is picked in index order after the join.
  std::vector<Matrix> seed_strategies;
  /// Optional population weight vector x̃ (length n, non-negative, not all
  /// zero; overall scale is irrelevant). When non-empty the objective's
  /// multinomial denominator becomes D = Diag(Q x̃) instead of the paper's
  /// uniform-population Diag(Q 1), so the optimizer minimizes expected
  /// workload variance for the population actually reporting (src/adaptive
  /// re-optimization passes the estimated mix here). Empty = uniform =
  /// byte-identical to the legacy objective.
  Vector population;
  std::uint64_t seed = 7;
};

struct OptimizerResult {
  Matrix q;                     ///< Best strategy found (feasible).
  Vector z;                     ///< Final row lower bounds.
  double objective = 0.0;       ///< L(Q) of the best strategy.
  double initial_objective = 0.0;
  std::vector<double> history;  ///< Objective after each iteration (last restart).
  double step_size_used = 0.0;
  /// Iterations of the winning run that started from a strategy whose A
  /// failed to factor.
  int cholesky_failures = 0;
};

/// Runs Algorithm 2 on the workload Gram matrix. `eps` is the privacy budget.
OptimizerResult OptimizeStrategy(const Matrix& gram, double eps,
                                 const OptimizerConfig& config = {});

/// Draws the paper's random initialization: Q = Π_{z,ε}(U[0,1]^{m x n}) with
/// z = (1+e^{−ε})/(2m)·1. Exposed for tests and the Figure 3c bench.
ProjectionResult RandomInitialStrategy(int m, int n, double eps, Rng& rng,
                                       Vector* z_out);

/// Scratch for BackpropZGradientInto, reused across PGD iterations.
struct ZGradientWorkspace {
  Vector free_mean;                      ///< Per column: Σ free, then mean.
  std::vector<std::int64_t> free_count;  ///< Per column: free entries.
};

/// ∇_z L via the chain rule through q_u = clip(r_u + λ_u, z, e^ε z) at the
/// clipping pattern `proj` recorded. For column u with free set F:
///   ∂q_ou/∂z_o   = s_o                  (o clipped; s_o = 1 lower, e^ε upper)
///   ∂λ_u /∂z_o   = -s_o / |F|           (o clipped)
///   ∂q_o'u/∂z_o  = ∂λ_u/∂z_o            (o' free)
/// so (∇_z)_o = Σ_u s_o [o clipped] (g_ou - mean_{o'∈F} g_o'u). `scale_up`
/// is e^ε; `gz` is overwritten. Walks q_grad and the pattern row by row,
/// but sums each column's free entries in ascending o and each gz_o in
/// ascending u, so the result equals a column-by-column loop's bit for bit.
/// Allocation-free once `ws` and `gz` have grown to the shape.
void BackpropZGradientInto(const Matrix& q_grad, const ProjectionResult& proj,
                           double scale_up, ZGradientWorkspace& ws, Vector& gz);

/// One objective+gradient evaluation plus one projection at the given shape,
/// used by the Figure 3c scalability bench to time a single iteration.
double TimeOneIteration(const Matrix& gram, double eps, int m, Rng& rng);

}  // namespace wfm

#endif  // WFM_CORE_OPTIMIZER_H_

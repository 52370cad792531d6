// Factored strategy optimization for Kronecker-structured workloads.
//
// For W = ⊗ W_i the strategy is searched in the same product form
// Q = ⊗ Q_i. Everything the paper derives for a flat strategy then
// factorizes:
//
//   LDP:        each column of ⊗ Q_i is the ⊗ of factor columns, so the
//               per-user channel samples each factor independently and the
//               ratio bounds multiply — Q is (Σ ε_i)-LDP when Q_i is
//               ε_i-LDP.
//   Objective:  D = ⊗ D_i and A = Qᵀ D⁻¹ Q = ⊗ A_i, and the pseudo-inverse
//               of a Kronecker product is the product of pseudo-inverses,
//               so L(⊗ Q_i) = Π L_i(Q_i) (Theorem 3.11 term by term).
//   Decode:     B = A† Qᵀ D⁻¹ = ⊗ B_i — the pseudo-inverse is applied per
//               factor along each mode; no n×n solve ever happens.
//   Variance:   the Theorem 3.4 terms multiply per factor:
//               t_u = Π t_i[u_i], psi_u = Π psi_i[u_i], and
//               phi_u = Π t_i[u_i] − Π psi_i[u_i].
//
// OptimizeFactoredStrategy runs the existing PGD (core/optimizer.h,
// unchanged) once per factor per candidate budget share, then picks the
// split of ε across factors minimizing the product objective by dynamic
// programming over an even grid. Identical factors share evaluations.

#ifndef WFM_CORE_FACTORED_H_
#define WFM_CORE_FACTORED_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/factorization.h"
#include "core/optimizer.h"
#include "linalg/matrix.h"

namespace wfm {

/// A strategy in Kronecker form: Q = Q_0 ⊗ ... ⊗ Q_{k-1}, never
/// materialized. Factor i is ε_i-LDP; the composed strategy is (Σ ε_i)-LDP.
struct FactoredStrategy {
  std::vector<Matrix> factors;
  std::vector<double> epsilons;

  std::int64_t rows() const;  ///< Π m_i (composed output alphabet).
  std::int64_t cols() const;  ///< Π n_i (composed domain).
  double total_epsilon() const;
};

/// Whether `strategy` is a deployable `eps`-LDP strategy: at least one
/// factor and one budget share per factor, every share ε_i positive and
/// finite, every factor non-empty with finite entries and valid under
/// Proposition 2.6 at ε_i (ValidateStrategy, tol 1e-6), Σ ε_i <= eps (up to
/// a relative 1e-9), and Π m_i and Π n_i within int. kInvalidArgument names
/// the first failed check. The one decision every path that builds,
/// receives, loads or rolls a strategy makes; StrategyMechanism CHECKs it.
Status ValidateFactoredStrategy(const FactoredStrategy& strategy, double eps);

struct FactoredOptimizerConfig {
  /// Per-factor PGD configuration, passed to OptimizeStrategy unchanged.
  /// random_init_rows applies per factor (0 = the paper's m_i = 4 n_i; note
  /// the composed output alphabet is Π m_i, so callers targeting very large
  /// domains should pin it near n_i).
  OptimizerConfig factor_config;
  /// Resolution of the ε budget split across factors: each factor receives
  /// j·ε/split_grid for an integer j >= 1 and the best product objective
  /// wins (dynamic program). Must be >= the factor count; values below are
  /// clamped. split_grid == factor count means an even ε/k split with a
  /// single PGD run per distinct factor.
  int split_grid = 8;
};

struct FactoredOptimizerResult {
  FactoredStrategy strategy;
  /// Composed objective L(⊗ Q_i) = Π L_i.
  double objective = 0.0;
};

/// Optimizes one strategy per factor of a Kronecker-structured workload
/// (stats.factored() must hold) and splits `eps` across factors to minimize
/// the product objective.
FactoredOptimizerResult OptimizeFactoredStrategy(
    const WorkloadStats& workload, double eps,
    const FactoredOptimizerConfig& config = {});

/// The product-law analysis of a strategy with k >= 1 factors, and the one
/// analysis strategy mechanisms run. With one factor it analyses
/// (Q_0, workload) whole, so a Kronecker workload that still has a dense Gram
/// works too; with k > 1 it runs FactorizationAnalysis on each
/// (Q_i, workload.factors[i]) pair and combines the results per the product
/// laws above. Nothing of composed size is built except the O(n) per-user
/// variance vector. For k = 1 the folds are 1.0·L, max(0, r) and
/// max(0, t − psi): FactorizationAnalysis's objective, residual and phi,
/// bit for bit.
class FactoredAnalysis {
 public:
  /// k > 1 needs Kronecker stats with one factor per strategy factor, in
  /// order, and matching factor domains (checked).
  FactoredAnalysis(FactoredStrategy strategy, const WorkloadStats& workload);

  std::int64_t m() const { return m_; }

  /// L(⊗ Q_i) = Π L_i.
  double Objective() const { return objective_; }

  /// max_i of the per-factor Gram-side residuals: W is in the row space of
  /// ⊗ Q_i iff each W_i is in the row space of Q_i.
  double FactorizationResidual() const { return residual_; }

  /// Reconstruction factors B_i (n_i x m_i); the composed decode is
  /// x̂ = (⊗ B_i) y via the vec-trick.
  std::vector<const Matrix*> ReconstructionFactors() const;

  /// phi over the composed domain,
  /// phi_u = max(0, Π t_i[u_i] − Π psi_i[u_i]), built by progressive outer
  /// products (O(n·k) time, O(n) memory), with the workload's query count.
  ErrorProfile Profile() const;

 private:
  std::vector<FactorizationAnalysis> analyses_;
  std::int64_t num_queries_ = 0;
  std::int64_t m_ = 1;
  double objective_ = 1.0;
  double residual_ = 0.0;
};

}  // namespace wfm

#endif  // WFM_CORE_FACTORED_H_

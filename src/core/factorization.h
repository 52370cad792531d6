// Analysis of a workload factorization mechanism M_{V,Q} (Definition 3.2).
//
// Given a strategy matrix Q and a workload W (through its Gram matrix), this
// module computes the optimal reconstruction of Theorem 3.10,
//
//   V = W (Qᵀ D_Q⁻¹ Q)† Qᵀ D_Q⁻¹  =:  W B,
//
// the optimization objective L(Q) (Theorem 3.11) and the per-user variance
// phi of Theorem 3.4, from which ErrorProfile derives every other error
// quantity in the paper. Everything is expressed through G = WᵀW and the
// n x m factor B so that tall workloads (AllRange: p = n(n+1)/2) are never
// materialized:
//
//   per-user unit variance  phi_u = sum_o q_ou * c_o - ||V q_u||²
//   with c_o = ||V e_o||² = [Bᵀ G B]_oo  and ||V q_u||² = (B q_u)ᵀ G (B q_u).

#ifndef WFM_CORE_FACTORIZATION_H_
#define WFM_CORE_FACTORIZATION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "workload/workload.h"

namespace wfm {

/// Cached workload quantities consumed by the factorization math.
struct WorkloadStats {
  int n = 0;               ///< Domain size.
  std::int64_t p = 0;      ///< Number of queries.
  /// G = WᵀW. Empty when the workload declines dense materialization
  /// (HasDenseGram() false — huge Kronecker domains); factored consumers
  /// work from `factors` instead and dense-only consumers must check.
  Matrix gram;
  double frob_sq = 0.0;    ///< ||W||_F².
  std::string name;
  /// Per-factor stats when the workload is Kronecker-structured (in factor
  /// order, factor 0 most significant); empty for flat workloads.
  std::vector<WorkloadStats> factors;

  bool factored() const { return !factors.empty(); }

  static WorkloadStats From(const Workload& w);
};

/// Per-user variance profile of a mechanism on a fixed workload.
struct ErrorProfile {
  /// phi[u] = total workload variance contributed by one user of type u.
  Vector phi;
  /// Number of workload queries p (normalizes the sample complexity).
  std::int64_t num_queries = 0;

  /// max_u phi_u: worst-case variance per user (Corollary 3.5 / N).
  double WorstUnitVariance() const;
  /// (1/n) sum_u phi_u: average-case variance per user (Corollary 3.6 / N).
  double AverageUnitVariance() const;
  /// Exact total variance on a dataset x (Theorem 3.4).
  double DataVariance(const Vector& x) const;
  /// Corollary 5.4: samples to reach normalized variance alpha (worst case).
  double SampleComplexity(double alpha) const;
  /// Section 6.4: sample complexity with the worst case replaced by the
  /// data-dependent variance of the normalized histogram x / sum(x).
  double SampleComplexityOnData(const Vector& x, double alpha) const;
};

class FactorizationAnalysis {
 public:
  /// Builds the analysis. `q` must be column-stochastic and non-negative;
  /// rows with zero mass are tolerated (treated as unused outputs). The
  /// workload is read during construction only; nothing of it is kept but
  /// n and p.
  FactorizationAnalysis(Matrix q, const WorkloadStats& workload);

  int n() const { return n_; }
  int m() const { return q_.rows(); }
  const Matrix& q() const { return q_; }

  /// Optimization objective L(Q) = tr[(Qᵀ D⁻¹ Q)† G] (Theorem 3.11).
  double Objective() const { return objective_; }

  /// Per-user variance contribution phi_u for one user of type u
  /// (Theorem 3.4 with x = e_u).
  const Vector& PerUserVariance() const { return phi_; }

  /// phi with the workload's query count: the worst-case, average-case,
  /// data-dependent variance and sample complexity all derive from it.
  ErrorProfile Profile() const { return {phi_, p_}; }

  /// The two terms of phi_u = t_u − psi_u, exposed separately because they
  /// (not phi itself) are what multiplies across Kronecker factors:
  /// for Q = ⊗ Q_i, t_u = Π t_i[u_i] and psi_u = Π psi_i[u_i], so
  /// phi_u = max(0, Π t_i[u_i] − Π psi_i[u_i]). FactoredAnalysis
  /// (core/factored.h) folds them; it is the analysis every strategy
  /// mechanism runs, one factor or many.
  /// t_u = Σ_o q_ou c_o is the second-moment term; psi_u = ||V q_u||² the
  /// squared-mean term.
  const Vector& PerUserSecondMoment() const { return t_; }
  const Vector& PerUserMeanEnergy() const { return psi_; }

  /// Reconstruction factor B (n x m): V = W B, and the unbiased data-vector
  /// estimate from a response histogram y is x_hat = B y (the one-factor
  /// ReportDecoder {B} decodes with it).
  const Matrix& ReconstructionB() const { return b_; }

  /// Explicit V = W B for workloads small enough to materialize.
  Matrix OptimalV(const Matrix& w_explicit) const;

  /// Relative residual of the factorization constraint W = (WB)Q, measured
  /// Gram-side as ||G B Q - G||_max / ||G||_max. Large values mean W is not
  /// in the row space of Q and the mechanism is biased.
  double FactorizationResidual() const { return residual_; }

  /// The bar on FactorizationResidual(): at or above it, W counts as outside
  /// Q's row space (Definition 3.2 requires W = VQ), so the strategy can
  /// neither be analyzed nor deployed for the workload.
  static constexpr double kResidualTolerance = 1e-5;

 private:
  Matrix q_;
  int n_ = 0;
  std::int64_t p_ = 0;  // Workload query count.
  Matrix b_;          // n x m.
  Vector phi_;        // Per-user unit variance.
  Vector t_;          // Second-moment term of phi.
  Vector psi_;        // Squared-mean term of phi.
  double objective_ = 0.0;
  double residual_ = 0.0;
};

}  // namespace wfm

#endif  // WFM_CORE_FACTORIZATION_H_

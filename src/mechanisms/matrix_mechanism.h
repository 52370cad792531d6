// Distributed Matrix Mechanism baselines (refs [27, 17]).
//
// The central-model Matrix Mechanism answers a workload by adding noise to a
// set of strategy queries A and reconstructing W A† y. Run locally (ref
// [17]), every user perturbs their own strategy-query vector A e_u:
//
//   report_j = A e_u_j + xi_j,   xi iid per coordinate
//   y = sum_j report_j = A x + Xi,    answer = W A† y.
//
// The estimate is unbiased whenever rowspace(W) ⊆ rowspace(A), with total
// variance N sigma² ||W A†||_F² = N sigma² tr[(AᵀA)† WᵀW] — data-independent.
//
// Noise calibration:
//  * L1 (Laplace): pure ε-LDP with the exact pairwise sensitivity
//    Δ1 = max_{u,u'} ||A(e_u - e_u')||₁ and scale Δ1/ε.
//  * L2 (Gaussian): (ε, δ)-LDP with Δ2 = max pairwise L2 distance and the
//    analytic Gaussian calibration σ = Δ2 sqrt(2 ln(1.25/δ))/ε, δ = 1e-9 by
//    default. Reference [17] works in approximate DP; pure-ε Gaussian noise
//    does not exist, so some δ choice is inherent to this baseline.
//
// The strategy A is chosen per workload as the analytic-error argmin over a
// candidate library: identity, the PSD square root of the workload Gram
// (the classic near-optimal L2 strategy), and a dyadic hierarchical tree.

#ifndef WFM_MECHANISMS_MATRIX_MECHANISM_H_
#define WFM_MECHANISMS_MATRIX_MECHANISM_H_

#include <string>
#include <vector>

#include "mechanisms/mechanism.h"

namespace wfm {

class MatrixMechanism final : public Mechanism {
 public:
  enum class NoiseType { kLaplaceL1, kGaussianL2 };

  MatrixMechanism(int n, double eps, NoiseType type, double delta = 1e-9);

  std::string Name() const override {
    return type_ == NoiseType::kLaplaceL1 ? "Matrix Mechanism (L1)"
                                          : "Matrix Mechanism (L2)";
  }
  int domain_size() const override { return n_; }
  double epsilon() const override { return eps_; }

  /// Fails as ChooseStrategy does.
  StatusOr<ErrorProfile> TryAnalyze(const WorkloadStats& workload) const override;

  /// Runnable end-to-end: each client reports its noisy strategy-query
  /// vector A e_u + xi (a dense report), the server sums reports and decodes
  /// with A†. Unbiased whenever rowspace(W) ⊆ rowspace(A), which
  /// ChooseStrategy guarantees. Fails as ChooseStrategy does.
  StatusOr<Deployment> Deploy(
      std::shared_ptr<const WorkloadStats> workload) const override;

  struct StrategyChoice {
    Matrix a;
    std::string description;
    /// Per-user total workload variance with this strategy (phi, constant
    /// over user types).
    double unit_variance = 0.0;
  };

  /// Evaluates the candidate library and returns the best strategy for the
  /// workload (what TryAnalyze and Deploy use). Fails as RequireDenseStats
  /// does, and with kFailedPrecondition when no candidate has a positive
  /// sensitivity (n = 1: no two types to tell apart).
  StatusOr<StrategyChoice> ChooseStrategy(const WorkloadStats& workload) const;

  /// Exact pairwise sensitivities over strategy columns.
  static double L1Sensitivity(const Matrix& a);
  static double L2Sensitivity(const Matrix& a);

  /// Per-coordinate noise variance for a strategy with the given sensitivity.
  double NoiseVariance(double sensitivity) const;

  /// Dyadic hierarchical 0/1 strategy (all levels incl. leaves), a classic
  /// Matrix Mechanism candidate for range workloads.
  static Matrix HierarchicalTreeStrategy(int n);

 private:
  int n_;
  double eps_;
  NoiseType type_;
  double delta_;
};

}  // namespace wfm

#endif  // WFM_MECHANISMS_MATRIX_MECHANISM_H_

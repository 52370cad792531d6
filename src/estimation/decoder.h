// The server half of a deployed mechanism: reconstruct the data vector from
// the m-dimensional aggregate of all reports.
//
// Every linear mechanism is a factorization pair (Q, B) and decodes as
// x_hat = B y, where y sums the reports (response histogram for categorical
// mechanisms, coordinatewise sum for additive ones). The decoder holds B as
// a list of factors, B = B_0 ⊗ ... ⊗ B_{k-1}:
//
//   * k = 1 is the dense case {B}: Theorem 3.10's optimal
//     B = (Qᵀ D_Q⁻¹ Q)† Qᵀ D_Q⁻¹ for strategy mechanisms, the pseudo-inverse
//     A† for the distributed Matrix Mechanism;
//   * k > 1 is a Kronecker deployment over a product domain, {B_i} with one
//     n_i x m_i factor per workload factor; no n x m matrix ever exists.
//
// The matching Gram factors — {G} for k = 1, {G_i} for k > 1, with
// G = ⊗ G_i — drive consistent (WNNLS) estimation, so (decode factors,
// WorkloadStats) is the complete server-side description of a deployment
// and is what collect/CollectionSession carries. The decoder shares the
// stats (a shared_ptr to const) rather than owning a copy: a plan builds
// them once, and every decoder of every session and strategy roll of that
// plan reads the same Gram. Decode and the WNNLS iteration both run through
// linalg/kron.h, whose one-factor case is the pooled dense matvec.
//
// Unary-encoding frequency oracles (RAPPOR, OUE) have no decode factors.
// Their n-bit reports debias affinely, x_hat = (y - N q 1) / (p - q), with
// p = P(bit = 1 | true bit = 1) and q = P(bit = 1 | true bit = 0); the
// decoder carries (p, q) and callers supply the report count N at decode
// time (EpochSnapshot::count).

#ifndef WFM_ESTIMATION_DECODER_H_
#define WFM_ESTIMATION_DECODER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/factorization.h"
#include "linalg/matrix.h"

namespace wfm {

/// Parameters of the affine debias x_hat = (y - N q 1)/(p - q) used by
/// unary-encoding frequency oracles. `p` is the probability a true bit is
/// reported as 1, `q` the probability a false bit is; unbiased decoding
/// requires p > q.
struct AffineDebias {
  double p = 1.0;  ///< P(reported bit = 1 | true bit = 1).
  double q = 0.0;  ///< P(reported bit = 1 | true bit = 0).
};

class ReportDecoder {
 public:
  /// Linear decoder x_hat = (B_0 ⊗ ... ⊗ B_{k-1}) y. One factor {B} is the
  /// dense n x m decode factor. More factors need Kronecker-structured
  /// `stats` with as many factors, B_i being n_i x m_i in factor order;
  /// m is Π m_i. `stats` (non-null, shared) supplies the Gram factors for
  /// WNNLS estimation.
  ReportDecoder(std::vector<Matrix> b_factors,
                std::shared_ptr<const WorkloadStats> stats);

  /// Affine decoder (m = n = stats->n): debiases n-bit-vector aggregates as
  /// x_hat = (y - N q 1)/(p - q), so decoding needs the true report count N.
  ReportDecoder(AffineDebias debias,
                std::shared_ptr<const WorkloadStats> stats);

  int n() const { return stats_->n; }
  int m() const { return m_; }
  /// Decode factors {B} or {B_i}; empty for affine decoders.
  const std::vector<Matrix>& b_factors() const { return b_factors_; }
  /// Gram factors matching the decode: the per-factor {G_i} of a Kronecker
  /// decode, {G} otherwise. Pointers into workload_stats().
  std::vector<const Matrix*> gram_factors() const;
  const WorkloadStats& workload_stats() const { return *stats_; }
  /// The stats themselves, for deploying another decoder against them.
  const std::shared_ptr<const WorkloadStats>& shared_stats() const {
    return stats_;
  }

  /// True when this decoder debiases affinely and therefore needs the report
  /// count N alongside the aggregate.
  bool needs_report_count() const { return affine_.has_value(); }
  /// The affine parameters; call only when needs_report_count() is true.
  const AffineDebias& affine_debias() const;

  /// Unbiased estimate of the data vector from the aggregate: (⊗ B_i) y for
  /// linear decoders, (y - N q 1)/(p - q) for affine ones. `num_reports` is
  /// the report count N behind the aggregate; linear decoders ignore it,
  /// affine decoders require the true count (deliberately no default — an
  /// affine decode without its N would compile and silently return
  /// estimates shifted by N q/(p - q)). Aborts on dimension mismatch — use
  /// TryEstimateDataVector where the aggregate arrives from an untrusted
  /// source.
  Vector EstimateDataVector(const Vector& aggregate,
                            std::int64_t num_reports) const;

  /// EstimateDataVector with runtime-reachable failures as Status:
  /// kInvalidArgument when the aggregate's dimension does not match the
  /// decoder's m (a corrupt or mismatched report stream) or the report count
  /// is negative.
  StatusOr<Vector> TryEstimateDataVector(const Vector& aggregate,
                                         std::int64_t num_reports) const;

  /// Plug-in per-coordinate variance of the normalized estimate x_hat / N,
  /// evaluated at the observed response distribution pi = y / N (clamped to
  /// [0, 1], so a histogram slightly outside the simplex cannot produce a
  /// negative variance):
  ///   * linear: y is a histogram of N categorical draws, so
  ///     Var_i = [Σ_o B_io² pi_o − ((B pi)_i)²] / N, with
  ///     Σ_o B_io² pi_o = ((⊗ (B_i ∘ B_i)) pi)_i and B pi = (⊗ B_i) pi;
  ///   * affine: coordinate i of y is Binomial(N, pi_i), so
  ///     Var_i = pi_i (1 − pi_i) / (N (p − q)²).
  /// kInvalidArgument when the aggregate's dimension does not match m or
  /// the report count is not positive.
  StatusOr<Vector> EstimateVariance(const Vector& aggregate,
                                    std::int64_t num_reports) const;

 private:
  std::vector<const Matrix*> DecodeFactors() const;

  std::vector<Matrix> b_factors_;  ///< Empty for affine decoders.
  std::shared_ptr<const WorkloadStats> stats_;
  int m_ = 0;
  std::optional<AffineDebias> affine_;
};

}  // namespace wfm

#endif  // WFM_ESTIMATION_DECODER_H_

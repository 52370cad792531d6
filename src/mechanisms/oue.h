// Optimized Unary Encoding (Wang, Blocki, Li, Jha — the paper's ref [41]).
//
// Like RAPPOR, the user one-hot encodes their type into n bits, but the two
// flip probabilities are chosen asymmetrically to minimize estimator
// variance instead of symmetrically:
//
//   report bit = 1 with prob p = 1/2        if the true bit is 1,
//   report bit = 1 with prob q = 1/(e^ε+1)  if the true bit is 0.
//
// Privacy: changing the input changes two ideal bits; the worst likelihood
// ratio is (p/q) * ((1-q)/(1-p)) = e^ε, so the report is ε-LDP. The per-bit
// debiased estimator x_hat_u = (count_u - N q)/(p - q) is unbiased with
//
//   Var(x_hat_u) = N [ q(1-q) + (x_u/N)(p(1-p) - q(1-q)) ] / (p-q)²,
//
// i.e. mildly data-dependent (worst case when all users share one type).
// OUE dominates symmetric RAPPOR for histogram estimation at every ε, which
// is why ref [41] recommends it; it is included here as an extension beyond
// the paper's six plotted baselines.
//
// Deploy() runs the protocol end-to-end: a BitVectorReporter(p, q) on-device
// and a ReportDecoder in AffineDebias{p, q} mode server-side, so the
// deployed decode is exactly the debiased estimator analyzed above.

#ifndef WFM_MECHANISMS_OUE_H_
#define WFM_MECHANISMS_OUE_H_

#include "linalg/rng.h"
#include "mechanisms/mechanism.h"

namespace wfm {

class OueMechanism final : public Mechanism {
 public:
  OueMechanism(int n, double eps);

  std::string Name() const override { return "OUE"; }
  int domain_size() const override { return n_; }
  double epsilon() const override { return eps_; }

  ErrorProfile Analyze(const WorkloadStats& workload) const override;

  /// n-bit-vector reports through a BitVectorReporter, decoded with the
  /// report-count-aware affine debias (p, q) = (1/2, 1/(e^ε+1)).
  StatusOr<Deployment> Deploy(const WorkloadStats& workload) const override;

  /// p = 1/2 (true-bit retention) and q = 1/(e^ε+1) (false-bit flip-in).
  double prob_one_given_one() const { return 0.5; }
  double prob_one_given_zero() const { return q_; }

  /// Per-coordinate unit variance of the debiased estimate for a bit whose
  /// true value is 0 (the dominant term): q(1-q)/(p-q)².
  double PerCoordinateUnitVariance() const;

  /// Samples one randomized n-bit report for a user of type u.
  PackedBits SampleReport(int u, Rng& rng) const;

  /// Simulates the protocol on a histogram and returns the unbiased
  /// data-vector estimate.
  Vector SimulateEstimate(const Vector& x, Rng& rng) const;

  /// Explicit 2^n x n strategy matrix for validation at tiny n.
  static Matrix BuildExplicitStrategy(int n, double eps);

 private:
  int n_;
  double eps_;
  double q_;
};

}  // namespace wfm

#endif  // WFM_MECHANISMS_OUE_H_

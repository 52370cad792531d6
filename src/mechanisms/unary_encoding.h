// Unary encoding UE(p, q), the one protocol behind RAPPOR (Erlingsson,
// Pihur, Korolova; Table 1) and Optimized Unary Encoding (Wang, Blocki, Li,
// Jha — the paper's ref [41]). The user one-hot encodes their type into n
// bits and reports each bit independently as 1 with probability p if the
// true bit is 1 and q if it is 0. Changing the input changes two ideal bits,
// so the report is ε-LDP when (p/q)·((1-q)/(1-p)) ≤ e^ε.
//
// The registry entries are the only places that turn ε into (p, q):
//   * "RAPPOR": p = 1 - f, q = f with f = 1/(1 + e^{ε/2}) (symmetric flips);
//   * "OUE":    p = 1/2, q = 1/(e^ε + 1), the variance-optimal choice, which
//     dominates RAPPOR for histogram estimation at every ε.
//
// The strategy matrix has 2^n rows and is never materialized (the paper
// excludes RAPPOR from its figures for exactly this reason). The per-bit
// debias x_hat = (y - N q)/(p - q) is unbiased, and a user of type u
// contributes variance v₁ = p(1-p)/(p-q)² to coordinate u and
// v₀ = q(1-q)/(p-q)² to every other coordinate. Coordinate v's variance
// costs G_vv on a workload with Gram G, and tr G = ||W||²_F, so
//
//   phi_u = v₀ ||W||²_F + (v₁ - v₀) G_uu,
//
// data-independent for RAPPOR (v₁ = v₀) and mildly data-dependent for OUE.
// This is the canonical decoder, not the Theorem 3.10-optimal V (which is
// intractable at 2^n outputs).
//
// Deploy() runs exactly that protocol: a BitVectorReporter(n, p, q)
// on-device and a ReportDecoder in AffineDebias{p, q} mode server-side, so
// the deployed decode matches the analyzed variance coordinate for
// coordinate.

#ifndef WFM_MECHANISMS_UNARY_ENCODING_H_
#define WFM_MECHANISMS_UNARY_ENCODING_H_

#include <string>

#include "mechanisms/mechanism.h"

namespace wfm {

class UnaryEncodingMechanism final : public Mechanism {
 public:
  /// CHECKs 0 <= q < p <= 1; the caller picks an ε-LDP (p, q).
  UnaryEncodingMechanism(std::string name, int n, double eps, double p,
                         double q);

  std::string Name() const override { return name_; }
  int domain_size() const override { return n_; }
  double epsilon() const override { return eps_; }

  /// P(reported bit = 1 | true bit = 1) and P(reported bit = 1 | true bit = 0).
  double p() const { return p_; }
  double q() const { return q_; }

  /// Fails as RequireDenseStats does; Deploy shares the precondition.
  StatusOr<ErrorProfile> TryAnalyze(const WorkloadStats& workload) const override;

  /// n-bit-vector reports through a BitVectorReporter(n, p, q), decoded with
  /// the report-count-aware AffineDebias{p, q}.
  StatusOr<Deployment> Deploy(
      std::shared_ptr<const WorkloadStats> workload) const override;

  /// The explicit 2^n x n strategy matrix, for validation at tiny n.
  static Matrix BuildExplicitStrategy(int n, double p, double q);

 private:
  std::string name_;
  int n_;
  double eps_;
  double p_;
  double q_;
};

}  // namespace wfm

#endif  // WFM_MECHANISMS_UNARY_ENCODING_H_

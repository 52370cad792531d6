// RAPPOR (Erlingsson, Pihur, Korolova; Table 1): the user one-hot encodes
// their type into n bits and flips each bit independently with probability
// f = 1/(1 + e^{ε/2}). Changing the input flips two ideal bits, each
// contributing a likelihood ratio (1-f)/f = e^{ε/2}, so the report is ε-LDP.
//
// The strategy matrix has 2^n rows and is never materialized (the paper
// excludes RAPPOR from its figures for exactly this reason). The standard
// per-bit debiasing estimator
//
//   x_hat_u = (count_u - N f) / (1 - 2f)
//
// is unbiased with Cov(x_hat) = N f(1-f)/(1-2f)² I, so on a workload W the
// total variance is ||W||_F² N f(1-f)/(1-2f)², independent of the data. This
// closed form lets the library analyze RAPPOR at any domain size. Note the
// estimator is the canonical RAPPOR decoder, not the Theorem 3.10-optimal V
// (which is intractable at 2^n outputs).
//
// Deploy() runs exactly that protocol: a BitVectorReporter(p = 1-f, q = f)
// on-device and a ReportDecoder in AffineDebias mode server-side — the
// debias above is x_hat = (y - N f)/(1 - 2f) with (p, q) = (1-f, f), so the
// deployed decode matches the analyzed variance coordinate for coordinate.

#ifndef WFM_MECHANISMS_RAPPOR_H_
#define WFM_MECHANISMS_RAPPOR_H_

#include "linalg/rng.h"
#include "mechanisms/mechanism.h"

namespace wfm {

class RapporMechanism final : public Mechanism {
 public:
  RapporMechanism(int n, double eps);

  std::string Name() const override { return "RAPPOR"; }
  int domain_size() const override { return n_; }
  double epsilon() const override { return eps_; }

  ErrorProfile Analyze(const WorkloadStats& workload) const override;

  /// n-bit-vector reports through a BitVectorReporter, decoded with the
  /// report-count-aware affine debias (p, q) = (1-f, f).
  StatusOr<Deployment> Deploy(const WorkloadStats& workload) const override;

  /// Bit-flip probability f = 1/(1 + e^{ε/2}).
  double flip_probability() const { return f_; }

  /// Per-coordinate variance of the debiased estimate per user:
  /// f(1-f)/(1-2f)².
  double PerCoordinateUnitVariance() const;

  /// Samples one randomized n-bit report for a user of type u.
  PackedBits SampleReport(int u, Rng& rng) const;

  /// Simulates the full protocol on a histogram x and returns the unbiased
  /// estimate of the data vector.
  Vector SimulateEstimate(const Vector& x, Rng& rng) const;

  /// The explicit 2^n x n strategy matrix, for validation tests at tiny n.
  static Matrix BuildExplicitStrategy(int n, double eps);

 private:
  int n_;
  double eps_;
  double f_;
};

}  // namespace wfm

#endif  // WFM_MECHANISMS_RAPPOR_H_

#include "mechanisms/rappor.h"

#include <cmath>

#include "linalg/samplers.h"

namespace wfm {

RapporMechanism::RapporMechanism(int n, double eps)
    : n_(n), eps_(eps), f_(1.0 / (1.0 + std::exp(eps / 2.0))) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK_GT(eps, 0.0);
}

double RapporMechanism::PerCoordinateUnitVariance() const {
  const double one_minus_2f = 1.0 - 2.0 * f_;
  return f_ * (1.0 - f_) / (one_minus_2f * one_minus_2f);
}

ErrorProfile RapporMechanism::Analyze(const WorkloadStats& workload) const {
  WFM_CHECK_EQ(workload.n, n_);
  // Cov(x_hat) = c N I  =>  total workload variance = c N ||W||_F², spread
  // uniformly over user types.
  const double c = PerCoordinateUnitVariance();
  ErrorProfile profile;
  profile.phi.assign(n_, c * workload.frob_sq);
  profile.num_queries = workload.p;
  return profile;
}

StatusOr<Deployment> RapporMechanism::Deploy(const WorkloadStats& workload) const {
  if (workload.n != n_) {
    return Status::InvalidArgument(
        Name() + " was built for domain size " + std::to_string(n_) +
        ", workload has " + std::to_string(workload.n));
  }
  // The deployment's consistent (WNNLS) decode path needs the Gram matrix,
  // so a shape-only WorkloadStats (bare n) is a runtime-reachable misuse.
  if (workload.gram.rows() != n_ || workload.gram.cols() != n_) {
    return Status::FailedPrecondition(
        Name() + " requires full workload statistics (Gram matrix); build "
                 "the WorkloadStats with WorkloadStats::From");
  }
  const double p = 1.0 - f_;
  return Deployment{std::make_shared<BitVectorReporter>(n_, p, f_),
                    ReportDecoder(AffineDebias{p, f_}, workload),
                    Analyze(workload)};
}

PackedBits RapporMechanism::SampleReport(int u, Rng& rng) const {
  // Exactly the deployed client (bit i is 1 with probability 1-f when i == u
  // and f otherwise, drawn independently, with the same RNG consumption), so
  // simulation and deployment cannot drift apart.
  return BitVectorReporter(n_, 1.0 - f_, f_).Respond(u, rng).bits;
}

Vector RapporMechanism::SimulateEstimate(const Vector& x, Rng& rng) const {
  WFM_CHECK_EQ(static_cast<int>(x.size()), n_);
  const double num_users = Sum(x);
  Vector counts(n_, 0.0);
  // Users of type u set bit u with probability 1-f and every other bit with
  // probability f; aggregate counts are sums of independent binomials.
  for (int bit = 0; bit < n_; ++bit) {
    const std::int64_t ones_from_type =
        SampleBinomial(rng, static_cast<std::int64_t>(std::llround(x[bit])), 1.0 - f_);
    const std::int64_t others =
        static_cast<std::int64_t>(std::llround(num_users - x[bit]));
    const std::int64_t ones_from_rest = SampleBinomial(rng, others, f_);
    counts[bit] = static_cast<double>(ones_from_type + ones_from_rest);
  }
  Vector estimate(n_);
  const double denom = 1.0 - 2.0 * f_;
  for (int u = 0; u < n_; ++u) {
    estimate[u] = (counts[u] - num_users * f_) / denom;
  }
  return estimate;
}

Matrix RapporMechanism::BuildExplicitStrategy(int n, double eps) {
  WFM_CHECK_LE(n, 16) << "explicit RAPPOR strategy is 2^n rows";
  const double f = 1.0 / (1.0 + std::exp(eps / 2.0));
  const int m = 1 << n;
  Matrix q(m, n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) {
      double prob = 1.0;
      for (int bit = 0; bit < n; ++bit) {
        const bool reported = (o >> bit) & 1;
        const bool truth = (bit == u);
        prob *= (reported == truth) ? (1.0 - f) : f;
      }
      q(o, u) = prob;
    }
  }
  return q;
}

}  // namespace wfm

#include "mechanisms/oue.h"

#include <cmath>

#include "linalg/samplers.h"

namespace wfm {

OueMechanism::OueMechanism(int n, double eps)
    : n_(n), eps_(eps), q_(1.0 / (std::exp(eps) + 1.0)) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK_GT(eps, 0.0);
}

double OueMechanism::PerCoordinateUnitVariance() const {
  const double p = 0.5;
  return q_ * (1.0 - q_) / ((p - q_) * (p - q_));
}

ErrorProfile OueMechanism::Analyze(const WorkloadStats& workload) const {
  WFM_CHECK_EQ(workload.n, n_);
  // Exact per-user variance: a user of type u contributes p(1-p)/(p-q)² on
  // coordinate u and q(1-q)/(p-q)² on each other coordinate. On a workload
  // with Gram G the contribution of coordinate v's estimator variance is
  // G_vv, so
  //   phi_u = [ q(1-q) (tr G - G_uu) + p(1-p) G_uu ] / (p-q)².
  const double p = 0.5;
  const double denom = (p - q_) * (p - q_);
  const double var_one = p * (1.0 - p) / denom;
  const double var_zero = q_ * (1.0 - q_) / denom;
  const double trace = workload.gram.Trace();
  ErrorProfile profile;
  profile.phi.resize(n_);
  for (int u = 0; u < n_; ++u) {
    const double guu = workload.gram(u, u);
    profile.phi[u] = var_zero * (trace - guu) + var_one * guu;
  }
  profile.num_queries = workload.p;
  return profile;
}

StatusOr<Deployment> OueMechanism::Deploy(const WorkloadStats& workload) const {
  if (workload.n != n_) {
    return Status::InvalidArgument(
        Name() + " was built for domain size " + std::to_string(n_) +
        ", workload has " + std::to_string(workload.n));
  }
  // Analyze reads the Gram diagonal, so a shape-only WorkloadStats (bare n)
  // is a runtime-reachable misuse, not a programming error.
  if (workload.gram.rows() != n_ || workload.gram.cols() != n_) {
    return Status::FailedPrecondition(
        Name() + " requires full workload statistics (Gram matrix); build "
                 "the WorkloadStats with WorkloadStats::From");
  }
  return Deployment{std::make_shared<BitVectorReporter>(n_, 0.5, q_),
                    ReportDecoder(AffineDebias{0.5, q_}, workload),
                    Analyze(workload)};
}

PackedBits OueMechanism::SampleReport(int u, Rng& rng) const {
  // Exactly the deployed client (same bit-sliced draws, same RNG
  // consumption), so simulation and deployment cannot drift apart.
  return BitVectorReporter(n_, 0.5, q_).Respond(u, rng).bits;
}

Vector OueMechanism::SimulateEstimate(const Vector& x, Rng& rng) const {
  WFM_CHECK_EQ(static_cast<int>(x.size()), n_);
  const double num_users = Sum(x);
  Vector estimate(n_);
  for (int bit = 0; bit < n_; ++bit) {
    const std::int64_t from_type =
        SampleBinomial(rng, static_cast<std::int64_t>(std::llround(x[bit])), 0.5);
    const std::int64_t rest =
        static_cast<std::int64_t>(std::llround(num_users - x[bit]));
    const std::int64_t from_rest = SampleBinomial(rng, rest, q_);
    const double count = static_cast<double>(from_type + from_rest);
    estimate[bit] = (count - num_users * q_) / (0.5 - q_);
  }
  return estimate;
}

Matrix OueMechanism::BuildExplicitStrategy(int n, double eps) {
  WFM_CHECK_LE(n, 16) << "explicit OUE strategy is 2^n rows";
  const double q = 1.0 / (std::exp(eps) + 1.0);
  const int m = 1 << n;
  Matrix strategy(m, n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) {
      double prob = 1.0;
      for (int bit = 0; bit < n; ++bit) {
        const bool reported = (o >> bit) & 1;
        const double p_one = (bit == u) ? 0.5 : q;
        prob *= reported ? p_one : (1.0 - p_one);
      }
      strategy(o, u) = prob;
    }
  }
  return strategy;
}

}  // namespace wfm

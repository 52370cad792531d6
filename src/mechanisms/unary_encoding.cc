#include "mechanisms/unary_encoding.h"

#include <utility>

namespace wfm {

UnaryEncodingMechanism::UnaryEncodingMechanism(std::string name, int n,
                                               double eps, double p, double q)
    : name_(std::move(name)), n_(n), eps_(eps), p_(p), q_(q) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK_GT(eps, 0.0);
  WFM_CHECK(q >= 0.0 && q < p && p <= 1.0)
      << "unary encoding requires 0 <= q < p <= 1, got p =" << p << "q =" << q;
}

StatusOr<ErrorProfile> UnaryEncodingMechanism::TryAnalyze(
    const WorkloadStats& workload) const {
  // phi reads the Gram diagonal and the deployment's consistent (WNNLS)
  // decode needs the whole Gram.
  if (Status s = RequireDenseStats(workload); !s.ok()) return s;
  // phi_u = v₀ ||W||²_F + (v₁ - v₀) G_uu (see the header).
  const double denom = (p_ - q_) * (p_ - q_);
  const double v0 = q_ * (1.0 - q_) / denom;
  const double v1 = p_ * (1.0 - p_) / denom;
  ErrorProfile profile;
  profile.phi.resize(n_);
  for (int u = 0; u < n_; ++u) {
    profile.phi[u] = v0 * workload.frob_sq + (v1 - v0) * workload.gram(u, u);
  }
  profile.num_queries = workload.p;
  return profile;
}

StatusOr<Deployment> UnaryEncodingMechanism::Deploy(
    std::shared_ptr<const WorkloadStats> workload) const {
  StatusOr<ErrorProfile> profile = TryAnalyze(*workload);
  if (!profile.ok()) return profile.status();
  return Deployment{std::make_shared<BitVectorReporter>(n_, p_, q_),
                    std::make_shared<const ReportDecoder>(AffineDebias{p_, q_},
                                                          std::move(workload)),
                    std::move(profile).value()};
}

Matrix UnaryEncodingMechanism::BuildExplicitStrategy(int n, double p,
                                                     double q) {
  WFM_CHECK_LE(n, 16) << "explicit unary-encoding strategy is 2^n rows";
  const int m = 1 << n;
  Matrix strategy(m, n);
  for (int o = 0; o < m; ++o) {
    for (int u = 0; u < n; ++u) {
      double prob = 1.0;
      for (int bit = 0; bit < n; ++bit) {
        const bool reported = (o >> bit) & 1;
        const double p_one = (bit == u) ? p : q;
        prob *= reported ? p_one : (1.0 - p_one);
      }
      strategy(o, u) = prob;
    }
  }
  return strategy;
}

}  // namespace wfm

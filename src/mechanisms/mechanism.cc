#include "mechanisms/mechanism.h"

#include <algorithm>
#include <utility>

#include "core/strategy.h"

namespace wfm {
namespace {

// Threshold on the Gram-side factorization residual beyond which a strategy
// cannot produce unbiased answers for the workload (Definition 3.2 requires
// W = VQ).
constexpr double kResidualTolerance = 1e-5;

}  // namespace

double ErrorProfile::WorstUnitVariance() const {
  double m = 0.0;
  for (double v : phi) m = std::max(m, v);
  return m;
}

double ErrorProfile::AverageUnitVariance() const {
  WFM_CHECK(!phi.empty());
  return Sum(phi) / static_cast<double>(phi.size());
}

double ErrorProfile::DataVariance(const Vector& x) const {
  return Dot(x, phi);
}

double ErrorProfile::SampleComplexity(double alpha) const {
  WFM_CHECK_GT(alpha, 0.0);
  WFM_CHECK_GT(num_queries, 0);
  return WorstUnitVariance() / (static_cast<double>(num_queries) * alpha);
}

double ErrorProfile::SampleComplexityOnData(const Vector& x, double alpha) const {
  WFM_CHECK_GT(alpha, 0.0);
  const double total = Sum(x);
  WFM_CHECK_GT(total, 0.0);
  return DataVariance(x) / (total * static_cast<double>(num_queries) * alpha);
}

StatusOr<ErrorProfile> Mechanism::TryAnalyze(const WorkloadStats& workload) const {
  return Analyze(workload);
}

StatusOr<Deployment> Mechanism::Deploy(const WorkloadStats& workload) const {
  (void)workload;
  return Status::FailedPrecondition(
      Name() + " is analysis-only: it does not implement a deployment path");
}

StrategyMechanism::StrategyMechanism(Matrix q, int n, double eps)
    : q_(std::move(q)), n_(n), eps_(eps) {
  WFM_CHECK_EQ(q_.cols(), n);
  const StrategyValidation v = ValidateStrategy(q_, eps, /*tol=*/1e-6);
  WFM_CHECK(v.valid) << "invalid strategy matrix:" << v.ToString();
}

ErrorProfile StrategyMechanism::Analyze(const WorkloadStats& workload) const {
  StatusOr<ErrorProfile> profile = TryAnalyze(workload);
  WFM_CHECK(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

StatusOr<ErrorProfile> StrategyMechanism::TryAnalyze(
    const WorkloadStats& workload) const {
  FactorizationAnalysis fa(q_, workload);
  // A strategy whose row space misses part of the workload cannot produce
  // unbiased answers (Definition 3.2 requires W = VQ); its variance profile
  // would be meaningless.
  if (fa.FactorizationResidual() >= kResidualTolerance) {
    return Status::FailedPrecondition(
        Name() + " cannot represent workload " + workload.name +
        " (factorization residual " +
        std::to_string(fa.FactorizationResidual()) + ")");
  }
  ErrorProfile profile;
  profile.phi = fa.PerUserVariance();
  profile.num_queries = workload.p;
  return profile;
}

StatusOr<Deployment> StrategyMechanism::Deploy(
    const WorkloadStats& workload) const {
  FactorizationAnalysis fa(q_, workload);
  if (fa.FactorizationResidual() >= kResidualTolerance) {
    return Status::FailedPrecondition(
        Name() + " cannot be deployed for workload " + workload.name +
        ": the workload is outside the strategy's row space (residual " +
        std::to_string(fa.FactorizationResidual()) + ")");
  }
  ErrorProfile profile;
  profile.phi = fa.PerUserVariance();
  profile.num_queries = workload.p;
  return Deployment{
      std::make_shared<StrategyReporter>(std::vector<Matrix>{q_}),
      ReportDecoder::FromAnalysis(fa), std::move(profile)};
}

FactorizationAnalysis StrategyMechanism::AnalyzeFactorization(
    const WorkloadStats& workload) const {
  return FactorizationAnalysis(q_, workload);
}

}  // namespace wfm

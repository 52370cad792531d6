#include "mechanisms/mechanism.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace wfm {
namespace {

/// kInvalidArgument unless `workload` is over the mechanism's domain.
Status RequireDomain(const Mechanism& mechanism,
                     const WorkloadStats& workload) {
  if (workload.n == mechanism.domain_size()) return Status::Ok();
  return Status::InvalidArgument(
      mechanism.Name() + " was built for domain size " +
      std::to_string(mechanism.domain_size()) + ", workload has " +
      std::to_string(workload.n));
}

}  // namespace

ErrorProfile Mechanism::Analyze(const WorkloadStats& workload) const {
  StatusOr<ErrorProfile> profile = TryAnalyze(workload);
  WFM_CHECK(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

StatusOr<Deployment> Mechanism::Deploy(
    std::shared_ptr<const WorkloadStats> workload) const {
  (void)workload;
  return Status::FailedPrecondition(
      Name() + " is analysis-only: it does not implement a deployment path");
}

Status Mechanism::RequireDenseStats(const WorkloadStats& workload) const {
  if (Status s = RequireDomain(*this, workload); !s.ok()) return s;
  const int n = domain_size();
  if (workload.gram.rows() != n || workload.gram.cols() != n) {
    return Status::FailedPrecondition(
        Name() + " requires full workload statistics (Gram matrix); build "
                 "the WorkloadStats with WorkloadStats::From");
  }
  return Status::Ok();
}

StrategyMechanism::StrategyMechanism(FactoredStrategy strategy, int n,
                                     double eps)
    : strategy_(std::move(strategy)), n_(n), eps_(eps) {
  const Status valid = ValidateFactoredStrategy(strategy_, eps_);
  WFM_CHECK(valid.ok()) << valid.ToString();
  WFM_CHECK_EQ(strategy_.cols(), n_) << "composed strategy domain mismatch";
}

StatusOr<FactoredAnalysis> StrategyMechanism::TryAnalyzeStrategy(
    const WorkloadStats& workload) const {
  const std::size_t k = strategy_.factors.size();
  if (k == 1) {
    if (Status s = RequireDenseStats(workload); !s.ok()) return s;
  } else {
    if (Status s = RequireDomain(*this, workload); !s.ok()) return s;
    if (workload.factors.size() != k) {
      return Status::FailedPrecondition(
          Name() + " holds a strategy with " + std::to_string(k) +
          " factors; workload '" + workload.name + "' has " +
          std::to_string(workload.factors.size()) + " Kronecker factors");
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (workload.factors[i].n != strategy_.factors[i].cols()) {
        return Status::FailedPrecondition(
            Name() + " factor " + std::to_string(i) +
            " domain mismatch for workload '" + workload.name + "'");
      }
    }
  }
  FactoredAnalysis analysis(strategy_, workload);
  // A strategy whose row space misses part of the workload cannot produce
  // unbiased answers (Definition 3.2 requires W = VQ); its variance profile
  // would be meaningless.
  if (analysis.FactorizationResidual() >=
      FactorizationAnalysis::kResidualTolerance) {
    return Status::FailedPrecondition(
        Name() + " cannot represent workload " + workload.name +
        " (factorization residual " +
        std::to_string(analysis.FactorizationResidual()) + ")");
  }
  return analysis;
}

StatusOr<ErrorProfile> StrategyMechanism::TryAnalyze(
    const WorkloadStats& workload) const {
  StatusOr<FactoredAnalysis> analysis = TryAnalyzeStrategy(workload);
  if (!analysis.ok()) return analysis.status();
  return analysis.value().Profile();
}

StatusOr<Deployment> StrategyMechanism::Deploy(
    std::shared_ptr<const WorkloadStats> workload) const {
  StatusOr<FactoredAnalysis> analysis = TryAnalyzeStrategy(*workload);
  if (!analysis.ok()) return analysis.status();
  const FactoredAnalysis& fa = analysis.value();
  WFM_CHECK_LE(fa.m(), std::numeric_limits<int>::max());
  std::vector<Matrix> b_factors;
  b_factors.reserve(strategy_.factors.size());
  for (const Matrix* b : fa.ReconstructionFactors()) b_factors.push_back(*b);
  return Deployment{std::make_shared<StrategyReporter>(strategy_.factors),
                    std::make_shared<const ReportDecoder>(std::move(b_factors),
                                                          std::move(workload)),
                    fa.Profile()};
}

}  // namespace wfm

#include "api/plan.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

// Accept/reject tallies at the trust boundary: every untrusted report that
// clears ValidateReport into a PlanSession counts as accepted; every
// malformed one (and every report of a batch rejected atomically with it)
// counts as rejected. The wire service's 400 counter tracks the rejected
// tally one layer up.
Counter& ReportsAccepted() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_api_reports_accepted_total");
  return counter;
}

Counter& ReportsRejected() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_api_reports_rejected_total");
  return counter;
}

/// Shape validation for reports arriving from untrusted devices, run on every
/// report PlanSession ingests so malformed inputs are rejected instead of
/// aborting. `kind` is the deployment's report kind; a report of any other
/// shape is rejected before it can reach a kind-checking abort (or silently
/// skew a histogram).
Status ValidateReport(const Report& report, int m, ReportKind kind) {
  const ReportKind shape = report.is_bits()    ? ReportKind::kBitVector
                           : report.is_dense() ? ReportKind::kDense
                                               : ReportKind::kCategorical;
  if (shape != kind) {
    return Status::InvalidArgument(
        std::string("report shape is ") + KindName(shape) +
        ", deployment expects " + KindName(kind));
  }
  if (report.is_bits()) {
    if (static_cast<int>(report.bits.size()) != m) {
      return Status::InvalidArgument(
          "bit-vector report has dimension " +
          std::to_string(report.bits.size()) + ", deployment expects m = " +
          std::to_string(m));
    }
  } else if (report.is_dense()) {
    if (static_cast<int>(report.dense.size()) != m) {
      return Status::InvalidArgument(
          "dense report has dimension " + std::to_string(report.dense.size()) +
          ", deployment expects m = " + std::to_string(m));
    }
    for (int o = 0; o < m; ++o) {
      // One NaN/Inf entry would poison the aggregate for every later
      // estimate, so non-finite reports are as malformed as wrong-size ones.
      if (!std::isfinite(report.dense[o])) {
        return Status::InvalidArgument(
            "dense report entry is not finite at coordinate " +
            std::to_string(o));
      }
    }
  } else if (report.index < 0 || report.index >= m) {
    return Status::InvalidArgument(
        "response out of range: " + std::to_string(report.index) +
        " for m = " + std::to_string(m));
  }
  return Status::Ok();
}

/// ValidateReport(report, m, kind).ok() as plain conditions, so a batch of
/// valid reports builds no Status.
bool IsValidReport(const Report& report, int m, ReportKind kind) {
  switch (kind) {
    case ReportKind::kBitVector:
      return report.is_bits() && static_cast<int>(report.bits.size()) == m;
    case ReportKind::kDense: {
      if (report.is_bits() || !report.is_dense() ||
          static_cast<int>(report.dense.size()) != m) {
        return false;
      }
      bool finite = true;
      for (const double v : report.dense) finite &= std::isfinite(v);
      return finite;
    }
    case ReportKind::kCategorical:
      return !report.is_bits() && !report.is_dense() && report.index >= 0 &&
             report.index < m;
  }
  return false;
}

}  // namespace

PlanBuilder Plan::For(std::shared_ptr<const Workload> workload) {
  return PlanBuilder(std::move(workload));
}

ReportKind Plan::report_kind() const {
  return deployment_.reporter->bit_vector_reports() ? ReportKind::kBitVector
         : deployment_.reporter->dense_reports()    ? ReportKind::kDense
                                                    : ReportKind::kCategorical;
}

const FactoredStrategy* Plan::DeployedStrategy() const {
  const auto* strategy_mechanism =
      dynamic_cast<const StrategyMechanism*>(mechanism_.get());
  return strategy_mechanism != nullptr ? &strategy_mechanism->strategy()
                                       : nullptr;
}

std::unique_ptr<PlanSession> Plan::StartSession(int num_shards) const {
  // PlanSession's constructor is private; the session pins an internal
  // pointer (server -> session), hence the unique_ptr.
  // Version 0 shares the plan's deployed strategy: an aliasing pointer into
  // the mechanism that owns it, never a copy.
  const FactoredStrategy* deployed = DeployedStrategy();
  std::shared_ptr<const FactoredStrategy> strategy;
  if (deployed != nullptr) strategy = {mechanism_, deployed};
  return std::unique_ptr<PlanSession>(
      new PlanSession(deployment_.decoder, workload_, num_shards,
                      report_kind(), std::move(strategy), epsilon_));
}

PlanSession::PlanSession(std::shared_ptr<const ReportDecoder> decoder,
                         std::shared_ptr<const Workload> workload,
                         int num_shards, ReportKind kind,
                         std::shared_ptr<const FactoredStrategy> strategy,
                         double epsilon)
    : session_(std::move(decoder), std::move(workload), num_shards, kind),
      server_(&session_),
      epsilon_(epsilon) {
  if (strategy != nullptr) strategies_.emplace(0, std::move(strategy));
}

StatusOr<StrategySnapshot> PlanSession::CurrentStrategy() const {
  // The active version's matrix is always present once the deployment is
  // strategy-based: version 0 lands in the constructor and every staged roll
  // lands before Seal() can activate it.
  const int version = session_.strategy_version();
  std::lock_guard<std::mutex> lock(strategy_mutex_);
  const auto it = strategies_.find(version);
  if (it == strategies_.end()) {
    return Status::FailedPrecondition(
        "deployment is not strategy-based; no strategy to serve");
  }
  StrategySnapshot snapshot;
  snapshot.version = version;
  snapshot.epsilon = epsilon_;
  snapshot.strategy = *it->second;
  return snapshot;
}

StatusOr<int> PlanSession::RollStrategy(FactoredStrategy strategy) {
  {
    std::lock_guard<std::mutex> lock(strategy_mutex_);
    if (strategies_.empty()) {
      return Status::FailedPrecondition(
          "deployment is not strategy-based; cannot roll its strategy");
    }
  }
  // A rolled strategy arrives at runtime (re-optimization output, operator
  // upload), so LDP violations are recoverable failures, not CHECK aborts.
  if (Status valid = ValidateFactoredStrategy(strategy, epsilon_);
      !valid.ok()) {
    return valid;
  }
  // Every version decodes against the stats the plan built: the roll's
  // decoder shares them with version 0.
  const std::shared_ptr<const WorkloadStats>& stats =
      session_.decoder().shared_stats();
  if (strategy.rows() != session_.num_outputs() ||
      strategy.cols() != stats->n) {
    return Status::InvalidArgument(
        "rolled strategy is " + std::to_string(strategy.rows()) + " x " +
        std::to_string(strategy.cols()) + ", deployment requires " +
        std::to_string(session_.num_outputs()) + " x " +
        std::to_string(stats->n));
  }
  // The mechanism layer's deployability bar: the workload must lie in the
  // strategy's row space (else every decode under it would be biased), and
  // its factors must match the workload's.
  StatusOr<Deployment> deployment =
      FixedStrategyMechanism(strategy, stats->n, epsilon_).Deploy(stats);
  if (!deployment.ok()) return deployment.status();
  std::lock_guard<std::mutex> lock(strategy_mutex_);
  const int version =
      session_.StageRoll(std::move(deployment.value().decoder));
  strategies_[version] =
      std::make_shared<const FactoredStrategy>(std::move(strategy));
  return version;
}

Status PlanSession::Accept(int shard, const Report& report) {
  if (Status valid = ValidateReport(report, session_.num_outputs(),
                                    session_.report_kind());
      !valid.ok()) {
    ReportsRejected().Increment();
    return valid;
  }
  session_.Accept(shard, report);
  ReportsAccepted().AddAt(shard, 1);
  return Status::Ok();
}

Status PlanSession::AcceptBatch(int shard, std::span<const Report> reports) {
  // Validate the whole batch before ingesting anything, so a malformed
  // report rejects its batch atomically instead of leaving a prefix behind.
  // Only the first malformed report runs ValidateReport, for its message.
  const int m = session_.num_outputs();
  const ReportKind kind = session_.report_kind();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!IsValidReport(reports[i], m, kind)) {
      ReportsRejected().Add(static_cast<std::int64_t>(reports.size()));
      return Status::InvalidArgument(
          "report " + std::to_string(i) + " of batch rejected: " +
          ValidateReport(reports[i], m, kind).message());
    }
  }
  session_.AcceptBatch(shard, reports);
  ReportsAccepted().AddAt(shard, static_cast<std::int64_t>(reports.size()));
  return Status::Ok();
}

StatusOr<Plan> PlanBuilder::Build() const {
  if (workload_ == nullptr) {
    return Status::InvalidArgument("Plan::For requires a non-null workload");
  }
  if (epsilon_ <= 0.0) {
    return Status::InvalidArgument(
        "Epsilon() must set a positive per-user privacy budget (got " +
        std::to_string(epsilon_) + ")");
  }
  const MechanismRegistry& registry =
      registry_ != nullptr ? *registry_ : MechanismRegistry::Global();
  // The plan's one copy of the statistics: the deployment's decoder, and
  // through it every session and roll, shares it.
  const std::shared_ptr<const WorkloadStats> shared_stats =
      std::make_shared<const WorkloadStats>(WorkloadStats::From(*workload_));
  const WorkloadStats& stats = *shared_stats;

  std::shared_ptr<const wfm::Mechanism> mechanism;
  if (!fixed_strategy_.factors.empty()) {
    // A strategy handed in at runtime (e.g. loaded from disk) is a
    // recoverable failure, not a programming error — validate here so a
    // corrupt or wrong-epsilon file surfaces as Status instead of the
    // StrategyMechanism constructor's CHECK abort.
    if (Status valid = ValidateFactoredStrategy(fixed_strategy_, epsilon_);
        !valid.ok()) {
      return valid;
    }
    if (fixed_strategy_.cols() != stats.n) {
      return Status::InvalidArgument(
          "Strategy() has a composed domain of " +
          std::to_string(fixed_strategy_.cols()) +
          ", workload domain is " + std::to_string(stats.n));
    }
    mechanism = std::make_shared<FixedStrategyMechanism>(fixed_strategy_,
                                                         stats.n, epsilon_);
  } else if (auto_select_) {
    StatusOr<MechanismRegistry::AutoSelection> selected =
        registry.AutoSelectMechanism(stats, epsilon_, options_);
    if (!selected.ok()) return selected.status();
    mechanism = std::shared_ptr<const wfm::Mechanism>(
        std::move(selected.value().mechanism));
  } else {
    StatusOr<std::unique_ptr<wfm::Mechanism>> created =
        registry.Create(mechanism_name_, stats, epsilon_, options_);
    if (!created.ok()) return created.status();
    mechanism = std::shared_ptr<const wfm::Mechanism>(std::move(created).value());
  }

  StatusOr<Deployment> deployment = mechanism->Deploy(shared_stats);
  if (!deployment.ok()) return deployment.status();

  return Plan(workload_, epsilon_, std::move(mechanism),
              std::move(deployment).value());
}

}  // namespace wfm

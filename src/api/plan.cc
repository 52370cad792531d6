#include "api/plan.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/strategy.h"
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

}  // namespace

PlanBuilder Plan::For(std::shared_ptr<const Workload> workload) {
  return PlanBuilder(std::move(workload));
}

ReportKind Plan::report_kind() const {
  return deployment_.reporter->bit_vector_reports() ? ReportKind::kBitVector
         : deployment_.reporter->dense_reports()    ? ReportKind::kDense
                                                    : ReportKind::kCategorical;
}

const Matrix* Plan::DeployedStrategy() const {
  const auto* strategy_mechanism =
      dynamic_cast<const StrategyMechanism*>(mechanism_.get());
  return strategy_mechanism != nullptr ? &strategy_mechanism->strategy()
                                       : nullptr;
}

std::unique_ptr<PlanSession> Plan::StartSession(int num_shards) const {
  // PlanSession's constructor is private; the session pins an internal
  // pointer (server -> session), hence the unique_ptr.
  const Matrix* strategy = DeployedStrategy();
  return std::unique_ptr<PlanSession>(new PlanSession(
      deployment_.decoder, workload_, num_shards, report_kind(),
      strategy != nullptr ? *strategy : Matrix(), epsilon_, stats_));
}

PlanSession::PlanSession(ReportDecoder decoder,
                         std::shared_ptr<const Workload> workload,
                         int num_shards, ReportKind kind, Matrix strategy,
                         double epsilon, WorkloadStats stats)
    : session_(std::move(decoder), std::move(workload), num_shards, kind),
      server_(&session_),
      epsilon_(epsilon),
      stats_(std::move(stats)) {
  if (!strategy.empty()) strategies_.emplace(0, std::move(strategy));
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
  snapshot.q = it->second;
  return snapshot;
}

StatusOr<int> PlanSession::RollStrategy(Matrix q) {
  {
    std::lock_guard<std::mutex> lock(strategy_mutex_);
    if (strategies_.empty()) {
      return Status::FailedPrecondition(
          "deployment is not strategy-based; cannot roll its strategy");
    }
  }
  if (q.rows() != session_.num_outputs() || q.cols() != stats_.n) {
    return Status::InvalidArgument(
        "rolled strategy is " + std::to_string(q.rows()) + " x " +
        std::to_string(q.cols()) + ", deployment requires " +
        std::to_string(session_.num_outputs()) + " x " +
        std::to_string(stats_.n));
  }
  // A rolled strategy arrives at runtime (re-optimization output, operator
  // upload), so LDP violations are recoverable failures, not CHECK aborts.
  const StrategyValidation validation = ValidateStrategy(q, epsilon_,
                                                         /*tol=*/1e-6);
  if (!validation.valid) {
    return Status::InvalidArgument(
        "rolled strategy is not a valid " + std::to_string(epsilon_) +
        "-LDP strategy:" + validation.ToString());
  }
  const FactorizationAnalysis analysis(q, stats_);
  // Mirrors the mechanism layer's deployability bar (mechanism.cc): a large
  // Gram-side residual means the workload left the strategy's row space and
  // every decode under it would be biased.
  if (analysis.FactorizationResidual() >= 1e-5) {
    return Status::FailedPrecondition(
        "workload is outside the rolled strategy's row space "
        "(factorization residual " +
        std::to_string(analysis.FactorizationResidual()) + ")");
  }
  std::lock_guard<std::mutex> lock(strategy_mutex_);
  const int version = session_.StageRoll(ReportDecoder::FromAnalysis(analysis));
  strategies_[version] = std::move(q);
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
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (Status valid = ValidateReport(reports[i], session_.num_outputs(),
                                      session_.report_kind());
        !valid.ok()) {
      ReportsRejected().Add(static_cast<std::int64_t>(reports.size()));
      return Status::InvalidArgument("report " + std::to_string(i) +
                                     " of batch rejected: " + valid.message());
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
  WorkloadStats stats = WorkloadStats::From(*workload_);

  std::shared_ptr<const wfm::Mechanism> mechanism;
  if (!fixed_strategy_.empty()) {
    if (stats.factored() && stats.gram.empty()) {
      return Status::InvalidArgument(
          "Strategy() supplies a dense strategy matrix, but workload '" +
          stats.name + "' is Kronecker-structured past the dense ceiling "
          "(n = " + std::to_string(stats.n) +
          "); use the \"Optimized\" mechanism's factored path instead");
    }
    if (fixed_strategy_.cols() != stats.n) {
      return Status::InvalidArgument(
          "Strategy() matrix has " + std::to_string(fixed_strategy_.cols()) +
          " columns, workload domain is " + std::to_string(stats.n));
    }
    // A strategy handed in at runtime (e.g. loaded from disk) is a
    // recoverable failure, not a programming error — validate here so a
    // corrupt or wrong-epsilon file surfaces as Status instead of the
    // StrategyMechanism constructor's CHECK abort.
    const StrategyValidation validation =
        ValidateStrategy(fixed_strategy_, epsilon_, /*tol=*/1e-6);
    if (!validation.valid) {
      return Status::InvalidArgument(
          "Strategy() matrix is not a valid " + std::to_string(epsilon_) +
          "-LDP strategy:" + validation.ToString());
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

  StatusOr<Deployment> deployment = mechanism->Deploy(stats);
  if (!deployment.ok()) return deployment.status();

  return Plan(workload_, std::move(stats), epsilon_, std::move(mechanism),
              std::move(deployment).value());
}

}  // namespace wfm

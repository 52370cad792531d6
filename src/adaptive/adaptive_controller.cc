#include "adaptive/adaptive_controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/factorization.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

Gauge& DriftSigmasGauge() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("wfm_adaptive_drift_sigmas");
  return gauge;
}

Counter& ReoptimizationsTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "wfm_adaptive_reoptimizations_total");
  return counter;
}

Counter& RollsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_adaptive_rolls_total");
  return counter;
}

/// The estimated data vector as a distribution: negatives (privacy noise)
/// clamped away and the rest normalized to sum 1. Falls back to uniform
/// when the estimate carries no mass at all.
Vector NormalizedDistribution(Vector estimate) {
  double mass = 0.0;
  for (double& v : estimate) {
    v = std::max(0.0, v);
    mass += v;
  }
  if (mass <= 0.0) {
    estimate.assign(estimate.size(), 1.0 / estimate.size());
    return estimate;
  }
  for (double& v : estimate) v /= mass;
  return estimate;
}

/// Population weights for the re-optimization objective: a blend of uniform
/// and the estimated mix, x̃_u = (1 − rho) + rho n x_u. At rho = 0 the
/// objective's multinomial denominator stays the paper's uniform Diag(Q 1);
/// at rho = 1 it is Diag(Q x) for the distribution the fleet is actually
/// reporting. Intermediate rho hedges against estimation noise in x.
Vector PopulationWeights(const Vector& x, double rho) {
  const int n = static_cast<int>(x.size());
  Vector weights(n, 1.0);
  for (int u = 0; u < n; ++u) {
    weights[u] = (1.0 - rho) + rho * n * x[u];
  }
  return weights;
}

}  // namespace

AdaptiveController::AdaptiveController(PlanSession* session,
                                       BudgetPlanner* planner,
                                       AdaptiveConfig config)
    : session_(session), planner_(planner), config_(std::move(config)),
      detector_(config_.drift) {
  WFM_CHECK(session != nullptr);
  WFM_CHECK(config_.reweight_rho >= 0.0 && config_.reweight_rho <= 1.0)
      << "reweight_rho must lie in [0, 1]";
}

StatusOr<EpochDecision> AdaptiveController::OnEpochSealed() {
  // Re-optimization is dense PGD on stats.gram, so it needs a one-factor
  // incumbent; a factored deployment serves and rolls, but not from here.
  StatusOr<StrategySnapshot> incumbent = session_->CurrentStrategy();
  if (!incumbent.ok()) return incumbent.status();
  if (incumbent.value().strategy.factors.size() != 1) {
    return Status::FailedPrecondition(
        "adaptive re-optimization needs a dense (one-factor) strategy; the "
        "deployed one has " +
        std::to_string(incumbent.value().strategy.factors.size()) +
        " factors");
  }
  const Matrix& incumbent_q = incumbent.value().strategy.factors[0];

  const CollectionSession& collection = session_->session();
  const std::shared_ptr<const EpochSnapshot> latest =
      collection.LatestSnapshot();
  if (latest == nullptr) {
    return Status::FailedPrecondition("no sealed epoch to score");
  }

  EpochDecision decision;
  if (reference_ == nullptr ||
      reference_->strategy_version != latest->strategy_version) {
    // First epoch under this strategy: it becomes the drift reference. A
    // just-rolled strategy changes the decode noise profile, so comparing
    // across the roll would mix strategy change with population change.
    reference_ = latest;
    DriftSigmasGauge().Set(0.0);
    return decision;
  }
  if (reference_->epoch_id == latest->epoch_id) {
    // OnEpochSealed called twice without an intervening Seal().
    return decision;
  }

  const std::shared_ptr<const ReportDecoder> decoder =
      collection.DecoderForVersion(latest->strategy_version);
  WFM_CHECK(decoder != nullptr);
  StatusOr<DriftScore> scored = detector_.Score(*decoder, *reference_,
                                                *latest);
  if (!scored.ok()) return scored.status();
  decision.drift = scored.value();
  decision.scored = true;
  DriftSigmasGauge().Set(decision.drift.sigmas);
  if (!decision.drift.drifted) return decision;

  // A staged roll that has not reached its epoch boundary yet already
  // answers this drift; re-optimizing again would only replace it with a
  // near-identical strategy at full optimizer cost.
  if (pending_version_ > latest->strategy_version) return decision;

  // Drift confirmed. A new strategy is a new collection round; without
  // budget for it the drift is reported (gauge, decision) but not acted on.
  if (planner_ != nullptr && !planner_->CanSpendRound()) return decision;

  const WorkloadStats& stats = decoder->workload_stats();
  const Vector x = NormalizedDistribution(
      decoder->EstimateDataVector(latest->histogram, latest->count));

  ++reoptimizations_;
  ReoptimizationsTotal().Increment();
  decision.reoptimized = true;
  OptimizerConfig optimizer = config_.optimizer;
  optimizer.seed_strategies.push_back(incumbent_q);
  optimizer.population = PopulationWeights(x, config_.reweight_rho);
  const OptimizerResult result =
      OptimizeStrategy(stats.gram, incumbent.value().epsilon, optimizer);

  // Accept only on measured improvement where it counts: exact Theorem 3.4
  // variance on the *real* workload at the estimated data vector (the
  // optimizer minimized the population-weighted objective, which tracks it
  // but is not identical once the projection constraints bind).
  decision.incumbent_variance =
      FactorizationAnalysis(incumbent_q, stats).Profile().DataVariance(x);
  decision.candidate_variance =
      FactorizationAnalysis(result.q, stats).Profile().DataVariance(x);
  if (decision.candidate_variance >= decision.incumbent_variance) {
    return decision;
  }

  StatusOr<int> staged =
      session_->RollStrategy({{result.q}, {incumbent.value().epsilon}});
  if (!staged.ok()) return staged.status();
  if (planner_ != nullptr) planner_->SpendRound();
  ++rolls_;
  RollsTotal().Increment();
  decision.rolled = true;
  decision.staged_version = staged.value();
  pending_version_ = staged.value();
  return decision;
}

}  // namespace wfm

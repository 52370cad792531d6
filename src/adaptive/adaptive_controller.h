// The feedback loop of adaptive serving: watch sealed epochs for drift,
// re-optimize the strategy against what the estimates say the population
// now looks like, and roll the deployment at the next epoch boundary.
//
// One controller watches one strategy-based PlanSession. After every
// Seal() the caller hands control here, and the controller:
//
//   1. scores the newest sealed epoch against its reference epoch — the
//      first epoch sealed under the currently active strategy — with the
//      noise-aware DriftDetector (drift_detector.h), publishing the score
//      on the wfm_adaptive_drift_sigmas gauge;
//   2. on drift, checks the BudgetPlanner (budget_planner.h): a roll
//      deploys a new strategy, which is a new collection round, and rounds
//      the budget no longer covers are refused — drift past budget
//      exhaustion is reported but never acted on;
//   3. re-runs the Algorithm 2 optimizer warm-started from the current
//      strategy against the population-weighted objective: the multinomial
//      denominator becomes D = Diag(Q x̃) with x̃_u = (1 − rho) + rho n x_u
//      and x the normalized estimated data vector
//      (OptimizerConfig::population), interpolating between the paper's
//      uniform-population objective (rho = 0) and one that measures expected
//      variance for the population actually reporting (rho = 1);
//   4. accepts the candidate only if its exact Theorem 3.4 variance on the
//      *real* workload at the estimated data vector beats the incumbent's —
//      a failed re-optimization costs compute, never accuracy — and stages
//      it through PlanSession::RollStrategy, where epsilon-LDP validation
//      and the epoch-boundary rollover semantics live.
//
// Everything here consumes only the privatized estimates the server already
// holds; no step touches raw data or spends privacy budget beyond the
// planner's declared rounds.

#ifndef WFM_ADAPTIVE_ADAPTIVE_CONTROLLER_H_
#define WFM_ADAPTIVE_ADAPTIVE_CONTROLLER_H_

#include <memory>

#include "adaptive/budget_planner.h"
#include "adaptive/drift_detector.h"
#include "api/plan.h"
#include "common/status.h"
#include "core/optimizer.h"

namespace wfm {

struct AdaptiveConfig {
  DriftConfig drift;
  /// Population-weighting strength rho in [0, 1], blended into the
  /// re-optimization objective's multinomial denominator as
  /// x̃_u = (1 − rho) + rho n x_u (OptimizerConfig::population). 0
  /// re-optimizes the paper's uniform-population objective (a roll then only
  /// ever restores the offline optimum); 1 optimizes expected variance for
  /// the estimated distribution x exactly; in between hedges against the
  /// privacy noise in x.
  double reweight_rho = 0.5;
  /// Optimizer knobs for re-optimization runs. The controller always
  /// appends the incumbent strategy to seed_strategies (warm start), so
  /// modest iteration counts converge: the incumbent is already feasible
  /// and near-optimal for the undrifted part of the objective.
  OptimizerConfig optimizer;
};

/// What the controller did with one sealed epoch.
struct EpochDecision {
  DriftScore drift;          ///< Score vs the reference epoch (zeros when
                             ///< this epoch became the new reference).
  bool scored = false;       ///< False when this epoch is the new reference.
  bool reoptimized = false;  ///< An optimizer run happened.
  bool rolled = false;       ///< A new strategy was staged for next epoch.
  int staged_version = -1;   ///< Version the staged strategy will carry.
  double incumbent_variance = 0.0;  ///< Thm 3.4 variance at the estimate.
  double candidate_variance = 0.0;  ///< Same for the candidate (if re-opt).
};

class AdaptiveController {
 public:
  /// Watches `session` (not owned, must outlive the controller). `planner`
  /// may be null — then rolls are not budget-gated (analysis/bench use);
  /// when set, it must also outlive the controller and every roll spends
  /// one round.
  AdaptiveController(PlanSession* session, BudgetPlanner* planner,
                     AdaptiveConfig config = {});

  /// Runs the drift -> re-optimize -> roll pipeline on the newest sealed
  /// epoch. Call after each Seal(). kFailedPrecondition, before anything is
  /// scored, when the session serves no strategy (RAPPOR/OUE, additive
  /// noise) or one with k > 1 factors (re-optimization is dense PGD on the
  /// workload Gram), and when nothing is sealed yet; drift-scoring errors
  /// (empty epochs) pass through.
  StatusOr<EpochDecision> OnEpochSealed();

  /// Re-optimizations attempted over this controller's lifetime.
  int reoptimizations() const { return reoptimizations_; }
  /// Strategies staged (successful rolls).
  int rolls() const { return rolls_; }

 private:
  PlanSession* session_;
  BudgetPlanner* planner_;
  AdaptiveConfig config_;
  DriftDetector detector_;

  /// First epoch sealed under the active strategy version: the drift
  /// reference. Reset whenever the active version moves.
  std::shared_ptr<const EpochSnapshot> reference_;
  /// Version of the last staged roll; while it exceeds the session's active
  /// version a roll is already pending and drifted epochs do not trigger
  /// another optimizer run.
  int pending_version_ = 0;
  int reoptimizations_ = 0;
  int rolls_ = 0;
};

}  // namespace wfm

#endif  // WFM_ADAPTIVE_ADAPTIVE_CONTROLLER_H_

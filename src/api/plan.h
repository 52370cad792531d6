// The deployable front door of the library: one fluent call chain from a
// workload to a runnable client/server pair.
//
//   auto plan = wfm::Plan::For(workload)
//                   .Epsilon(1.0)
//                   .Mechanism("Optimized")   // or .Mechanism(wfm::Auto())
//                   .Build();                 // StatusOr<wfm::Plan>
//
// A Plan packages everything the paper's pipeline produces offline — the
// chosen mechanism, its error profile on the workload, and the two halves of
// a deployment:
//
//   plan.Client()             on-device reporter (ldp/reporter.h)
//   plan.StartSession(k)      the server: collect/CollectionSession sharded
//                             over k workers + cached EstimateServer
//
// One round of the paper's protocol is StartSession(1), Accept() per
// report, Seal(), then Estimate(); the same session keeps serving epochs.
//
// Mechanism names resolve through MechanismRegistry::Global(), so every
// registered mechanism — the six Section 6.1 baselines, "Optimized", the
// "RAPPOR"/"OUE" frequency oracles, and anything user-registered — deploys
// through the same calls.
//
// Strategy-based sessions additionally support adaptive serving. A strategy
// is a FactoredStrategy Q = Q_0 ⊗ ... ⊗ Q_{k-1} with k >= 1 factors (a dense
// Q is k = 1) everywhere it appears: handed in (PlanBuilder::Strategy),
// exposed (Plan::DeployedStrategy, PlanSession::CurrentStrategy), shipped
// and stored (wire/wire_format.h, wire/snapshot_store.h) and replaced
// mid-service (PlanSession::RollStrategy). Each of these entry points runs
// the one validator, ValidateFactoredStrategy (core/factored.h). A roll is
// staged and becomes active at the next epoch boundary, so sealed epochs
// always decode under the strategy their reports were encoded with.
// Mechanism(Auto()) cross-evaluates the whole registry against the workload
// (Section 6.1) and picks the minimum-variance entry. All runtime-reachable
// failures (unknown name, unsupported domain shape, workload outside a
// strategy's row space, serving before data arrives) surface as Status.

#ifndef WFM_API_PLAN_H_
#define WFM_API_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "collect/collection_session.h"
#include "collect/estimate_server.h"
#include "common/status.h"
#include "core/factored.h"
#include "estimation/decoder.h"
#include "estimation/estimator.h"
#include "ldp/reporter.h"
#include "linalg/matrix.h"
#include "mechanisms/registry.h"
#include "workload/workload.h"

namespace wfm {

/// Tag for PlanBuilder::Mechanism(Auto()): let the registry's Section 6.1
/// cross-evaluation pick the mechanism.
struct Auto {};

class Plan;
class PlanBuilder;

/// A versioned deployed strategy: everything a (possibly remote) client
/// needs to rebuild its encoder after a roll (a StrategyReporter over
/// `strategy.factors`). Served in-process by PlanSession::CurrentStrategy,
/// over the network by wire/kGetStrategy, and stored by SaveStrategyFile.
struct StrategySnapshot {
  int version = 0;       ///< Session strategy version this strategy carries.
  double epsilon = 0.0;  ///< Privacy budget the strategy satisfies.
  FactoredStrategy strategy;  ///< k >= 1 factors and their budget shares.
};

/// The on-device half of a plan: privatizes one user's true type into the
/// single report that leaves the device. Copyable and cheap to pass to
/// worker threads (Respond is const and thread-compatible; use one Rng per
/// thread).
class PlanClient {
 public:
  /// Report dimension m.
  int num_outputs() const { return reporter_->num_outputs(); }
  /// Domain size n.
  int num_types() const { return reporter_->num_types(); }
  /// True when reports are dense vectors (additive mechanisms).
  bool dense_reports() const { return reporter_->dense_reports(); }
  /// True when reports are n-bit vectors (RAPPOR/OUE frequency oracles).
  bool bit_vector_reports() const { return reporter_->bit_vector_reports(); }

  /// One user's privatized report.
  Report Respond(int user_type, Rng& rng) const {
    return reporter_->Respond(user_type, rng);
  }

 private:
  friend class Plan;
  explicit PlanClient(std::shared_ptr<const Reporter> reporter)
      : reporter_(std::move(reporter)) {}

  std::shared_ptr<const Reporter> reporter_;
};

/// The server half of a plan: a sharded CollectionSession (epoch sealing,
/// windowed totals) plus a caching EstimateServer, wired to the plan's
/// deployment. Create via Plan::StartSession.
class PlanSession {
 public:
  /// Ingests one report on the given shard; thread-safe. Reports arrive from
  /// untrusted devices, so malformed ones — a shape that does not match the
  /// deployment's report kind, a dense or bit-vector report whose dimension
  /// mismatches the deployment's m, a non-finite dense entry, an
  /// out-of-range categorical index — are rejected with kInvalidArgument
  /// and never ingested, rather than aborting the server. Shard ids are
  /// caller-controlled, so an out-of-range shard still aborts.
  Status Accept(int shard, const Report& report);

  /// Batched untrusted ingest, any report kind: the whole batch is validated
  /// first and rejected atomically — if any report is malformed, nothing is
  /// ingested and the Status names the offending position. The accepted
  /// batch lands via the scratch-count path (one atomic per touched counter
  /// per batch), so network endpoints can hand over whole request bodies.
  Status AcceptBatch(int shard, std::span<const Report> reports);

  /// Freezes the current epoch (see CollectionSession::Seal).
  EpochSnapshot Seal() { return session_.Seal(); }

  /// Sealed-epoch snapshot by id; kNotFound when that epoch has not been
  /// sealed (the wire layer's 404).
  StatusOr<std::shared_ptr<const EpochSnapshot>> Snapshot(int epoch_id) const {
    return session_.Snapshot(epoch_id);
  }

  /// Adopts a sealed epoch from a persisted store or another node; validated
  /// like any untrusted input (see CollectionSession::RestoreSealedEpoch).
  /// Returns the locally assigned epoch id.
  StatusOr<int> RestoreSealedEpoch(const EpochSnapshot& snapshot) {
    return session_.RestoreSealedEpoch(snapshot);
  }

  /// Cached workload answers from the latest sealed epoch.
  /// kFailedPrecondition until the first Seal().
  StatusOr<WorkloadEstimate> Estimate(
      EstimatorKind kind = EstimatorKind::kWnnls) {
    return server_.Serve(kind);
  }

  /// Cached workload answers over the last `window` sealed epochs.
  StatusOr<WorkloadEstimate> EstimateWindow(
      int window, EstimatorKind kind = EstimatorKind::kWnnls) {
    return server_.ServeWindow(window, kind);
  }

  /// The strategy clients should encode under right now, with any number of
  /// factors, tagged with the session version it carries and the budget it
  /// satisfies — what wire/kGetStrategy ships so a networked client can
  /// rebuild its encoder after a roll. kFailedPrecondition when the
  /// deployment is not strategy-based (RAPPOR/OUE and additive-noise plans
  /// have no strategy to hand out, and cannot roll).
  StatusOr<StrategySnapshot> CurrentStrategy() const;

  /// Stages `strategy` as this session's next strategy. It is validated like
  /// any runtime strategy input: ValidateFactoredStrategy at the plan's
  /// budget and a composed shape of the deployment's m x n
  /// (kInvalidArgument otherwise), then deployed as a FixedStrategyMechanism,
  /// whose per-factor Theorem 3.10 decoder needs the workload inside the
  /// strategy's row space and factor domains that match a Kronecker
  /// workload's (kFailedPrecondition otherwise). The decoder goes to
  /// CollectionSession::StageRoll. The roll takes effect at the next Seal(),
  /// so no epoch ever mixes strategies; until then CurrentStrategy() keeps
  /// serving the active one. Returns the version the staged strategy will
  /// carry once active.
  StatusOr<int> RollStrategy(FactoredStrategy strategy);

  /// Underlying collect/ primitives for service-level integration.
  CollectionSession& session() { return session_; }
  const CollectionSession& session() const { return session_; }
  EstimateServer& server() { return server_; }

 private:
  friend class Plan;
  /// `strategy` is the deployed one, or nullptr for a deployment that is not
  /// strategy-based.
  PlanSession(std::shared_ptr<const ReportDecoder> decoder,
              std::shared_ptr<const Workload> workload, int num_shards,
              ReportKind kind, std::shared_ptr<const FactoredStrategy> strategy,
              double epsilon);

  CollectionSession session_;
  EstimateServer server_;
  double epsilon_ = 0.0;

  // Strategy by session version: version 0 is the plan's deployed strategy,
  // shared with the plan's mechanism (never copied); rolls insert theirs at
  // stage time under the version StageRoll hands back, so the active version
  // is always present. Empty for non-strategy deployments (which cannot
  // roll).
  mutable std::mutex strategy_mutex_;
  std::map<int, std::shared_ptr<const FactoredStrategy>> strategies_;
};

/// An immutable, fully-resolved deployment plan. Copyable; hands out client
/// and server halves that share the plan's offline-computed artifacts.
class Plan {
 public:
  static PlanBuilder For(std::shared_ptr<const Workload> workload);

  const Workload& workload() const { return *workload_; }
  /// The workload statistics the deployment decodes against: built once by
  /// Build and shared, never copied, by the plan's decoder, every session's
  /// decoder history and every strategy roll.
  const WorkloadStats& stats() const {
    return deployment_.decoder->workload_stats();
  }
  double epsilon() const { return epsilon_; }

  /// The resolved mechanism (name via mechanism().Name()).
  const Mechanism& mechanism() const { return *mechanism_; }
  const std::string& mechanism_name() const { return mechanism_name_; }

  /// Error analysis of the deployed mechanism on the plan's workload
  /// (computed once at Build alongside the deployment; consumes no privacy
  /// budget).
  const ErrorProfile& Profile() const { return deployment_.profile; }

  /// Expected total squared error over all workload queries for N users
  /// (Corollary 3.5) — the number an analyst sizes a collection with.
  double ExpectedTotalVariance(double num_users) const {
    return num_users * Profile().WorstUnitVariance();
  }

  /// Report shape this deployment's clients emit and its servers ingest.
  ReportKind report_kind() const;

  /// The deployed strategy, with its k >= 1 factors (k > 1 on the factored
  /// "Optimized" path past the dense ceiling), or nullptr when the resolved
  /// mechanism is not strategy-based (RAPPOR/OUE frequency oracles,
  /// additive-noise mechanisms). Sessions of plans with a strategy serve it
  /// and support RollStrategy.
  const FactoredStrategy* DeployedStrategy() const;

  PlanClient Client() const { return PlanClient(deployment_.reporter); }
  std::unique_ptr<PlanSession> StartSession(int num_shards) const;

 private:
  friend class PlanBuilder;
  Plan(std::shared_ptr<const Workload> workload, double epsilon,
       std::shared_ptr<const Mechanism> mechanism, Deployment deployment)
      : workload_(std::move(workload)),
        epsilon_(epsilon),
        mechanism_(std::move(mechanism)),
        mechanism_name_(mechanism_->Name()),
        deployment_(std::move(deployment)) {}

  std::shared_ptr<const Workload> workload_;
  double epsilon_ = 0.0;
  std::shared_ptr<const Mechanism> mechanism_;
  std::string mechanism_name_;
  Deployment deployment_;
};

class PlanBuilder {
 public:
  explicit PlanBuilder(std::shared_ptr<const Workload> workload)
      : workload_(std::move(workload)) {}

  /// Per-user privacy budget (required, must be positive).
  PlanBuilder& Epsilon(double eps) {
    epsilon_ = eps;
    return *this;
  }

  /// Deploy a mechanism by registry name (default: "Optimized").
  PlanBuilder& Mechanism(std::string name) {
    mechanism_name_ = std::move(name);
    auto_select_ = false;
    fixed_strategy_ = {};
    return *this;
  }

  /// Deploy the registry's minimum-variance mechanism for this workload.
  PlanBuilder& Mechanism(Auto) {
    auto_select_ = true;
    fixed_strategy_ = {};
    return *this;
  }

  /// Deploy a precomputed strategy with k >= 1 factors (e.g. loaded via
  /// LoadStrategyFile in the offline/online split) instead of a registry
  /// mechanism. Build() returns ValidateFactoredStrategy's Status at the
  /// plan's budget, kInvalidArgument when the composed domain is not the
  /// workload's, and kFailedPrecondition when the workload cannot be
  /// decoded under it (see RollStrategy).
  PlanBuilder& Strategy(FactoredStrategy strategy) {
    fixed_strategy_ = std::move(strategy);
    auto_select_ = false;
    return *this;
  }

  /// Optimizer knobs consumed when the mechanism is "Optimized" (iterations,
  /// seed, num_restarts, random_init_rows) — pin the seed for reproducible
  /// strategies.
  PlanBuilder& Optimizer(OptimizerConfig config) {
    options_.optimizer = std::move(config);
    return *this;
  }

  /// Resolve against a specific registry (default: the global one).
  PlanBuilder& Registry(const MechanismRegistry* registry) {
    registry_ = registry;
    return *this;
  }

  /// Resolves the mechanism, derives its deployment and error profile, and
  /// returns the immutable Plan. All validation errors surface here.
  StatusOr<Plan> Build() const;

 private:
  std::shared_ptr<const Workload> workload_;
  double epsilon_ = 0.0;
  std::string mechanism_name_ = "Optimized";
  bool auto_select_ = false;
  FactoredStrategy fixed_strategy_;
  MechanismOptions options_;
  const MechanismRegistry* registry_ = nullptr;
};

}  // namespace wfm

#endif  // WFM_API_PLAN_H_

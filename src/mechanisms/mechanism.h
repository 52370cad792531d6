// Common interface for ε-LDP mechanisms that answer linear query workloads.
//
// Every mechanism exposes an ErrorProfile against a workload: the per-user
// unit variance phi_u (Theorem 3.4 with x = e_u), from which worst-case /
// average-case variance, data-dependent variance and the paper's sample
// complexity metric (Corollary 5.4) all follow. Strategy-matrix mechanisms
// (Proposition 2.6) get their profile from FactoredAnalysis with the
// optimal reconstruction V of Theorem 3.10 — exactly how the paper evaluates
// baselines on workloads they were not designed for (Section 6.1 runs the
// same Q on every workload and re-derives V per workload). Additive-noise
// mechanisms (the distributed Matrix Mechanism) and unary encoding (RAPPOR,
// OUE) compute their profile in closed form.
//
// Beyond analysis, every runnable mechanism exposes Deploy(): the
// client/server halves of the paper's one-round protocol — a Reporter that
// privatizes one user's type on-device and a ReportDecoder that
// reconstructs the data vector from the aggregate of all reports. api/Plan
// is the high-level front door over this seam.

#ifndef WFM_MECHANISMS_MECHANISM_H_
#define WFM_MECHANISMS_MECHANISM_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/factored.h"
#include "core/factorization.h"
#include "estimation/decoder.h"
#include "ldp/reporter.h"
#include "linalg/matrix.h"

namespace wfm {

/// The two halves of a runnable deployment for one (mechanism, workload)
/// pair: what runs on each device and how the server decodes the aggregate,
/// plus the error profile of that deployment on the workload (computed from
/// the same analysis, so Deploy() callers never re-derive it). Both halves
/// are immutable and shared: every session of a plan holds the same decoder.
struct Deployment {
  std::shared_ptr<const Reporter> reporter;
  std::shared_ptr<const ReportDecoder> decoder;
  ErrorProfile profile;
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Display name as used in the paper's figures.
  virtual std::string Name() const = 0;

  /// Domain size this instance was built for.
  virtual int domain_size() const = 0;

  /// Privacy budget this instance was built for.
  virtual double epsilon() const = 0;

  /// Error analysis against a workload (consumes no privacy budget), the
  /// one analysis every mechanism implements. Every failure is a Status,
  /// never an abort: kInvalidArgument for stats of another domain size,
  /// kFailedPrecondition when the stats lack what the analysis reads (a
  /// shape-only WorkloadStats has no Gram) or the mechanism cannot produce
  /// unbiased answers for the workload (W outside the strategy's row space).
  virtual StatusOr<ErrorProfile> TryAnalyze(
      const WorkloadStats& workload) const = 0;

  /// TryAnalyze for callers that know the workload fits; CHECKs its Status.
  /// Callers that can meet an unfit workload at runtime (cross-evaluation,
  /// AutoSelectMechanism) use TryAnalyze.
  ErrorProfile Analyze(const WorkloadStats& workload) const;

  /// Client/server halves for actually running this mechanism on `workload`
  /// (non-null), with TryAnalyze's Status on the same stats. The decoder
  /// shares `workload` instead of copying it. Base implementation:
  /// analysis-only mechanism, kFailedPrecondition.
  virtual StatusOr<Deployment> Deploy(
      std::shared_ptr<const WorkloadStats> workload) const;

 protected:
  /// The precondition of the analyses that read the dense Gram:
  /// kInvalidArgument for stats over another domain size than
  /// domain_size(), kFailedPrecondition without the n x n Gram (shape-only
  /// stats, as CreateBaseline builds them).
  Status RequireDenseStats(const WorkloadStats& workload) const;
};

/// A mechanism fully described by a strategy Q = Q_0 ⊗ ... ⊗ Q_{k-1} with
/// k >= 1 factors (Proposition 2.6; a dense strategy is the one-factor case).
/// Factor i is ε_i-LDP and the composed channel samples the factors
/// independently, so the mechanism is (Σ ε_i)-LDP. Reconstruction uses the
/// closed-form optimal V of Theorem 3.10, factor by factor, and analysis
/// runs the product-law evaluator FactoredAnalysis (core/factored.h), so a
/// structured domain of n = Π n_i deploys with memory and compute
/// proportional to the factor sizes.
class StrategyMechanism : public Mechanism {
 public:
  /// One dense ε-LDP factor over a domain of n.
  StrategyMechanism(Matrix q, int n, double eps)
      : StrategyMechanism(FactoredStrategy{{std::move(q)}, {eps}}, n, eps) {}
  /// `strategy` holds the per-factor matrices and their budget shares; `eps`
  /// is the total budget. CHECKs ValidateFactoredStrategy(strategy, eps), so
  /// callers holding untrusted strategies run it first and return its
  /// Status. `n` is the composed domain Π n_i.
  StrategyMechanism(FactoredStrategy strategy, int n, double eps);

  int domain_size() const override { return n_; }
  double epsilon() const override { return eps_; }
  const FactoredStrategy& strategy() const { return strategy_; }

  /// Analysis and deployment need the workload in the strategy's row space.
  /// One factor analyses any stats that meet RequireDenseStats. A strategy
  /// with k > 1 factors needs stats over its domain (kInvalidArgument) that
  /// are Kronecker with factor domains matching its own (kFailedPrecondition).
  StatusOr<ErrorProfile> TryAnalyze(const WorkloadStats& workload) const override;

  /// The client is a StrategyReporter over the factors; the server decodes
  /// through the per-factor Theorem 3.10 reconstructions.
  StatusOr<Deployment> Deploy(
      std::shared_ptr<const WorkloadStats> workload) const override;

 private:
  StatusOr<FactoredAnalysis> TryAnalyzeStrategy(
      const WorkloadStats& workload) const;

  FactoredStrategy strategy_;
  int n_;
  double eps_;
};

/// A StrategyMechanism around an externally supplied strategy — e.g. one
/// loaded from disk in the offline/online deployment split
/// (wire/snapshot_store.h), handed to PlanBuilder::Strategy() or
/// PlanSession::RollStrategy(), or optimized per factor for a structured
/// domain.
class FixedStrategyMechanism final : public StrategyMechanism {
 public:
  FixedStrategyMechanism(FactoredStrategy strategy, int n, double eps,
                         std::string name = "Strategy")
      : StrategyMechanism(std::move(strategy), n, eps),
        name_(std::move(name)) {}

  std::string Name() const override { return name_; }

 private:
  std::string name_;
};

}  // namespace wfm

#endif  // WFM_MECHANISMS_MECHANISM_H_

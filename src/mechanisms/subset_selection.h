// Subset Selection (Ye & Barg; Table 1): the output is a size-d subset of
// the domain; subsets containing the true type have probability proportional
// to e^ε, others proportional to 1. The information-theoretically optimal
// subset size is d ≈ n/(e^ε + 1).
//
// The strategy matrix has C(n, d) rows, so — like the paper — we only
// materialize it for analysis at small n. The mechanism is analysis-only:
// it is not registered and has no deployment.

#ifndef WFM_MECHANISMS_SUBSET_SELECTION_H_
#define WFM_MECHANISMS_SUBSET_SELECTION_H_

#include "mechanisms/mechanism.h"

namespace wfm {

class SubsetSelectionMechanism final : public Mechanism {
 public:
  /// d = 0 picks the recommended max(1, round(n / (e^ε + 1))).
  SubsetSelectionMechanism(int n, double eps, int d = 0);

  std::string Name() const override { return "Subset Selection"; }
  int domain_size() const override { return n_; }
  double epsilon() const override { return eps_; }

  int subset_size() const { return d_; }

  /// Analysis materializes the C(n, d) x n strategy, so it fails with
  /// kFailedPrecondition unless SupportsAnalysis(). The paper excludes this
  /// mechanism from figures for the same exponential-size reason. Otherwise
  /// fails as RequireDenseStats does.
  bool SupportsAnalysis() const;
  StatusOr<ErrorProfile> TryAnalyze(const WorkloadStats& workload) const override;

  /// Explicit strategy matrix over all C(n, d) subsets (small n only).
  static Matrix BuildExplicitStrategy(int n, double eps, int d);

 private:
  int n_;
  double eps_;
  int d_;
};

}  // namespace wfm

#endif  // WFM_MECHANISMS_SUBSET_SELECTION_H_

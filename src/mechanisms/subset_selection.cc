#include "mechanisms/subset_selection.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/factored.h"
#include "workload/marginals.h"

namespace wfm {
namespace {

constexpr double kMaxRowsForAnalysis = 200000.0;

}  // namespace

SubsetSelectionMechanism::SubsetSelectionMechanism(int n, double eps, int d)
    : n_(n), eps_(eps), d_(d) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK_GT(eps, 0.0);
  if (d_ <= 0) {
    d_ = std::max(1, static_cast<int>(std::lround(n / (std::exp(eps) + 1.0))));
  }
  WFM_CHECK_LE(d_, n);
}

bool SubsetSelectionMechanism::SupportsAnalysis() const {
  return BinomialCoefficient(n_, d_) <= kMaxRowsForAnalysis;
}

StatusOr<ErrorProfile> SubsetSelectionMechanism::TryAnalyze(
    const WorkloadStats& workload) const {
  if (Status s = RequireDenseStats(workload); !s.ok()) return s;
  if (!SupportsAnalysis()) {
    return Status::FailedPrecondition(
        "subset selection strategy has C(" + std::to_string(n_) + ", " +
        std::to_string(d_) +
        ") rows; too large to analyze (the paper excludes it for this reason)");
  }
  return FactoredAnalysis(
             FactoredStrategy{{BuildExplicitStrategy(n_, eps_, d_)}, {eps_}},
             workload)
      .Profile();
}

Matrix SubsetSelectionMechanism::BuildExplicitStrategy(int n, double eps, int d) {
  const double num_subsets = BinomialCoefficient(n, d);
  WFM_CHECK_LE(num_subsets, kMaxRowsForAnalysis) << "too many subsets";
  const int m = static_cast<int>(num_subsets);
  const double e = std::exp(eps);
  // Per-column normalizer: C(n-1, d-1) e^ε + C(n-1, d).
  const double norm =
      1.0 / (BinomialCoefficient(n - 1, d - 1) * e + BinomialCoefficient(n - 1, d));

  Matrix q(m, n);
  // Enumerate subsets in lexicographic order.
  std::vector<int> subset(d);
  for (int i = 0; i < d; ++i) subset[i] = i;
  for (int row = 0; row < m; ++row) {
    std::vector<bool> member(n, false);
    for (int v : subset) member[v] = true;
    for (int u = 0; u < n; ++u) {
      q(row, u) = (member[u] ? e : 1.0) * norm;
    }
    // Advance to the next lexicographic subset.
    int i = d - 1;
    while (i >= 0 && subset[i] == n - d + i) --i;
    if (i < 0) break;
    ++subset[i];
    for (int j = i + 1; j < d; ++j) subset[j] = subset[j - 1] + 1;
  }
  return q;
}

}  // namespace wfm

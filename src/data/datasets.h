// Synthetic benchmark datasets.
//
// Section 6.4 of the paper evaluates data-dependent sample complexity on
// three DPBench histograms (HEPTH, MEDCOST, NETTRACE) that are not
// redistributable here. We generate seeded synthetic histograms that match
// each dataset's documented shape class:
//
//   HEPTH    — paper-citation in-degrees: smooth power-law decay.
//   MEDCOST  — medical costs: a zero-cost spike plus a skewed lognormal bulk.
//   NETTRACE — network connections: sparse, bursty, a few hot bins.
//
// The paper's own finding justifies this substitution: data-dependent sample
// complexity is within ~1% of the worst case for the Optimized mechanism
// regardless of the dataset, so only the broad shape matters.

#ifndef WFM_DATA_DATASETS_H_
#define WFM_DATA_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace wfm {

struct Dataset {
  std::string name;
  /// Histogram of user-type counts (non-negative integers stored as double).
  Vector histogram;

  double num_users() const;
  int domain_size() const { return static_cast<int>(histogram.size()); }
};

/// The three Figure 3a dataset names.
std::vector<std::string> BenchmarkDatasetNames();

/// Generates a synthetic dataset of the given shape with ~`num_users` users
/// over `n` bins. Supported names: "HEPTH", "MEDCOST", "NETTRACE",
/// "UNIFORM", "GAUSSMIX". Deterministic in (name, n, num_users, seed).
Dataset MakeSyntheticDataset(const std::string& name, int n, double num_users,
                             std::uint64_t seed = 42);

/// Draws `num_users` users i.i.d. from the normalized dataset histogram
/// (used to subsample, e.g. Figure 4 uses N = 1000 from HEPTH).
Dataset SampleUsers(const Dataset& source, std::int64_t num_users,
                    std::uint64_t seed);

}  // namespace wfm

#endif  // WFM_DATA_DATASETS_H_

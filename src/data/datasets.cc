#include "data/datasets.h"

#include <algorithm>
#include <cmath>

#include "linalg/rng.h"
#include "linalg/samplers.h"

namespace wfm {
namespace {

/// Rounds a probability vector times num_users to integer counts whose sum is
/// exactly num_users (largest-remainder apportionment).
Vector ApportionCounts(const Vector& pmf, double num_users) {
  const int n = static_cast<int>(pmf.size());
  Vector counts(n, 0.0);
  std::vector<std::pair<double, int>> remainders(n);
  double assigned = 0.0;
  for (int i = 0; i < n; ++i) {
    const double ideal = pmf[i] * num_users;
    counts[i] = std::floor(ideal);
    assigned += counts[i];
    remainders[i] = {ideal - counts[i], i};
  }
  std::sort(remainders.rbegin(), remainders.rend());
  std::int64_t leftover = static_cast<std::int64_t>(std::llround(num_users - assigned));
  for (std::int64_t j = 0; j < leftover && j < n; ++j) {
    counts[remainders[j].second] += 1.0;
  }
  return counts;
}

Vector Normalize(Vector v) {
  double s = Sum(v);
  WFM_CHECK_GT(s, 0.0);
  for (double& x : v) x /= s;
  return v;
}

/// Smooth power-law decay over bins (HEPTH-like citation in-degrees).
Vector HepthPmf(int n) {
  Vector pmf(n);
  for (int i = 0; i < n; ++i) {
    pmf[i] = std::pow(i + 1.0, -1.15);
  }
  return Normalize(std::move(pmf));
}

/// Zero-cost spike plus a lognormal bulk (MEDCOST-like).
Vector MedcostPmf(int n) {
  Vector pmf(n, 0.0);
  const double mu = std::log(0.12 * n);
  const double sigma = 0.85;
  for (int i = 1; i < n; ++i) {
    const double li = std::log(static_cast<double>(i));
    pmf[i] = std::exp(-0.5 * (li - mu) * (li - mu) / (sigma * sigma)) / i;
  }
  const double bulk = Sum(pmf);
  for (double& x : pmf) x *= 0.75 / bulk;
  pmf[0] = 0.25;  // Spike of zero-cost users.
  return pmf;
}

/// Sparse and bursty: a few exponentially-sized hot bins, most bins empty
/// (NETTRACE-like connection counts).
Vector NettracePmf(int n, Rng& rng) {
  Vector pmf(n, 0.0);
  const int hot = std::max(1, n / 16);
  for (int j = 0; j < hot; ++j) {
    const int bin = rng.UniformInt(n);
    pmf[bin] += rng.Exponential(1.0) * std::pow(2.0, -j / 4.0);
  }
  // A faint uniform floor so no pmf entry is exactly zero (some users exist
  // in most bins of the real trace too).
  for (double& x : pmf) x += 0.02 / n;
  return Normalize(std::move(pmf));
}

Vector GaussMixPmf(int n, Rng& rng) {
  Vector pmf(n, 0.0);
  const int modes = 3;
  for (int m = 0; m < modes; ++m) {
    const double center = rng.Uniform(0.1, 0.9) * n;
    const double width = rng.Uniform(0.02, 0.08) * n;
    for (int i = 0; i < n; ++i) {
      const double t = (i - center) / width;
      pmf[i] += std::exp(-0.5 * t * t);
    }
  }
  for (double& x : pmf) x += 1e-4;
  return Normalize(std::move(pmf));
}

}  // namespace

double Dataset::num_users() const { return Sum(histogram); }

std::vector<std::string> BenchmarkDatasetNames() {
  return {"HEPTH", "MEDCOST", "NETTRACE"};
}

Dataset MakeSyntheticDataset(const std::string& name, int n, double num_users,
                             std::uint64_t seed) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK_GT(num_users, 0.0);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Vector pmf;
  if (name == "HEPTH") {
    pmf = HepthPmf(n);
  } else if (name == "MEDCOST") {
    pmf = MedcostPmf(n);
  } else if (name == "NETTRACE") {
    pmf = NettracePmf(n, rng);
  } else if (name == "UNIFORM") {
    pmf.assign(n, 1.0 / n);
  } else if (name == "GAUSSMIX") {
    pmf = GaussMixPmf(n, rng);
  } else {
    WFM_CHECK(false) << "unknown dataset" << name;
  }
  Dataset d;
  d.name = name;
  d.histogram = ApportionCounts(pmf, num_users);
  return d;
}

Dataset SampleUsers(const Dataset& source, std::int64_t num_users,
                    std::uint64_t seed) {
  WFM_CHECK_GT(num_users, 0);
  Rng rng(seed);
  const std::vector<std::int64_t> counts =
      SampleMultinomial(rng, num_users, source.histogram);
  Dataset out;
  out.name = source.name + "-sample";
  out.histogram.resize(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out.histogram[i] = static_cast<double>(counts[i]);
  }
  return out;
}

}  // namespace wfm

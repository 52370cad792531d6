#include "core/factored.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "core/strategy.h"
#include "linalg/kron.h"

namespace wfm {
namespace {

// Outer-product expansion: out[(i, j)] = a[i] * b[j], row-major (a most
// significant). The progressive fold of this over factors builds Π t_i[u_i]
// over the composed domain in O(n) memory.
Vector OuterExpand(const Vector& a, const Vector& b) {
  Vector out(a.size() * b.size());
  std::size_t idx = 0;
  for (const double av : a) {
    for (const double bv : b) out[idx++] = av * bv;
  }
  return out;
}

// Identical factors (same name, domain, budget share) share one PGD run.
std::string FactorKey(const WorkloadStats& f, int share) {
  return f.name + "/" + std::to_string(f.n) + "/" + std::to_string(share);
}

}  // namespace

std::int64_t FactoredStrategy::rows() const {
  std::int64_t m = 1;
  for (const Matrix& q : factors) m = CheckedMulNonNegative(m, q.rows());
  return m;
}

std::int64_t FactoredStrategy::cols() const {
  std::int64_t n = 1;
  for (const Matrix& q : factors) n = CheckedMulNonNegative(n, q.cols());
  return n;
}

double FactoredStrategy::total_epsilon() const {
  double eps = 0.0;
  for (const double e : epsilons) eps += e;
  return eps;
}

Status ValidateFactoredStrategy(const FactoredStrategy& strategy, double eps) {
  const std::size_t k = strategy.factors.size();
  if (k == 0 || strategy.epsilons.size() != k) {
    return Status::InvalidArgument(
        "strategy has " + std::to_string(k) + " factors and " +
        std::to_string(strategy.epsilons.size()) +
        " budget shares; needs one share per factor and at least one factor");
  }
  // Π m_i and Π n_i are accumulated with an int bound, so no count of huge
  // factors can overflow the products.
  constexpr std::int64_t kMaxExtent = std::numeric_limits<int>::max();
  std::int64_t rows = 1;
  std::int64_t cols = 1;
  for (std::size_t i = 0; i < k; ++i) {
    const Matrix& q = strategy.factors[i];
    const double share = strategy.epsilons[i];
    const std::string factor = "strategy factor " + std::to_string(i);
    if (!std::isfinite(share) || share <= 0.0) {
      return Status::InvalidArgument(factor + " has budget share " +
                                     std::to_string(share) +
                                     ", not a positive finite value");
    }
    if (q.empty()) return Status::InvalidArgument(factor + " is empty");
    rows *= q.rows();
    cols *= q.cols();
    if (rows > kMaxExtent || cols > kMaxExtent) {
      return Status::InvalidArgument(
          "composed strategy shape overflows int at " + factor);
    }
    for (std::size_t j = 0; j < q.size(); ++j) {
      if (!std::isfinite(q.data()[j])) {
        return Status::InvalidArgument(factor + " has a non-finite entry");
      }
    }
    const StrategyValidation v = ValidateStrategy(q, share, /*tol=*/1e-6);
    if (!v.valid) {
      return Status::InvalidArgument(factor + " is not a valid " +
                                     std::to_string(share) +
                                     "-LDP strategy: " + v.ToString());
    }
  }
  // The composed guarantee is the sum of the factor budgets (independent
  // per-factor sampling multiplies the likelihood ratios). Written so that a
  // NaN eps fails too.
  const double total = strategy.total_epsilon();
  if (!(total <= eps * (1.0 + 1e-9))) {
    return Status::InvalidArgument(
        "strategy factor budgets sum to " + std::to_string(total) +
        ", more than the declared total epsilon " + std::to_string(eps));
  }
  return Status::Ok();
}

FactoredOptimizerResult OptimizeFactoredStrategy(
    const WorkloadStats& workload, double eps,
    const FactoredOptimizerConfig& config) {
  WFM_CHECK(workload.factored())
      << "OptimizeFactoredStrategy needs Kronecker-structured stats for"
      << workload.name;
  WFM_CHECK_GT(eps, 0.0);
  const int k = static_cast<int>(workload.factors.size());
  const int grid = std::max(config.split_grid, k);
  const int max_share = grid - (k - 1);  // Every factor keeps >= 1 unit.

  // One PGD run per (distinct factor, budget share); identical factors with
  // the same share reuse the cached result.
  std::map<std::string, OptimizerResult> cache;
  auto evaluate = [&](int i, int share) -> const OptimizerResult& {
    const std::string key = FactorKey(workload.factors[i], share);
    auto it = cache.find(key);
    if (it == cache.end()) {
      const double factor_eps = eps * share / grid;
      it = cache
               .emplace(key, OptimizeStrategy(workload.factors[i].gram,
                                              factor_eps, config.factor_config))
               .first;
      WFM_CHECK_GT(it->second.objective, 0.0)
          << "degenerate factor objective for" << workload.factors[i].name;
    }
    return it->second;
  };

  // DP over the split: minimize Σ log L_i(share_i) s.t. Σ share_i = grid.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> best(
      k, std::vector<double>(grid + 1, kInf));
  std::vector<std::vector<int>> choice(k, std::vector<int>(grid + 1, 0));
  for (int j = 1; j <= max_share; ++j) {
    best[0][j] = std::log(evaluate(0, j).objective);
    choice[0][j] = j;
  }
  for (int i = 1; i < k; ++i) {
    for (int j = 1; j <= max_share; ++j) {
      const double lij = std::log(evaluate(i, j).objective);
      for (int r = j + i; r <= grid; ++r) {
        if (best[i - 1][r - j] == kInf) continue;
        const double cand = best[i - 1][r - j] + lij;
        if (cand < best[i][r]) {
          best[i][r] = cand;
          choice[i][r] = j;
        }
      }
    }
  }
  WFM_CHECK(best[k - 1][grid] != kInf) << "budget split DP found no solution";

  std::vector<int> shares(k);
  int remaining = grid;
  for (int i = k - 1; i >= 0; --i) {
    shares[i] = choice[i][remaining];
    remaining -= shares[i];
  }
  WFM_CHECK_EQ(remaining, 0);

  FactoredOptimizerResult result;
  result.objective = 1.0;
  for (int i = 0; i < k; ++i) {
    const OptimizerResult& r = evaluate(i, shares[i]);
    result.strategy.factors.push_back(r.q);
    result.strategy.epsilons.push_back(eps * shares[i] / grid);
    result.objective *= r.objective;
  }
  return result;
}

FactoredAnalysis::FactoredAnalysis(FactoredStrategy strategy,
                                   const WorkloadStats& workload)
    : num_queries_(workload.p) {
  const std::size_t k = strategy.factors.size();
  WFM_CHECK_GE(k, 1u);
  if (k > 1) {
    WFM_CHECK_EQ(workload.factors.size(), k)
        << "strategy/workload factor count mismatch for" << workload.name;
  }
  analyses_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    analyses_.emplace_back(std::move(strategy.factors[i]),
                           k == 1 ? workload : workload.factors[i]);
    const FactorizationAnalysis& a = analyses_.back();
    m_ = CheckedMulNonNegative(m_, a.m());
    objective_ *= a.Objective();
    residual_ = std::max(residual_, a.FactorizationResidual());
  }
}

std::vector<const Matrix*> FactoredAnalysis::ReconstructionFactors() const {
  std::vector<const Matrix*> out;
  out.reserve(analyses_.size());
  for (const FactorizationAnalysis& a : analyses_) {
    out.push_back(&a.ReconstructionB());
  }
  return out;
}

ErrorProfile FactoredAnalysis::Profile() const {
  // phi does NOT factor, but its two Theorem 3.4 terms do:
  // phi_u = Π t_i[u_i] − Π psi_i[u_i]. Fold both products outward.
  Vector t = analyses_[0].PerUserSecondMoment();
  Vector psi = analyses_[0].PerUserMeanEnergy();
  for (std::size_t i = 1; i < analyses_.size(); ++i) {
    t = OuterExpand(t, analyses_[i].PerUserSecondMoment());
    psi = OuterExpand(psi, analyses_[i].PerUserMeanEnergy());
  }
  ErrorProfile profile{Vector(t.size()), num_queries_};
  for (std::size_t u = 0; u < t.size(); ++u) {
    profile.phi[u] = std::max(0.0, t[u] - psi[u]);
  }
  return profile;
}

}  // namespace wfm

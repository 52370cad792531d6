#include "mechanisms/registry.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/factored.h"
#include "mechanisms/fourier.h"
#include "mechanisms/hadamard_response.h"
#include "mechanisms/hierarchical.h"
#include "mechanisms/matrix_mechanism.h"
#include "mechanisms/optimized.h"
#include "mechanisms/randomized_response.h"
#include "mechanisms/unary_encoding.h"

namespace wfm {
namespace {

Status ValidateShape(const WorkloadStats& workload, double eps) {
  if (workload.n <= 0) {
    return Status::InvalidArgument("domain size must be positive, got " +
                                   std::to_string(workload.n));
  }
  if (eps <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive, got " +
                                   std::to_string(eps));
  }
  return Status::Ok();
}

/// Structured domains past the dense ceiling carry no n x n Gram, and the
/// dense baselines would allocate O(n²) just to construct. They must bow out
/// with a Status *before* construction so AutoSelectMechanism can skip them.
Status RequireDenseDomain(const WorkloadStats& workload,
                          const std::string& name) {
  if (workload.factored() && workload.gram.empty()) {
    return Status::FailedPrecondition(
        name + " is a dense-domain mechanism; structured workload '" +
        workload.name + "' (n = " + std::to_string(workload.n) +
        ") only supports the factored \"Optimized\" path");
  }
  return Status::Ok();
}

/// Adapts a (n, eps) baseline constructor into a MechanismFactory.
template <typename MechanismT, typename... Extra>
MechanismFactory BaselineFactory(std::string display_name, Extra... extra) {
  return [display_name, extra...](const WorkloadStats& workload, double eps,
                                  const MechanismOptions&)
             -> StatusOr<std::unique_ptr<Mechanism>> {
    if (Status s = ValidateShape(workload, eps); !s.ok()) return s;
    if (Status s = RequireDenseDomain(workload, display_name); !s.ok()) {
      return s;
    }
    return std::unique_ptr<Mechanism>(
        std::make_unique<MechanismT>(workload.n, eps, extra...));
  };
}

/// A unary-encoding factory; `pq` maps ε to the protocol's (p, q).
MechanismFactory UnaryEncodingFactory(std::string name,
                                      std::pair<double, double> (*pq)(double)) {
  return [name, pq](const WorkloadStats& workload, double eps,
                    const MechanismOptions&)
             -> StatusOr<std::unique_ptr<Mechanism>> {
    if (Status s = ValidateShape(workload, eps); !s.ok()) return s;
    if (Status s = RequireDenseDomain(workload, name); !s.ok()) return s;
    const auto [p, q] = pq(eps);
    return std::unique_ptr<Mechanism>(std::make_unique<UnaryEncodingMechanism>(
        name, workload.n, eps, p, q));
  };
}

void RegisterBuiltins(MechanismRegistry& registry) {
  auto must_register = [&registry](const std::string& name,
                                   MechanismFactory factory) {
    const Status s = registry.Register(name, std::move(factory));
    WFM_CHECK(s.ok()) << s.ToString();
  };

  must_register(
      "Randomized Response",
      BaselineFactory<RandomizedResponseMechanism>("Randomized Response"));
  must_register("Hadamard",
                BaselineFactory<HadamardResponseMechanism>("Hadamard"));
  must_register("Hierarchical",
                BaselineFactory<HierarchicalMechanism>("Hierarchical"));
  must_register("Fourier",
                [](const WorkloadStats& workload, double eps,
                   const MechanismOptions&)
                    -> StatusOr<std::unique_ptr<Mechanism>> {
                  if (Status s = ValidateShape(workload, eps); !s.ok()) return s;
                  if (Status s = RequireDenseDomain(workload, "Fourier");
                      !s.ok()) {
                    return s;
                  }
                  const int n = workload.n;
                  if ((n & (n - 1)) != 0) {
                    return Status::InvalidArgument(
                        "Fourier requires a power-of-two domain, got n = " +
                        std::to_string(n));
                  }
                  return std::unique_ptr<Mechanism>(
                      std::make_unique<FourierMechanism>(n, eps));
                });
  must_register("Matrix Mechanism (L1)",
                BaselineFactory<MatrixMechanism>(
                    "Matrix Mechanism (L1)",
                    MatrixMechanism::NoiseType::kLaplaceL1));
  must_register("Matrix Mechanism (L2)",
                BaselineFactory<MatrixMechanism>(
                    "Matrix Mechanism (L2)",
                    MatrixMechanism::NoiseType::kGaussianL2));
  must_register(
      "Optimized",
      [](const WorkloadStats& workload, double eps,
         const MechanismOptions& options)
          -> StatusOr<std::unique_ptr<Mechanism>> {
        if (Status s = ValidateShape(workload, eps); !s.ok()) return s;
        if (workload.factored() && workload.gram.empty()) {
          // Structured domain past the dense ceiling: run Algorithm 2 per
          // factor and keep the strategy in Kronecker form end to end.
          FactoredOptimizerConfig config;
          config.factor_config = options.optimizer;
          // Composed-domain seeds and per-type weights do not decompose
          // across factors; the per-factor PGD runs start from scratch.
          config.factor_config.seed_strategies.clear();
          config.factor_config.population.clear();
          FactoredOptimizerResult result =
              OptimizeFactoredStrategy(workload, eps, config);
          return std::unique_ptr<Mechanism>(
              std::make_unique<FixedStrategyMechanism>(
                  std::move(result.strategy), workload.n, eps, "Optimized"));
        }
        if (workload.gram.rows() != workload.n ||
            workload.gram.cols() != workload.n) {
          return Status::FailedPrecondition(
              "Optimized requires full workload statistics (Gram matrix); "
              "build the WorkloadStats with WorkloadStats::From");
        }
        return std::unique_ptr<Mechanism>(std::make_unique<OptimizedMechanism>(
            workload, eps, options.optimizer));
      });
  // Unary-encoding frequency oracles: n-bit-vector reports, affine debias
  // decode. Registered after the Figure 1 field so the legend-order prefix
  // of ListMechanisms() stays stable. These two entries are the only places
  // that turn ε into UE(p, q).
  must_register("RAPPOR", UnaryEncodingFactory("RAPPOR", [](double eps) {
                  const double f = 1.0 / (1.0 + std::exp(eps / 2.0));
                  return std::pair{1.0 - f, f};
                }));
  must_register("OUE", UnaryEncodingFactory("OUE", [](double eps) {
                  return std::pair{0.5, 1.0 / (std::exp(eps) + 1.0)};
                }));
}

}  // namespace

MechanismRegistry& MechanismRegistry::Global() {
  static MechanismRegistry* registry = [] {
    auto* r = new MechanismRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

Status MechanismRegistry::Register(const std::string& name,
                                   MechanismFactory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("mechanism name must be non-empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("mechanism factory must be callable");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [registered, unused] : factories_) {
    if (registered == name) {
      return Status::InvalidArgument("mechanism '" + name +
                                     "' is already registered");
    }
  }
  factories_.emplace_back(name, std::move(factory));
  return Status::Ok();
}

std::vector<std::string> MechanismRegistry::ListMechanisms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, unused] : factories_) names.push_back(name);
  return names;
}

bool MechanismRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [registered, unused] : factories_) {
    if (registered == name) return true;
  }
  return false;
}

StatusOr<std::unique_ptr<Mechanism>> MechanismRegistry::Create(
    const std::string& name, const WorkloadStats& workload, double eps,
    const MechanismOptions& options) const {
  MechanismFactory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [registered, candidate] : factories_) {
      if (registered == name) {
        factory = candidate;
        break;
      }
    }
  }
  if (factory == nullptr) {
    std::string known;
    for (const std::string& registered : ListMechanisms()) {
      if (!known.empty()) known += ", ";
      known += "'" + registered + "'";
    }
    return Status::NotFound("unknown mechanism '" + name +
                            "'; registered mechanisms: " + known);
  }
  return factory(workload, eps, options);
}

StatusOr<MechanismRegistry::AutoSelection>
MechanismRegistry::AutoSelectMechanism(const WorkloadStats& workload,
                                       double eps,
                                       const MechanismOptions& options) const {
  // Exactly the paper's Section 6.1 cross-evaluation: build every competitor
  // for this (workload, eps) cell, derive its optimal reconstruction against
  // the workload, and rank by worst-case unit variance (the ordering behind
  // both Figure 1 and the sample-complexity tables).
  AutoSelection best;
  double best_variance = std::numeric_limits<double>::infinity();
  for (const std::string& name : ListMechanisms()) {
    StatusOr<std::unique_ptr<Mechanism>> mechanism =
        Create(name, workload, eps, options);
    if (!mechanism.ok()) continue;  // e.g. Fourier off a power-of-two domain.
    const StatusOr<ErrorProfile> profile =
        mechanism.value()->TryAnalyze(workload);
    if (!profile.ok()) continue;  // Cannot represent this workload.
    const double variance = profile.value().WorstUnitVariance();
    if (variance < best_variance) {
      best_variance = variance;
      best.name = name;
      best.mechanism = std::move(mechanism).value();
    }
  }
  if (best.mechanism == nullptr) {
    return Status::NotFound("no registered mechanism can run on workload '" +
                            workload.name + "'");
  }
  return best;
}

std::vector<std::string> StandardBaselineNames() {
  return {"Randomized Response",  "Hadamard",
          "Hierarchical",         "Fourier",
          "Matrix Mechanism (L1)", "Matrix Mechanism (L2)"};
}

StatusOr<std::unique_ptr<Mechanism>> CreateBaseline(const std::string& name,
                                                    int n, double eps) {
  bool is_baseline = false;
  for (const std::string& baseline : StandardBaselineNames()) {
    if (baseline == name) {
      is_baseline = true;
      break;
    }
  }
  if (!is_baseline) {
    return Status::NotFound(
        "'" + name +
        "' is not one of the six fixed baselines; use "
        "MechanismRegistry::Global().Create for registered mechanisms");
  }
  WorkloadStats shape_only;
  shape_only.n = n;
  return MechanismRegistry::Global().Create(name, shape_only, eps);
}

}  // namespace wfm

// Name → factory registry over every runnable mechanism.
//
// The global registry is pre-seeded with the paper's Section 6.1 field — the
// six fixed competitors (Figure 1 legend order) plus "Optimized" (Algorithm
// 2 run on the target workload) — and the two unary-encoding frequency
// oracles "RAPPOR" and "OUE" (n-bit-vector reports, affine debias decode):
// one UnaryEncodingMechanism (mechanisms/unary_encoding.h) whose two
// registry entries are the only places that turn ε into its (p, q).
// Downstream code can Register() additional mechanisms; api/Plan resolves
// names through this registry, so a registered mechanism is immediately
// deployable end-to-end. Every registered mechanism must pass
// tests/mechanism_conformance_test.cc, the statistical gate pinning its
// deployed empirical error to its TryAnalyze() variance.
//
// All lookup/creation failures are reported as Status (kNotFound for unknown
// names, kInvalidArgument for unsupported shapes such as Fourier on a
// non-power-of-two domain) — never as nullptr.

#ifndef WFM_MECHANISMS_REGISTRY_H_
#define WFM_MECHANISMS_REGISTRY_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/optimizer.h"
#include "mechanisms/mechanism.h"

namespace wfm {

/// Per-construction knobs a factory may consult.
struct MechanismOptions {
  /// Consumed by "Optimized" (Algorithm 2 budget, seed, restarts). On
  /// Kronecker-structured domains past the dense ceiling the same config
  /// drives the per-factor PGD runs (core/factored.h).
  OptimizerConfig optimizer;
};

/// Builds a mechanism instance for the given workload and privacy budget.
/// Fixed baselines only read `workload.n`; workload-adaptive mechanisms use
/// the full statistics.
using MechanismFactory = std::function<StatusOr<std::unique_ptr<Mechanism>>(
    const WorkloadStats& workload, double eps, const MechanismOptions& options)>;

class MechanismRegistry {
 public:
  /// An empty registry (for tests / custom mechanism sets).
  MechanismRegistry() = default;

  /// Process-wide registry, seeded with the six baselines, "Optimized",
  /// "RAPPOR" and "OUE".
  static MechanismRegistry& Global();

  /// Registers a factory under a display name. kInvalidArgument if the name
  /// is empty or already taken.
  Status Register(const std::string& name, MechanismFactory factory);

  /// Registered names in registration order (built-ins: Figure 1 legend
  /// order, then "Optimized").
  std::vector<std::string> ListMechanisms() const;

  bool Contains(const std::string& name) const;

  /// Instantiates a mechanism by name. kNotFound for unknown names (the
  /// message lists what is registered); factory-level failures pass through
  /// (e.g. kInvalidArgument from Fourier off a power-of-two domain).
  StatusOr<std::unique_ptr<Mechanism>> Create(
      const std::string& name, const WorkloadStats& workload, double eps,
      const MechanismOptions& options = {}) const;

  /// Winner of the Section 6.1 cross-evaluation (see AutoSelectMechanism),
  /// with the already-constructed instance so callers do not pay for a
  /// second Create() — which re-runs Algorithm 2 when "Optimized" wins.
  struct AutoSelection {
    std::string name;
    std::unique_ptr<Mechanism> mechanism;
  };

  /// Section 6.1 cross-evaluation: instantiates every registered mechanism
  /// against `workload`, analyzes it, and returns the entry minimizing the
  /// worst-case unit variance (ties keep the earlier registration).
  /// Mechanisms that fail to construct or cannot represent the workload are
  /// skipped; kNotFound if none qualifies.
  StatusOr<AutoSelection> AutoSelectMechanism(
      const WorkloadStats& workload, double eps,
      const MechanismOptions& options = {}) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, MechanismFactory>> factories_;
};

/// Figure 1 legend order: "Randomized Response", "Hadamard", "Hierarchical",
/// "Fourier", "Matrix Mechanism (L1)", "Matrix Mechanism (L2)".
std::vector<std::string> StandardBaselineNames();

/// Creates one of the six fixed baselines by display name through the global
/// registry. kNotFound for any other name (including "Optimized", which
/// needs workload statistics — use MechanismRegistry::Create), and
/// kInvalidArgument when the shape is unsupported (Fourier requires a
/// power-of-two domain).
StatusOr<std::unique_ptr<Mechanism>> CreateBaseline(const std::string& name,
                                                    int n, double eps);

}  // namespace wfm

#endif  // WFM_MECHANISMS_REGISTRY_H_

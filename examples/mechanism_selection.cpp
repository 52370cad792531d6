// Mechanism selection for a custom analyst workload.
//
// The paper's Section 6.2 observation: the best fixed mechanism changes with
// the workload and the privacy budget, so without workload adaptivity an
// analyst must maintain a library of mechanisms and guess. This example
// builds a bespoke workload — a weighted stack of the full CDF (Prefix) and
// a handful of high-priority point queries — sweeps ε over the *whole
// mechanism registry* (six baselines + Optimized), prints each entry's
// sample complexity, and builds a plan with
// Plan::For(...).Mechanism(wfm::Auto()) — the registry's Section 6.1
// cross-evaluation — at every privacy level to show which entry it deploys.
//
// Build & run:  ./build/examples/mechanism_selection [--n=32]
//               [--eps=0.5,1,2,4] [--mechanism=<registry name>]

#include <cstdio>
#include <memory>

#include "wfm.h"  // Public umbrella API: all wfm modules.

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const int n = flags.GetInt("n", 32);
  const std::vector<double> eps_list =
      flags.GetDoubleList("eps", {0.5, 1.0, 2.0, 4.0});
  const std::string only = flags.GetString("mechanism", "");
  wfm::WarnUnusedFlags(flags);  // Typo'd flags must not silently run defaults.
  const double alpha = 0.01;

  const wfm::MechanismRegistry& registry = wfm::MechanismRegistry::Global();
  std::vector<std::string> names = registry.ListMechanisms();
  if (!only.empty()) {  // Restrict the table to one validated mechanism.
    if (!registry.Contains(only)) {
      std::printf("unknown --mechanism '%s'; registered mechanisms:\n", only.c_str());
      for (const auto& name : names) std::printf("  %s\n", name.c_str());
      return 1;
    }
    names = {only};
  }

  // --- A bespoke workload -------------------------------------------------
  // The analyst cares about the CDF, and 3x as much about three "alert"
  // buckets watched by a dashboard.
  wfm::Matrix alerts(3, n);
  alerts(0, n / 4) = 1.0;
  alerts(1, n / 2) = 1.0;
  alerts(2, (3 * n) / 4) = 1.0;
  auto prefix = std::make_shared<wfm::PrefixWorkload>(n);
  auto alert_queries = std::make_shared<wfm::DenseWorkload>(alerts, "Alerts");
  const auto workload = std::make_shared<const wfm::StackedWorkload>(
      std::vector<std::shared_ptr<const wfm::Workload>>{prefix, alert_queries},
      std::vector<double>{1.0, 3.0}, "CDF+Alerts");
  const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
  std::printf("custom workload '%s': %lld queries over domain %d\n\n",
              workload->Name().c_str(),
              static_cast<long long>(workload->num_queries()), n);

  // Keep the Optimized entries reproducible and fast across the sweep.
  wfm::MechanismOptions options;
  options.optimizer.iterations = 300;
  options.optimizer.seed = 11;

  // --- Sweep epsilon over every registered mechanism ----------------------
  std::vector<std::string> header{"mechanism"};
  for (double eps : eps_list) header.push_back("eps=" + wfm::TablePrinter::Num(eps));
  wfm::TablePrinter table(header);

  for (const auto& name : names) {
    std::vector<std::string> row{name};
    for (double eps : eps_list) {
      const auto mech = registry.Create(name, stats, eps, options);
      if (!mech.ok()) {
        row.push_back("n/a");  // e.g. Fourier off a power-of-two domain.
        continue;
      }
      const auto profile = mech.value()->TryAnalyze(stats);
      row.push_back(profile.ok()
                        ? wfm::TablePrinter::Num(
                              profile.value().SampleComplexity(alpha))
                        : "n/a");
    }
    table.AddRow(row);
  }
  table.Print();

  // --- What does Plan::Mechanism(Auto()) deploy? --------------------------
  std::printf("\nPlan with Mechanism(Auto()) (minimum worst-case variance, "
              "Section 6.1 cross-evaluation):\n");
  for (double eps : eps_list) {
    const wfm::StatusOr<wfm::Plan> plan = wfm::Plan::For(workload)
                                              .Epsilon(eps)
                                              .Mechanism(wfm::Auto())
                                              .Optimizer(options.optimizer)
                                              .Build();
    if (!plan.ok()) {
      std::fprintf(stderr, "eps=%g: %s\n", eps,
                   plan.status().ToString().c_str());
      return 1;
    }
    std::printf("  eps=%-4g -> %s\n", eps,
                plan.value().mechanism_name().c_str());
  }
  std::printf("\nwith the workload-adaptive mechanism, one implementation "
              "covers every cell of this table.\n");
  return 0;
}

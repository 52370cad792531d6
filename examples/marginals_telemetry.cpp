// Private telemetry marginals — the multi-dimensional scenario of refs
// [12, 42]: a device reports k binary flags (crash bit, feature toggles,
// ...), and the vendor wants all 3-way marginals of the flag distribution
// under ε-LDP.
//
// The domain is the binary cube {0,1}^k (one user type per flag
// combination); the 3-way marginal workload has C(k,3)·8 counting queries.
// The example builds an Optimized plan for that workload, contrasts it with
// the Fourier mechanism (the registry baseline designed for marginals),
// deploys the plan over a fleet of devices, and prints one reconstructed
// marginal table.
//
// Build & run:  ./build/examples/marginals_telemetry [--k=6] [--eps=1.0]
//               [--devices=50000]

#include <cmath>
#include <cstdio>

#include "wfm.h"  // Public umbrella API: all wfm modules.

namespace {

/// Synthetic fleet: correlated flags (flag 0 drives flags 1 and 2).
wfm::Vector SimulateFleet(int k, int devices, wfm::Rng& rng) {
  const int n = 1 << k;
  wfm::Vector histogram(n, 0.0);
  for (int d = 0; d < devices; ++d) {
    int type = 0;
    const bool crash = rng.Bernoulli(0.15);
    if (crash) type |= 1;
    if (rng.Bernoulli(crash ? 0.7 : 0.1)) type |= 2;   // Correlated with crash.
    if (rng.Bernoulli(crash ? 0.5 : 0.05)) type |= 4;  // Correlated with crash.
    for (int bit = 3; bit < k; ++bit) {
      if (rng.Bernoulli(0.3)) type |= (1 << bit);
    }
    histogram[type] += 1.0;
  }
  return histogram;
}

}  // namespace

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const int k = flags.GetInt("k", 6);
  const double eps = flags.GetDouble("eps", 1.0);
  const int devices = flags.GetInt("devices", 50000);
  wfm::WarnUnusedFlags(flags);  // Typo'd flags must not silently run defaults.
  const int n = 1 << k;

  auto workload = std::make_shared<wfm::KWayMarginalsWorkload>(n, 3);
  const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
  std::printf("3-way marginals over %d binary flags: %lld queries, domain %d\n\n",
              k, static_cast<long long>(workload->num_queries()), n);

  // --- Build the plan and compare with the marginal-specialized baseline --
  wfm::OptimizerConfig config;
  config.iterations = 300;
  config.seed = 5;
  const wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                             .Epsilon(eps)
                                             .Mechanism("Optimized")
                                             .Optimizer(config)
                                             .Build();
  if (!built.ok()) {
    std::printf("cannot build plan: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const wfm::Plan& plan = built.value();
  const auto fourier =
      wfm::MechanismRegistry::Global().Create("Fourier", stats, eps);

  const double sc_opt = plan.Profile().SampleComplexity(0.01);
  const double sc_fourier =
      fourier.value()->Analyze(stats).SampleComplexity(0.01);
  std::printf("samples for 1%% normalized variance: Optimized %.0f vs Fourier "
              "%.0f (%.2fx)\n\n", sc_opt, sc_fourier, sc_fourier / sc_opt);

  // --- Deploy the plan on the simulated fleet -----------------------------
  wfm::Rng rng(7);
  const wfm::Vector fleet = SimulateFleet(k, devices, rng);
  const wfm::PlanClient client = plan.Client();
  const std::unique_ptr<wfm::PlanSession> server = plan.StartSession(1);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(fleet[u]); ++j) {
      server->Accept(0, client.Respond(u, rng));
    }
  }
  server->Seal();
  const wfm::WorkloadEstimate estimate =
      server->Estimate(wfm::EstimatorKind::kWnnls).value();
  const wfm::Vector truth = workload->Apply(fleet);

  // The first marginal block is the one on flags {0,1,2} (lowest 3-subset in
  // the workload's enumeration order): 8 cells.
  std::printf("marginal of flags {crash, toggleA, toggleB} (fractions of %d "
              "devices):\n\n", devices);
  wfm::TablePrinter table({"crash", "toggleA", "toggleB", "true", "estimate"});
  for (int cell = 0; cell < 8; ++cell) {
    table.AddRow({std::to_string(cell & 1), std::to_string((cell >> 1) & 1),
                  std::to_string((cell >> 2) & 1),
                  wfm::TablePrinter::Num(truth[cell] / devices),
                  wfm::TablePrinter::Num(estimate.query_answers[cell] / devices)});
  }
  table.Print();

  double err = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    err += std::pow(estimate.query_answers[i] - truth[i], 2);
  }
  std::printf("\ntotal squared error across all %lld marginal cells: %.1f\n",
              static_cast<long long>(workload->num_queries()), err);
  return 0;
}

// CDF estimation over a numeric attribute — the Prefix workload scenario the
// paper's introduction motivates (e.g. ages, latencies, spend buckets).
//
// An analyst wants the empirical CDF of a bucketized attribute under ε-LDP.
// The Prefix workload encodes exactly those n cumulative queries. This
// example compares every registered mechanism analytically (sample
// complexity, Corollary 5.4), then deploys the Optimized plan once on a
// synthetic heavy-tailed population and prints the estimated CDF with and
// without WNNLS consistency post-processing.
//
// Build & run:  ./build/examples/cdf_estimation [--n=64] [--eps=1.0]
//               [--users=20000]

#include <cmath>
#include <cstdio>

#include "wfm.h"  // Public umbrella API: all wfm modules.

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const int n = flags.GetInt("n", 64);
  const double eps = flags.GetDouble("eps", 1.0);
  const int num_users = flags.GetInt("users", 20000);
  wfm::WarnUnusedFlags(flags);  // Typo'd flags must not silently run defaults.
  const double alpha = 0.01;

  auto workload = std::make_shared<wfm::PrefixWorkload>(n);
  const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);

  // --- Analytic comparison: how many users does each mechanism need? -----
  std::printf("Sample complexity to reach normalized variance %.2f on the "
              "Prefix workload (n = %d, eps = %.2f):\n\n", alpha, n, eps);
  wfm::MechanismOptions options;
  options.optimizer.iterations = 300;
  options.optimizer.seed = 3;

  wfm::TablePrinter table({"mechanism", "samples needed"});
  for (const auto& name : wfm::MechanismRegistry::Global().ListMechanisms()) {
    const auto mech =
        wfm::MechanismRegistry::Global().Create(name, stats, eps, options);
    if (!mech.ok()) continue;  // e.g. Fourier off a power-of-two domain.
    table.AddRow({name, wfm::TablePrinter::Num(
                            mech.value()->Analyze(stats).SampleComplexity(alpha))});
  }
  table.Print();

  // --- One deployment on a heavy-tailed population ------------------------
  const wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                             .Epsilon(eps)
                                             .Mechanism("Optimized")
                                             .Optimizer(options.optimizer)
                                             .Build();
  if (!built.ok()) {
    std::printf("cannot build plan: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const wfm::Plan& plan = built.value();

  const wfm::Dataset data = wfm::MakeSyntheticDataset("HEPTH", n, num_users);
  const wfm::Vector truth = workload->Apply(data.histogram);

  wfm::Rng rng(99);
  const wfm::PlanClient client = plan.Client();
  const std::unique_ptr<wfm::PlanSession> server = plan.StartSession(1);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(data.histogram[u]); ++j) {
      server->Accept(0, client.Respond(u, rng));
    }
  }
  server->Seal();
  const auto unbiased =
      server->Estimate(wfm::EstimatorKind::kUnbiased).value();
  const auto consistent = server->Estimate(wfm::EstimatorKind::kWnnls).value();

  std::printf("\nEstimated CDF (every 8th bucket of %d, N = %d users):\n\n", n,
              num_users);
  wfm::TablePrinter cdf({"bucket <=", "true CDF", "unbiased est", "WNNLS est"});
  for (int i = 7; i < n; i += 8) {
    cdf.AddRow({std::to_string(i),
                wfm::TablePrinter::Num(truth[i] / num_users),
                wfm::TablePrinter::Num(unbiased.query_answers[i] / num_users),
                wfm::TablePrinter::Num(consistent.query_answers[i] / num_users)});
  }
  cdf.Print();

  double err_u = 0, err_c = 0;
  for (int i = 0; i < n; ++i) {
    err_u += std::pow(unbiased.query_answers[i] - truth[i], 2);
    err_c += std::pow(consistent.query_answers[i] - truth[i], 2);
  }
  std::printf("\ntotal squared error: unbiased %.1f | WNNLS %.1f "
              "(analytic expectation %.1f)\n",
              err_u, err_c, plan.Profile().DataVariance(data.histogram));
  return 0;
}

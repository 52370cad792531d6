// Offline/online deployment split with budget accounting.
//
// Real deployments separate the expensive offline step (optimize a strategy
// for the workload, persist it) from the cheap online step (clients load the
// strategy file and randomize; the server aggregates and reconstructs). This
// example runs both phases, connected only through a strategy file on disk,
// over a continuous attribute (session duration in seconds) that is first
// bucketized onto the finite domain. The offline phase builds an "Optimized"
// Plan and saves its strategy with SaveStrategyFile (the wire encoding, with
// a CRC, written atomically); the online phase loads and re-validates it
// with LoadStrategyFile and rehydrates a Plan with PlanBuilder::Strategy() —
// no optimizer run needed. A
// PrivacyAccountant enforces the per-user budget across repeated
// collections.
//
// Build & run:
//   ./build/examples/offline_online                       # both phases
//   ./build/examples/offline_online --phase=offline       # just optimize+save
//   ./build/examples/offline_online --phase=online        # just load+collect

#include <cmath>
#include <cstdio>

#include "wfm.h"  // Public umbrella API: all wfm modules.

namespace {

constexpr int kBuckets = 32;

int RunOffline(const std::string& path, double eps) {
  std::printf("[offline] optimizing a %.2f-LDP strategy for the Prefix "
              "workload over %d buckets...\n", eps, kBuckets);
  auto workload = std::make_shared<wfm::PrefixWorkload>(kBuckets);
  wfm::OptimizerConfig config;
  config.iterations = 400;
  config.seed = 13;
  const wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                             .Epsilon(eps)
                                             .Mechanism("Optimized")
                                             .Optimizer(config)
                                             .Build();
  if (!built.ok()) {
    std::printf("[offline] cannot build plan: %s\n",
                built.status().ToString().c_str());
    return 1;
  }
  const wfm::Plan& plan = built.value();

  wfm::StrategySnapshot saved;
  saved.epsilon = eps;
  saved.strategy = *plan.DeployedStrategy();
  const wfm::Status status = wfm::SaveStrategyFile(path, saved);
  if (!status.ok()) {
    std::printf("[offline] save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("[offline] wrote %s (one CRC-checked strategy file); expected "
              "per-user unit variance %.2f\n\n", path.c_str(),
              plan.Profile().WorstUnitVariance());
  return 0;
}

int RunOnline(const std::string& path, int num_users) {
  // --- Load the strategy and rehydrate a deployable plan ------------------
  const wfm::StatusOr<wfm::StrategySnapshot> loaded =
      wfm::LoadStrategyFile(path);
  if (!loaded.ok()) {
    std::printf("[online] cannot load strategy: %s (run --phase=offline first)\n",
                loaded.status().ToString().c_str());
    return 1;
  }
  const wfm::StrategySnapshot& strategy = loaded.value();
  auto workload = std::make_shared<wfm::PrefixWorkload>(kBuckets);
  const wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                             .Epsilon(strategy.epsilon)
                                             .Strategy(strategy.strategy)
                                             .Build();
  if (!built.ok()) {  // E.g. a strategy file for the wrong domain size.
    std::printf("[online] cannot deploy loaded strategy: %s\n",
                built.status().ToString().c_str());
    return 1;
  }
  const wfm::Plan& plan = built.value();
  std::printf("[online] loaded %.2f-LDP strategy (%lld outputs x %lld "
              "types), revalidated, deployed for workload '%s'\n",
              strategy.epsilon,
              static_cast<long long>(strategy.strategy.rows()),
              static_cast<long long>(strategy.strategy.cols()),
              plan.workload().Name().c_str());

  // --- Budget accounting ---------------------------------------------------
  wfm::PrivacyAccountant accountant(/*total_budget=*/2.0);
  if (!accountant.CanSpend(plan.epsilon())) {
    std::printf("[online] refusing collection: budget exhausted\n");
    return 1;
  }
  accountant.Spend(plan.epsilon());
  std::printf("[online] per-user budget: spent %.2f of %.2f (%.2f left for "
              "future collections)\n", accountant.spent(),
              accountant.total_budget(), accountant.remaining());

  // --- Simulated client fleet over a continuous attribute -----------------
  // Session durations in seconds, log-normal-ish; bucketized client-side.
  wfm::Rng rng(2025);
  wfm::UniformBucketizer bucketizer(0.0, 3600.0, kBuckets);
  const wfm::PlanClient client = plan.Client();
  const std::unique_ptr<wfm::PlanSession> server = plan.StartSession(1);
  wfm::Vector truth(kBuckets, 0.0);
  for (int i = 0; i < num_users; ++i) {
    const double duration = std::exp(rng.Normal(5.5, 1.0));  // Seconds.
    const int type = bucketizer.BucketOf(duration);
    truth[type] += 1.0;
    server->Accept(0, client.Respond(type, rng));  // All that leaves a device.
  }

  // --- Server-side reconstruction ------------------------------------------
  server->Seal();
  const wfm::WorkloadEstimate estimate =
      server->Estimate(wfm::EstimatorKind::kWnnls).value();
  const wfm::Vector true_cdf = workload->Apply(truth);

  std::printf("\n[online] session-duration CDF from %d users:\n", num_users);
  std::printf("%-18s %10s %10s\n", "duration <=", "true", "estimate");
  for (int i = 3; i < kBuckets; i += 4) {
    std::printf("%-18s %10.3f %10.3f\n",
                (std::to_string(static_cast<int>(bucketizer.UpperBound(i))) + "s").c_str(),
                true_cdf[i] / num_users, estimate.query_answers[i] / num_users);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const std::string phase = flags.GetString("phase", "both");
  const std::string path = flags.GetString("strategy", "/tmp/wfm_strategy");
  const double eps = flags.GetDouble("eps", 1.0);
  const int users = flags.GetInt("users", 30000);
  wfm::WarnUnusedFlags(flags);  // Typo'd flags must not silently run defaults.

  int rc = 0;
  if (phase == "offline" || phase == "both") rc = RunOffline(path, eps);
  if (rc == 0 && (phase == "online" || phase == "both")) rc = RunOnline(path, users);
  return rc;
}

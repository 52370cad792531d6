// The adaptive serving loop, end to end: one Plan build, concurrent report
// ingestion, epoch sealing — and, new with src/adaptive, a controller that
// watches sealed epochs for population drift and re-optimizes the strategy
// for the population actually reporting, rolling it in at the next epoch
// boundary.
//
// Scenario: a fleet of devices reports which of n error codes they last saw.
// The baseline mix is Zipf-ish; mid-session an incident spikes one code, so
// the workload-optimized strategy built offline is no longer optimized for
// the population it is measuring. The AdaptiveController notices (the drift
// score is the estimate distance in units of decode noise), spends one
// budget round re-optimizing with the estimated distribution weighting the
// objective's multinomial denominator, and stages the roll. Devices poll CurrentStrategy() every epoch
// — exactly what a networked fleet does via the kGetStrategy frame — and
// swap their randomizer when the version moves, so no epoch ever mixes
// strategies and every epoch decodes under the strategy it was encoded with.
//
// Each device still reports once: one report participates in one epoch under
// one strategy, so the session stays eps-LDP per device. The BudgetPlanner's
// rounds account strategy re-optimizations, and its ledger is the same one
// the /metrics budget gauges expose.
//
// Build & run:
//   ./build/examples/collection_service [--eps=1.0] [--devices=40000]
//                                       [--epochs=6] [--rounds=2]
//                                       [--threads=4]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "wfm.h"  // Public umbrella API: all wfm modules.

namespace {

// True error-code mix for one epoch: a smooth baseline plus an incident
// spike on one code that starts mid-session and persists.
wfm::Vector TrueCounts(int n, int epoch, int devices_per_epoch) {
  wfm::Vector weights(n, 0.0);
  for (int u = 0; u < n; ++u) weights[u] = 1.0 / (1.0 + u);  // Zipf-ish.
  if (epoch >= 2) weights[n / 2] += 6.0;                     // The incident.
  const double total = wfm::Sum(weights);
  wfm::Vector counts(n, 0.0);
  double assigned = 0.0;
  for (int u = 0; u < n; ++u) {
    counts[u] = std::floor(weights[u] / total * devices_per_epoch);
    assigned += counts[u];
  }
  counts[0] += devices_per_epoch - assigned;  // Exact device total.
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const double eps = flags.GetDouble("eps", 1.0);
  const int devices_per_epoch = flags.GetInt("devices", 40000);
  const int epochs = flags.GetInt("epochs", 6);
  const int rounds = flags.GetInt("rounds", 2);
  const int threads = flags.GetInt("threads", 4);
  const int n = flags.GetInt("n", 16);
  wfm::WarnUnusedFlags(flags);  // Typo'd flags must not silently run defaults.

  // --- Offline: one Build() call (optimizes the strategy, no privacy cost) -
  auto workload = std::make_shared<const wfm::HistogramWorkload>(n);
  std::printf("[offline] building a %.2f-LDP 'Optimized' plan for %s "
              "(n = %d)...\n", eps, workload->Name().c_str(), n);
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
  std::printf("[offline] m = %d outputs; expected per-user unit variance "
              "%.4f\n\n", plan.Client().num_outputs(),
              plan.Profile().WorstUnitVariance());

  // --- Online: the collection service plus its adaptive feedback loop -----
  std::unique_ptr<wfm::PlanSession> service = plan.StartSession(threads);
  wfm::BudgetPlanner planner(eps * rounds, rounds);
  planner.SpendRound();  // The offline strategy is round one.

  wfm::AdaptiveConfig adaptive;
  adaptive.optimizer.iterations = 120;
  adaptive.optimizer.num_restarts = 0;  // Warm-start from the incumbent.
  adaptive.optimizer.seed = 5;
  wfm::AdaptiveController controller(service.get(), &planner, adaptive);

  wfm::Rng rng(2026);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const wfm::Vector truth = TrueCounts(n, epoch, devices_per_epoch);

    // Devices poll the versioned strategy before reporting — the in-process
    // twin of the wire's kGetStrategy — so a staged roll reaches the fleet
    // exactly at an epoch boundary.
    const wfm::StatusOr<wfm::StrategySnapshot> serving =
        service->CurrentStrategy();
    if (!serving.ok()) {
      std::printf("no serving strategy: %s\n",
                  serving.status().ToString().c_str());
      return 1;
    }
    const wfm::LocalRandomizer randomizer(serving.value().q);

    std::vector<wfm::Report> reports;
    reports.reserve(devices_per_epoch);
    for (int u = 0; u < n; ++u) {
      for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
        reports.emplace_back().index = randomizer.Respond(u, rng);
      }
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t begin = reports.size() * t / threads;
        const std::size_t end = reports.size() * (t + 1) / threads;
        for (std::size_t pos = begin; pos < end; pos += 1024) {
          const std::size_t len = std::min<std::size_t>(1024, end - pos);
          const wfm::Status accepted = service->AcceptBatch(
              t, std::span<const wfm::Report>(&reports[pos], len));
          WFM_CHECK(accepted.ok()) << accepted.ToString();
        }
      });
    }
    for (std::thread& w : workers) w.join();

    const wfm::EpochSnapshot sealed = service->Seal();
    const wfm::StatusOr<wfm::EpochDecision> decided =
        controller.OnEpochSealed();
    if (!decided.ok()) {
      std::printf("controller failed: %s\n",
                  decided.status().ToString().c_str());
      return 1;
    }
    const wfm::EpochDecision& decision = decided.value();

    const wfm::WorkloadEstimate latest =
        service->Estimate(wfm::EstimatorKind::kWnnls).value();
    const int incident = n / 2;
    const char* action = "baseline (new reference)";
    if (decision.rolled) {
      action = "DRIFT -> re-optimized and staged roll";
    } else if (decision.reoptimized) {
      action = "DRIFT -> re-optimized, kept incumbent";
    } else if (decision.scored && decision.drift.drifted) {
      action = "DRIFT (no budget or roll already staged)";
    } else if (decision.scored) {
      action = "steady";
    }
    std::printf(
        "[epoch %d] v%d, %lld reports; code %d share true %.3f est %.3f; "
        "drift %.1f sigma; %s\n",
        sealed.epoch_id, sealed.strategy_version,
        static_cast<long long>(sealed.count), incident,
        truth[incident] / devices_per_epoch,
        latest.query_answers[incident] / sealed.count, decision.drift.sigmas,
        action);
    if (decision.rolled) {
      std::printf("          staged strategy v%d (variance %.4f -> %.4f on "
                  "the estimated mix); %.2f eps budget left\n",
                  decision.staged_version, decision.incumbent_variance,
                  decision.candidate_variance, planner.remaining());
    }
  }

  std::printf(
      "\n[service] %d epochs, %lld reports; %d re-optimization(s), %d "
      "roll(s); final strategy v%d\n",
      service->session().epochs_sealed(),
      static_cast<long long>(service->session().total_responses()),
      controller.reoptimizations(), controller.rolls(),
      service->session().strategy_version());
  std::printf("(each device reported once, under exactly one strategy "
              "version; the session is %.2f-LDP per device)\n", eps);

  // The same run, as the telemetry layer saw it — including the adaptive
  // loop's own counters and the budget ledger the /metrics surface exposes.
  const wfm::MetricsSnapshot obs = wfm::MetricsRegistry::Global().Snapshot();
  const auto counter = [&](const char* name) -> long long {
    for (const wfm::CounterValue& c : obs.counters) {
      if (c.name == name) return static_cast<long long>(c.value);
    }
    return 0;
  };
  const auto gauge = [&](const char* name) -> double {
    for (const wfm::GaugeValue& g : obs.gauges) {
      if (g.name == name) return g.value;
    }
    return 0.0;
  };
  std::printf("[obs] ingest=%lld reports; seals=%lld; reopts=%lld "
              "rolls=%lld; budget eps %.2f spent / %.2f allocated\n",
              counter("wfm_ingest_reports_total"),
              counter("wfm_session_seals_total"),
              counter("wfm_adaptive_reoptimizations_total"),
              counter("wfm_adaptive_rolls_total"),
              gauge("wfm_budget_epsilon_spent"),
              gauge("wfm_budget_epsilon_allocated"));
  return 0;
}

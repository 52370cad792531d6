// Adaptive vs static serving under population drift, at equal total epsilon.
//
// Two identical deployments watch the same drifting population. The static
// arm serves the offline workload-optimized strategy forever. The adaptive
// arm runs the src/adaptive loop: a DriftDetector scores each sealed epoch
// against the reference in units of decode noise, and on drift the
// controller re-optimizes with the estimated mix weighting the objective's
// multinomial denominator (OptimizerConfig::population) and rolls the result
// at the next epoch boundary. Every device reports exactly once, under
// exactly one strategy, in both arms — the adaptive arm gets no extra
// privacy budget, only a strategy optimized for the population that actually
// showed up.
//
// The population starts Zipf-distributed; at --drift-epoch an incident
// concentrates most of the mass on one code and stays. The headline error is
// ANALYTIC: the exact Theorem 3.4 expected share MSE of the strategy each
// arm served, at the true mix — DataVariance(truth) / (devices · queries).
// This is the quantity the deployment's expected error actually is, and it
// is free of the per-epoch sampling noise (~35% relative std at 16 queries)
// that would otherwise bury the few-percent strategy gain; the empirical MSE
// of each arm's decoded answers is reported alongside for color. The
// adaptive arm's randomness (which strategy it rolls, and when) still flows
// through the noisy estimates the controller sees, so the headline is an
// honest end-to-end measurement of the adaptive loop. Each trial contributes
// the epochs from its own first rolled epoch on.
//
// The offline plan is deliberately over-converged (--offline-iters, 4
// restarts) so the static arm is not a strawman: any adaptive win is from
// fitting the population, not from out-iterating a sloppy baseline.
//
//   ./build/bench/adaptive_drift [--n=16] [--eps=1.0] [--devices=60000]
//       [--epochs=10] [--drift-epoch=3] [--trials=5] [--rho=0.5]
//       [--iters=800] [--offline-iters=800] [--out=BENCH_adaptive.json]
//
// Writes per-arm averages and the relative improvement to --out so CI can
// keep the adaptive-vs-static trajectory per commit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "wfm.h"

namespace {

// True population mix: Zipf baseline, incident concentration from
// `drift_epoch` on (roughly 0.9 of the mass onto one code at n = 16).
wfm::Vector TrueShares(int n, int epoch, int drift_epoch) {
  wfm::Vector weights(n, 0.0);
  for (int u = 0; u < n; ++u) weights[u] = 1.0 / (1.0 + u);
  if (epoch >= drift_epoch) weights[n / 2] += 30.0;
  const double total = wfm::Sum(weights);
  for (double& w : weights) w /= total;
  return weights;
}

// Empirical MSE of the estimated workload answers against the true ones,
// both as population shares, averaged over the workload's queries.
double ShareMse(const wfm::WorkloadEstimate& estimate, std::int64_t count,
                const wfm::Workload& workload, const wfm::Vector& truth) {
  const wfm::Vector true_answers = workload.Apply(truth);
  double sum_sq = 0.0;
  for (std::size_t q = 0; q < true_answers.size(); ++q) {
    const double diff = estimate.query_answers[q] / count - true_answers[q];
    sum_sq += diff * diff;
  }
  return sum_sq / true_answers.size();
}

// Exact expected share MSE (Theorem 3.4) of serving strategy `q` to
// `devices` reports drawn from `truth`, averaged over the workload queries.
double ExpectedShareMse(const wfm::Matrix& q, const wfm::WorkloadStats& stats,
                        const wfm::Vector& truth, int devices, int queries) {
  const wfm::FactorizationAnalysis analysis(q, stats);
  return analysis.Profile().DataVariance(truth) /
         (static_cast<double>(devices) * queries);
}

}  // namespace

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const wfm::bench::UnusedFlagWarner warn_unused(flags);
  const int n = flags.GetInt("n", 16);
  const double eps = flags.GetDouble("eps", 1.0);
  const int devices = flags.GetInt("devices", 60000);
  const int epochs = flags.GetInt("epochs", 10);
  const int drift_epoch = flags.GetInt("drift-epoch", 3);
  const int trials = flags.GetInt("trials", 5);
  const double rho = flags.GetDouble("rho", 0.5);
  const std::string out = flags.GetString("out", "BENCH_adaptive.json");

  wfm::bench::PrintHeader(
      "Adaptive vs static serving under drift (equal total epsilon)",
      "not in the paper: the paper optimizes offline for a fixed population",
      "n = " + std::to_string(n) + ", " + std::to_string(devices) +
          " devices/epoch, drift at epoch " + std::to_string(drift_epoch) +
          ", " + std::to_string(trials) + " trials");

  auto workload = std::make_shared<const wfm::HistogramWorkload>(n);
  const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
  const int queries = static_cast<int>(workload->num_queries());
  wfm::OptimizerConfig offline;
  offline.iterations = flags.GetInt("offline-iters", 800);
  offline.num_restarts = 4;  // Over-converged on purpose; see file comment.
  offline.seed = 7;
  const wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                             .Epsilon(eps)
                                             .Mechanism("Optimized")
                                             .Optimizer(offline)
                                             .Build();
  if (!built.ok()) {
    std::printf("cannot build plan: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const wfm::Plan& plan = built.value();

  // Accumulated across trials, per epoch.
  std::vector<double> static_expected(epochs, 0.0);
  std::vector<double> adaptive_expected(epochs, 0.0);
  std::vector<double> static_empirical(epochs, 0.0);
  std::vector<double> adaptive_empirical(epochs, 0.0);
  std::vector<int> last_trial_version(epochs, 0);
  // Headline accumulators: each trial contributes every epoch from its own
  // first rolled epoch on (per-trial windows — trials roll at different
  // epochs because the controller sees different noise).
  double post_static = 0.0, post_adaptive = 0.0;
  double post_static_emp = 0.0, post_adaptive_emp = 0.0;
  int post_epochs = 0;
  int trials_rolled = 0;
  int earliest_roll = epochs;

  for (int trial = 0; trial < trials; ++trial) {
    std::unique_ptr<wfm::PlanSession> session_static = plan.StartSession(1);
    std::unique_ptr<wfm::PlanSession> session_adaptive = plan.StartSession(1);
    wfm::AdaptiveConfig config;
    config.reweight_rho = rho;
    config.optimizer.iterations = flags.GetInt("iters", 800);
    config.optimizer.num_restarts = 2;  // Plus the incumbent warm start.
    config.optimizer.seed = 100 + trial;
    wfm::AdaptiveController controller(session_adaptive.get(), nullptr,
                                       config);
    wfm::Rng rng(9000 + trial);

    std::vector<double> trial_static_exp(epochs, 0.0);
    std::vector<double> trial_adaptive_exp(epochs, 0.0);
    std::vector<double> trial_static_emp(epochs, 0.0);
    std::vector<double> trial_adaptive_emp(epochs, 0.0);
    int trial_first_rolled = epochs;  // epochs = this trial never rolled.

    for (int epoch = 0; epoch < epochs; ++epoch) {
      const wfm::Vector truth = TrueShares(n, epoch, drift_epoch);

      // Device fleets for both arms, each polling its arm's strategy. The
      // two arms share the truth but draw independent randomness, like two
      // real deployments would.
      for (wfm::PlanSession* session :
           {session_static.get(), session_adaptive.get()}) {
        const wfm::StrategySnapshot serving =
            session->CurrentStrategy().value();
        const bool is_static = session == session_static.get();
        (is_static ? trial_static_exp : trial_adaptive_exp)[epoch] =
            ExpectedShareMse(serving.strategy.factors[0], stats, truth,
                             devices, queries);
        const wfm::LocalRandomizer randomizer(serving.strategy.factors[0]);
        for (int d = 0; d < devices; ++d) {
          // Inverse-CDF draw of the device's true type.
          const double u = rng.Uniform(0.0, 1.0);
          double cumulative = 0.0;
          int type = n - 1;
          for (int t = 0; t < n; ++t) {
            cumulative += truth[t];
            if (u < cumulative) {
              type = t;
              break;
            }
          }
          wfm::Report report;
          report.index = randomizer.Respond(type, rng);
          if (!session->Accept(0, report).ok()) return 1;
        }
      }

      const wfm::EpochSnapshot sealed_static = session_static->Seal();
      const wfm::EpochSnapshot sealed_adaptive = session_adaptive->Seal();
      const wfm::StatusOr<wfm::EpochDecision> decision =
          controller.OnEpochSealed();
      if (!decision.ok()) {
        std::printf("controller failed: %s\n",
                    decision.status().ToString().c_str());
        return 1;
      }

      trial_static_emp[epoch] = ShareMse(
          session_static->Estimate(wfm::EstimatorKind::kUnbiased).value(),
          sealed_static.count, *workload, truth);
      trial_adaptive_emp[epoch] = ShareMse(
          session_adaptive->Estimate(wfm::EstimatorKind::kUnbiased).value(),
          sealed_adaptive.count, *workload, truth);
      last_trial_version[epoch] = sealed_adaptive.strategy_version;
      if (sealed_adaptive.strategy_version > 0 && trial_first_rolled > epoch) {
        trial_first_rolled = epoch;
      }
    }

    for (int epoch = 0; epoch < epochs; ++epoch) {
      static_expected[epoch] += trial_static_exp[epoch];
      adaptive_expected[epoch] += trial_adaptive_exp[epoch];
      static_empirical[epoch] += trial_static_emp[epoch];
      adaptive_empirical[epoch] += trial_adaptive_emp[epoch];
      if (epoch >= trial_first_rolled) {
        post_static += trial_static_exp[epoch];
        post_adaptive += trial_adaptive_exp[epoch];
        post_static_emp += trial_static_emp[epoch];
        post_adaptive_emp += trial_adaptive_emp[epoch];
        ++post_epochs;
      }
    }
    if (trial_first_rolled < epochs) {
      ++trials_rolled;
      earliest_roll = std::min(earliest_roll, trial_first_rolled);
    }
  }

  wfm::TablePrinter table({"epoch", "phase", "static E[mse]",
                           "adaptive E[mse]", "static mse", "adaptive mse",
                           "v"});
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const char* phase = epoch < drift_epoch ? "baseline"
                        : epoch < earliest_roll ? "drifted"
                                                : "rolled";
    table.AddRow({std::to_string(epoch), phase,
                  wfm::TablePrinter::Num(static_expected[epoch] / trials),
                  wfm::TablePrinter::Num(adaptive_expected[epoch] / trials),
                  wfm::TablePrinter::Num(static_empirical[epoch] / trials),
                  wfm::TablePrinter::Num(adaptive_empirical[epoch] / trials),
                  std::to_string(last_trial_version[epoch])});
  }
  table.Print();

  if (post_epochs == 0) {
    std::printf("\nno trial rolled a strategy; raise --devices or lower "
                "--drift-epoch\n");
    return 1;
  }
  post_static /= post_epochs;
  post_adaptive /= post_epochs;
  post_static_emp /= post_epochs;
  post_adaptive_emp /= post_epochs;
  const double improvement = (post_static - post_adaptive) / post_static;
  std::printf(
      "\npost-roll expected share MSE (%d epoch-trials, %d/%d trials "
      "rolled): static %.4g, adaptive %.4g — %.1f%% %s\n"
      "post-roll empirical share MSE:  static %.4g, adaptive %.4g\n",
      post_epochs, trials_rolled, trials, post_static, post_adaptive,
      100.0 * std::fabs(improvement),
      improvement >= 0 ? "lower with adaptive" : "HIGHER (regression)",
      post_static_emp, post_adaptive_emp);

  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"n\": %d, \"eps\": %g, \"devices_per_epoch\": %d,\n"
               "  \"epochs\": %d, \"drift_epoch\": %d, \"trials\": %d,\n"
               "  \"trials_rolled\": %d, \"earliest_roll_epoch\": %d,\n"
               "  \"post_roll_epoch_trials\": %d,\n"
               "  \"post_roll_mse_static\": %.6g,\n"
               "  \"post_roll_mse_adaptive\": %.6g,\n"
               "  \"post_roll_empirical_mse_static\": %.6g,\n"
               "  \"post_roll_empirical_mse_adaptive\": %.6g,\n"
               "  \"improvement_fraction\": %.4f,\n"
               "  \"adaptive_beats_static\": %s,\n"
               "  \"per_epoch\": [\n",
               n, eps, devices, epochs, drift_epoch, trials, trials_rolled,
               earliest_roll, post_epochs, post_static, post_adaptive,
               post_static_emp, post_adaptive_emp, improvement,
               improvement > 0 ? "true" : "false");
  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::fprintf(
        f,
        "    {\"epoch\": %d, \"static_expected_mse\": %.6g, "
        "\"adaptive_expected_mse\": %.6g, \"static_mse\": %.6g, "
        "\"adaptive_mse\": %.6g, \"adaptive_version\": %d}%s\n",
        epoch, static_expected[epoch] / trials,
        adaptive_expected[epoch] / trials, static_empirical[epoch] / trials,
        adaptive_empirical[epoch] / trials, last_trial_version[epoch],
        epoch + 1 < epochs ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return improvement > 0 ? 0 : 1;
}

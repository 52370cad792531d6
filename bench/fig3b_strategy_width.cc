// Figure 3b: sensitivity of the optimization to the strategy width m and the
// random initialization.
//
// Paper setting: n = 64, ε = 1, m ∈ {n, 4n, 8n, 12n, 16n}, 10 random
// restarts per m; plot the worst-case variance of each optimized strategy as
// a ratio to the best found across all trials.
// Default here:  n = 32, m ∈ {n, 2n, 4n, 8n}, 5 restarts (pass --full for
// the paper's grid).
//
// Section 6.5 findings to reproduce:
//   * optimization is robust to initialization (small min-max spread);
//   * ratios improve and level off as m grows; m = 4n lands within ~1.05-1.1
//     of the best found.
//
// Note: this bench deliberately uses raw OptimizeStrategy (random
// initializations only, no baseline seeding) to measure what the paper
// measured.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/bench_util.h"
#include "core/factorization.h"
#include "core/optimizer.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const wfm::bench::UnusedFlagWarner warn_unused(flags);
  const bool full = flags.GetBool("full", false);
  const int n = flags.GetInt("n", full ? 64 : 32);
  const double eps = flags.GetDouble("eps", 1.0);
  const int trials = flags.GetInt("trials", full ? 10 : 5);
  const std::vector<int> multipliers = flags.GetIntList(
      "multipliers", full ? std::vector<int>{1, 4, 8, 12, 16}
                          : std::vector<int>{1, 2, 4, 8});

  wfm::bench::PrintHeader(
      "Figure 3b: worst-case variance (ratio to best found) vs strategy width m",
      "n = 64, eps = 1, m in {n..16n}, 10 random restarts",
      "n = " + std::to_string(n) + ", " + std::to_string(trials) + " restarts");

  std::vector<std::string> header{"workload"};
  for (int mult : multipliers) {
    header.push_back("m=" + std::to_string(mult) + "n (med)");
    header.push_back("min..max");
  }
  wfm::TablePrinter table(header);

  for (const auto& wname : wfm::StandardWorkloadNames()) {
    const auto workload = wfm::CreateWorkload(wname, n);
    const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);

    // Worst-case variance per (m, trial).
    std::vector<std::vector<double>> variances(multipliers.size());
    double best = 1e300;
    for (std::size_t mi = 0; mi < multipliers.size(); ++mi) {
      for (int t = 0; t < trials; ++t) {
        wfm::OptimizerConfig config = wfm::bench::BenchOptimizerConfig(flags);
        config.random_init_rows = multipliers[mi] * n;
        config.seed = 1000 + 131 * t + mi;
        const wfm::OptimizerResult res =
            wfm::OptimizeStrategy(stats.gram, eps, config);
        const wfm::FactorizationAnalysis fa(res.q, stats);
        const double v = fa.Profile().WorstUnitVariance();
        variances[mi].push_back(v);
        best = std::min(best, v);
      }
    }

    std::vector<std::string> row{wname};
    for (auto& vs : variances) {
      std::sort(vs.begin(), vs.end());
      const double median = vs[vs.size() / 2] / best;
      row.push_back(wfm::TablePrinter::Num(median));
      row.push_back(wfm::TablePrinter::Num(vs.front() / best) + ".." +
                    wfm::TablePrinter::Num(vs.back() / best));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf("\npaper reports: all ratios within 1.21 of best; m = 4n lands "
              "within ~1.05-1.1; Parity levels off early (low-rank workload)\n");
  return 0;
}

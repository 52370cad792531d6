// Figure 4: normalized variance of the optimized mechanism with and without
// the WNNLS consistency extension (Appendix A / Section 6.7).
//
// Paper setting: ε = 1, N = 1000, n = 512, a random sample from the DPBench
// HEPTH dataset, 100 simulations per workload; the extension reduces
// variance by 1.96x-5.6x in this low-data regime.
// Default here:  n = 128, synthetic HEPTH stand-in, 60 simulations.

#include <cmath>
#include <memory>

#include "bench/bench_util.h"
#include "core/factorization.h"
#include "data/datasets.h"
#include "estimation/estimator.h"
#include "ldp/protocol.h"
#include "linalg/rng.h"
#include "mechanisms/optimized.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const wfm::bench::UnusedFlagWarner warn_unused(flags);
  const bool full = flags.GetBool("full", false);
  const int n = flags.GetInt("n", full ? 512 : 128);
  const double eps = flags.GetDouble("eps", 1.0);
  const int num_users = flags.GetInt("users", 1000);
  const int trials = flags.GetInt("trials", full ? 100 : 60);

  wfm::bench::PrintHeader(
      "Figure 4: normalized variance with and without WNNLS",
      "n = 512, N = 1000, eps = 1, HEPTH sample, 100 simulations",
      "n = " + std::to_string(n) + ", N = " + std::to_string(num_users) + ", " +
          std::to_string(trials) + " simulations");

  // N users sampled i.i.d. from the HEPTH-like distribution, as the paper
  // samples from HEPTH.
  const wfm::Dataset base = wfm::MakeSyntheticDataset("HEPTH", n, 1e6);
  const wfm::Dataset data = wfm::SampleUsers(base, num_users, 5);

  wfm::TablePrinter table(
      {"workload", "default", "WNNLS", "improvement"});

  for (const auto& wname : wfm::StandardWorkloadNames()) {
    const auto workload = wfm::CreateWorkload(wname, n);
    const auto stats = std::make_shared<const wfm::WorkloadStats>(
        wfm::WorkloadStats::From(*workload));
    const wfm::OptimizedMechanism mech(*stats, eps,
                                       wfm::bench::BenchOptimizerConfig(flags));
    const wfm::FactorizationAnalysis analysis(mech.strategy().factors[0],
                                              *stats);
    const wfm::ReportDecoder decoder({analysis.ReconstructionB()}, stats);
    const wfm::Vector truth = workload->Apply(data.histogram);

    wfm::Rng rng(77);
    double err_default = 0.0, err_wnnls = 0.0;
    for (int t = 0; t < trials; ++t) {
      const wfm::Vector y =
          wfm::SimulateResponseHistogram(mech.strategy().factors[0],
                                         data.histogram, rng);
      const auto unbiased = wfm::EstimateWorkloadAnswers(
          decoder, *workload, y, num_users, wfm::EstimatorKind::kUnbiased);
      const auto consistent = wfm::EstimateWorkloadAnswers(
          decoder, *workload, y, num_users, wfm::EstimatorKind::kWnnls);
      for (std::size_t i = 0; i < truth.size(); ++i) {
        err_default += std::pow(unbiased.query_answers[i] - truth[i], 2);
        err_wnnls += std::pow(consistent.query_answers[i] - truth[i], 2);
      }
    }
    // Normalized variance (Definition 5.2): mean squared error per query on
    // the N-normalized data vector.
    const double norm = static_cast<double>(trials) * stats->p *
                        static_cast<double>(num_users) * num_users;
    const double v_default = err_default / norm;
    const double v_wnnls = err_wnnls / norm;
    table.AddRow({wname, wfm::TablePrinter::Num(v_default),
                  wfm::TablePrinter::Num(v_wnnls),
                  wfm::TablePrinter::Num(v_default / v_wnnls) + "x"});
  }
  table.Print();
  std::printf("\npaper reports: WNNLS reduces variance on every workload, by "
              "1.96x to 5.6x in this regime\n");
  return 0;
}

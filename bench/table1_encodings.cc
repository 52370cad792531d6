// Table 1: existing LDP mechanisms encoded as strategy matrices.
//
// This bench verifies, at a small domain where everything is materializable,
// that each Table 1 encoding (Randomized Response, RAPPOR, Hadamard, Subset
// Selection) plus the additional Section 6 baselines (Hierarchical, Fourier)
// is a valid ε-LDP strategy matrix (Proposition 2.6), reports its shape and
// exact minimum ε, and cross-checks the paper's closed forms:
//   * Example 3.7 — RR variance on Histogram;
//   * Example 5.5 — RR sample complexity;
//   * RAPPOR's closed-form per-bit variance vs the Theorem 3.10 analysis of
//     its explicit 2^n-row strategy.

#include <cmath>

#include "bench/bench_util.h"
#include "core/factorization.h"
#include "core/strategy.h"
#include "mechanisms/fourier.h"
#include "mechanisms/hadamard_response.h"
#include "mechanisms/hierarchical.h"
#include "mechanisms/randomized_response.h"
#include "mechanisms/registry.h"
#include "mechanisms/subset_selection.h"
#include "mechanisms/unary_encoding.h"
#include "workload/histogram.h"

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const wfm::bench::UnusedFlagWarner warn_unused(flags);
  const int n = flags.GetInt("n", 8);
  const double eps = flags.GetDouble("eps", 1.0);

  wfm::bench::PrintHeader(
      "Table 1: mechanism encodings as strategy matrices",
      "symbolic encodings (RR, RAPPOR, Hadamard, Subset Selection)",
      "explicit matrices at n = " + std::to_string(n) +
          ", eps = " + wfm::TablePrinter::Num(eps));

  const wfm::WorkloadStats histogram =
      wfm::WorkloadStats::From(wfm::HistogramWorkload(n));

  // RAPPOR and OUE are unary encodings UE(p, q); their registry entries map
  // ε to (p, q).
  const auto rappor_mechanism =
      wfm::MechanismRegistry::Global().Create("RAPPOR", histogram, eps).value();
  const auto oue_mechanism =
      wfm::MechanismRegistry::Global().Create("OUE", histogram, eps).value();
  const auto& rappor =
      dynamic_cast<const wfm::UnaryEncodingMechanism&>(*rappor_mechanism);
  const auto& oue =
      dynamic_cast<const wfm::UnaryEncodingMechanism&>(*oue_mechanism);

  wfm::TablePrinter table({"mechanism", "outputs (m)", "valid LDP",
                           "min epsilon", "histogram sample complexity"});

  auto add = [&](const std::string& name, const wfm::Matrix& q) {
    const wfm::StrategyValidation v = wfm::ValidateStrategy(q, eps, 1e-8);
    const wfm::FactorizationAnalysis fa(q, histogram);
    table.AddRow({name, std::to_string(q.rows()), v.valid ? "yes" : "NO",
                  wfm::TablePrinter::Num(v.min_epsilon),
                  wfm::TablePrinter::Num(
                      fa.Profile().SampleComplexity(wfm::bench::kAlpha))});
  };

  add("Randomized Response", wfm::RandomizedResponseMechanism::BuildStrategy(n, eps));
  add("RAPPOR (explicit)", wfm::UnaryEncodingMechanism::BuildExplicitStrategy(
                               n, rappor.p(), rappor.q()));
  add("Hadamard", wfm::HadamardResponseMechanism::BuildStrategy(n, eps));
  const wfm::SubsetSelectionMechanism subset(n, eps);
  add("Subset Selection (d=" + std::to_string(subset.subset_size()) + ")",
      wfm::SubsetSelectionMechanism::BuildExplicitStrategy(n, eps,
                                                           subset.subset_size()));
  add("Hierarchical", wfm::HierarchicalMechanism::BuildStrategy(n, eps, 4));
  add("Fourier", wfm::FourierMechanism::BuildStrategy(n, eps, -1));
  add("OUE (explicit, extension)",
      wfm::UnaryEncodingMechanism::BuildExplicitStrategy(n, oue.p(), oue.q()));
  table.Print();

  // Closed-form cross-checks.
  std::printf("\nclosed-form cross-checks (Histogram workload):\n");
  {
    const wfm::Matrix q = wfm::RandomizedResponseMechanism::BuildStrategy(n, eps);
    const wfm::FactorizationAnalysis fa(q, histogram);
    const double analytic =
        wfm::RandomizedResponseMechanism::HistogramVarianceClosedForm(n, eps, 1000);
    std::printf("  Example 3.7 RR variance (N=1000): closed form %.4f vs "
                "computed %.4f\n", analytic,
                1000 * fa.Profile().WorstUnitVariance());
    const double sc_analytic =
        wfm::RandomizedResponseMechanism::HistogramSampleComplexityClosedForm(
            n, eps, wfm::bench::kAlpha);
    std::printf("  Example 5.5 RR sample complexity: closed form %.4f vs "
                "computed %.4f\n", sc_analytic,
                fa.Profile().SampleComplexity(wfm::bench::kAlpha));
  }
  {
    const double closed =
        rappor.Analyze(histogram).SampleComplexity(wfm::bench::kAlpha);
    const wfm::FactorizationAnalysis fa(
        wfm::UnaryEncodingMechanism::BuildExplicitStrategy(n, rappor.p(),
                                                           rappor.q()),
        histogram);
    std::printf("  RAPPOR: closed-form decoder %.4f vs optimal-V analysis of "
                "the explicit strategy %.4f (optimal V can only be better)\n",
                closed, fa.Profile().SampleComplexity(wfm::bench::kAlpha));
  }
  return 0;
}

// Figure 2: sample complexity of 7 mechanisms on 6 workloads as a function
// of the domain size n ∈ [8, 1024] at ε = 1.
//
// Paper setting: n ∈ {8, ..., 1024} (powers of two), ε = 1, α = 0.01.
// Default here:  n ∈ {8, 16, 32, 64, 128}.
//
// Section 6.3 findings to reproduce:
//   * Histogram: ~flat in n for every mechanism except Randomized Response;
//   * workload-adaptive mechanisms scale ≈ sqrt(n) on structured workloads
//     (log-log slope ≈ 0.5), non-adaptive ones ≈ n (slope ≈ 1);
//   * the L2 Matrix Mechanism is worst at small n but its flat/shallow curve
//     slowly overtakes the non-adaptive mechanisms at large n.
//
// --structured switches to Kronecker-structured product domains past the
// dense n ≈ 1024 ceiling (n up to 10^6 by default): per spec it times the
// factored optimizer and the product-law error analysis, and with --out
// writes the timings in the perf_suite JSON schema so CI can extend the
// BENCH_perf.json trajectory to large n. Flags there: --specs (comma-
// separated factory strings), --grid (epsilon split resolution), --out.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/factored.h"
#include "core/factorization.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/optimized.h"
#include "mechanisms/registry.h"
#include "workload/kronecker.h"
#include "workload/workload.h"

namespace {

std::vector<std::string> SplitSpecs(const std::string& csv) {
  std::vector<std::string> specs;
  std::string current;
  for (char c : csv) {
    if (c == ',') {
      if (!current.empty()) specs.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) specs.push_back(current);
  return specs;
}

int RunStructured(wfm::FlagParser& flags, bool full, double eps) {
  const std::vector<std::string> specs = SplitSpecs(flags.GetString(
      "specs",
      full ? "Prefix(64)xPrefix(64),Prefix(256)xHistogram(64)xAllRange(32),"
             "Prefix(100)xPrefix(100)xPrefix(100),Prefix(1024)xPrefix(1024)"
           : "Prefix(64)xPrefix(64),Prefix(256)xHistogram(64)xAllRange(32),"
             "Prefix(100)xPrefix(100)xPrefix(100)"));
  const std::string out = flags.GetString("out", "");

  wfm::FactoredOptimizerConfig config;
  config.factor_config = wfm::bench::BenchOptimizerConfig(flags);
  // Per-factor PGD converges in far fewer iterations than the composed-domain
  // runs the dense default budgets; keep the smoke run in seconds.
  if (!flags.Has("iters")) config.factor_config.iterations = full ? 400 : 60;
  config.split_grid = flags.GetInt("grid", 4);

  wfm::bench::PrintHeader(
      "Figure 2 (structured): factored optimization on Kronecker domains",
      "past the paper's dense evaluation; n up to 10^6, eps = 1.0",
      "eps = " + wfm::TablePrinter::Num(eps) + ", grid = " +
          std::to_string(config.split_grid) + ", iters = " +
          std::to_string(config.factor_config.iterations));

  struct Row {
    std::string spec;
    double opt_seconds = 0.0;
    double analyze_seconds = 0.0;
  };
  std::vector<Row> rows;
  wfm::TablePrinter table({"workload", "n", "factors", "opt ms", "analyze ms",
                           "objective", "samples(0.01)"});
  for (const std::string& spec : specs) {
    const std::shared_ptr<const wfm::Workload> workload =
        wfm::ParseWorkload(spec);
    const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);

    wfm::Stopwatch opt_timer;
    wfm::FactoredOptimizerResult result =
        wfm::OptimizeFactoredStrategy(stats, eps, config);
    const double opt_seconds = opt_timer.ElapsedSeconds();

    const wfm::FixedStrategyMechanism mechanism(std::move(result.strategy),
                                                stats.n, eps, "Optimized");
    wfm::Stopwatch analyze_timer;
    const wfm::ErrorProfile profile = mechanism.Analyze(stats);
    const double analyze_seconds = analyze_timer.ElapsedSeconds();

    table.AddRow({spec, std::to_string(stats.n),
                  std::to_string(stats.factors.size()),
                  wfm::TablePrinter::Num(opt_seconds * 1e3),
                  wfm::TablePrinter::Num(analyze_seconds * 1e3),
                  wfm::TablePrinter::Num(result.objective),
                  wfm::TablePrinter::Num(
                      profile.SampleComplexity(wfm::bench::kAlpha))});
    rows.push_back({spec, opt_seconds, analyze_seconds});
  }
  table.Print();
  std::printf("\nfactored path: memory stays proportional to the factor "
              "sizes; no n x n object is built at any n above\n");

  if (!out.empty()) {
    // perf_suite.cc's BENCH_perf.json schema, so CI merges these rows into
    // the same per-commit trajectory the dense kernels feed.
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "  {\"kernel\": \"factored_optimize\", \"shape\": \"%s\", "
                   "\"ns_per_op\": %.1f, \"gflops\": 0.000},\n",
                   rows[i].spec.c_str(), rows[i].opt_seconds * 1e9);
      std::fprintf(f,
                   "  {\"kernel\": \"factored_analyze\", \"shape\": \"%s\", "
                   "\"ns_per_op\": %.1f, \"gflops\": 0.000}%s\n",
                   rows[i].spec.c_str(), rows[i].analyze_seconds * 1e9,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu entries to %s\n", 2 * rows.size(), out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const wfm::bench::UnusedFlagWarner warn_unused(flags);
  const bool full = flags.GetBool("full", false);
  if (flags.GetBool("structured", false)) {
    return RunStructured(flags, full, flags.GetDouble("eps", 1.0));
  }
  const std::vector<int> domains = flags.GetIntList(
      "domains", full ? std::vector<int>{8, 16, 32, 64, 128, 256, 512, 1024}
                      : std::vector<int>{8, 16, 32, 64, 128});
  const double eps = flags.GetDouble("eps", 1.0);

  wfm::bench::PrintHeader(
      "Figure 2: sample complexity vs domain size (7 mechanisms x 6 workloads)",
      "n in [8, 1024], eps = 1.0, alpha = 0.01",
      "n in [" + std::to_string(domains.front()) + ", " +
          std::to_string(domains.back()) + "], eps = " +
          wfm::TablePrinter::Num(eps));

  for (const auto& wname : wfm::StandardWorkloadNames()) {
    std::printf("Workload = %s, Epsilon = %g\n", wname.c_str(), eps);
    std::vector<std::string> header{"mechanism"};
    for (int n : domains) header.push_back("n=" + std::to_string(n));
    header.push_back("slope");
    wfm::TablePrinter table(header);

    auto add_mechanism_row = [&](const std::string& label,
                                 const std::vector<double>& scs) {
      std::vector<std::string> row{label};
      for (double sc : scs) {
        row.push_back(sc < 1e299 ? wfm::TablePrinter::Num(sc) : "n/a");
      }
      // Log-log slope over the measured range (the paper's scaling metric;
      // slope 0.5 <=> sqrt(n), slope 1 <=> linear).
      if (scs.front() < 1e299 && scs.back() < 1e299 && scs.front() > 0) {
        const double slope = std::log(scs.back() / scs.front()) /
                             std::log(static_cast<double>(domains.back()) /
                                      domains.front());
        row.push_back(wfm::TablePrinter::Num(slope));
      } else {
        row.push_back("n/a");
      }
      table.AddRow(row);
    };

    for (const auto& mname : wfm::StandardBaselineNames()) {
      std::vector<double> scs;
      for (int n : domains) {
        const auto workload = wfm::CreateWorkload(wname, n);
        const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
        const auto mech = wfm::CreateBaseline(mname, n, eps);
        scs.push_back(!mech.ok() ? 1e300
                                 : mech.value()->Analyze(stats).SampleComplexity(
                                       wfm::bench::kAlpha));
      }
      add_mechanism_row(mname, scs);
    }

    std::vector<double> opt_scs;
    for (int n : domains) {
      const auto workload = wfm::CreateWorkload(wname, n);
      const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
      const wfm::OptimizedMechanism optimized(
          stats, eps, wfm::bench::BenchOptimizerConfig(flags));
      opt_scs.push_back(
          optimized.Analyze(stats).SampleComplexity(wfm::bench::kAlpha));
    }
    add_mechanism_row("Optimized", opt_scs);
    table.Print();
    std::printf("\n");
  }
  std::printf("paper reports: slope ~0 on Histogram (except RR ~1), ~0.5 for "
              "adaptive mechanisms elsewhere, ~1.0 for non-adaptive ones\n");
  return 0;
}

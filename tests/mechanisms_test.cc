// Cross-cutting mechanism tests: every baseline's strategy matrix satisfies
// Proposition 2.6 over an (n, ε) grid, Table 1 encodings are correct, and
// mechanisms reproduce their known behaviours.

#include <cctype>
#include <cmath>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "core/factored.h"
#include "core/strategy.h"
#include "mechanisms/fourier.h"
#include "mechanisms/hadamard_response.h"
#include "mechanisms/hierarchical.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/optimized.h"
#include "mechanisms/randomized_response.h"
#include "mechanisms/registry.h"
#include "mechanisms/subset_selection.h"
#include "workload/kronecker.h"
#include "workload/workload.h"

namespace wfm {
namespace {

/// Deploy takes the statistics it shares with the decoder it builds.
std::shared_ptr<const WorkloadStats> Shared(const WorkloadStats& stats) {
  return std::make_shared<const WorkloadStats>(stats);
}

struct GridCase {
  std::string mechanism;
  int n;
  double eps;
};

class StrategyValidityGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(StrategyValidityGrid, SatisfiesProposition26) {
  const auto& [name, n, eps] = GetParam();
  const auto mech = CreateBaseline(name, n, eps);
  ASSERT_TRUE(mech.ok()) << mech.status().ToString();
  const auto* strat = dynamic_cast<const StrategyMechanism*>(mech.value().get());
  ASSERT_NE(strat, nullptr) << name << " is not strategy-based";
  const StrategyValidation v =
      ValidateStrategy(strat->strategy().factors[0], eps, 1e-8);
  EXPECT_TRUE(v.valid) << name << " n=" << n << " eps=" << eps << ": "
                       << v.ToString();
}

std::vector<GridCase> MakeGrid() {
  std::vector<GridCase> grid;
  for (const char* name : {"Randomized Response", "Hadamard", "Hierarchical",
                           "Fourier"}) {
    for (int n : {4, 8, 16, 32}) {
      for (double eps : {0.25, 1.0, 4.0}) {
        grid.push_back({name, n, eps});
      }
    }
  }
  // Non-power-of-two domains for the mechanisms that support them.
  for (const char* name : {"Randomized Response", "Hadamard", "Hierarchical"}) {
    grid.push_back({name, 13, 1.0});
    grid.push_back({name, 27, 0.5});
  }
  return grid;
}

std::string GridCaseName(const ::testing::TestParamInfo<GridCase>& info) {
  std::string name = info.param.mechanism + "_n" + std::to_string(info.param.n) +
                     "_eps" + std::to_string(static_cast<int>(info.param.eps * 100));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, StrategyValidityGrid,
                         ::testing::ValuesIn(MakeGrid()), GridCaseName);

TEST(RandomizedResponseTest, MatchesExample27Entries) {
  const int n = 4;
  const double eps = 1.0;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, eps);
  const double e = std::exp(1.0);
  const double norm = e + n - 1;
  for (int o = 0; o < n; ++o) {
    for (int u = 0; u < n; ++u) {
      EXPECT_NEAR(q(o, u), (o == u ? e : 1.0) / norm, 1e-12);
    }
  }
}

TEST(HadamardTest, OutputSizeIsNextPowerOfTwoAboveN) {
  EXPECT_EQ(HadamardResponseMechanism::OutputSize(3), 4);
  EXPECT_EQ(HadamardResponseMechanism::OutputSize(4), 8);
  EXPECT_EQ(HadamardResponseMechanism::OutputSize(511), 512);
  EXPECT_EQ(HadamardResponseMechanism::OutputSize(512), 1024);
}

TEST(HadamardTest, TwoLevelRowProbabilities) {
  // Every entry is one of exactly two values with ratio e^ε (Table 1).
  const Matrix q = HadamardResponseMechanism::BuildStrategy(7, 1.5);
  double lo = 1e9, hi = 0;
  for (int o = 0; o < q.rows(); ++o) {
    for (int u = 0; u < q.cols(); ++u) {
      lo = std::min(lo, q(o, u));
      hi = std::max(hi, q(o, u));
    }
  }
  EXPECT_NEAR(hi / lo, std::exp(1.5), 1e-9);
}

TEST(HierarchicalTest, CoversAllLevels) {
  // n=16 fanout 4: levels of 4 and 16 cells -> 20 rows.
  const Matrix q = HierarchicalMechanism::BuildStrategy(16, 1.0, 4);
  EXPECT_EQ(q.rows(), 20);
  EXPECT_EQ(q.cols(), 16);
}

TEST(HierarchicalTest, NonPowerOfFanoutDomain) {
  const Matrix q = HierarchicalMechanism::BuildStrategy(10, 1.0, 4);
  EXPECT_TRUE(ValidateStrategy(q, 1.0, 1e-9).valid);
}

TEST(HierarchicalTest, BestBaselineOnPrefixAtModerateEps) {
  // The paper's Figure 1 finding: Hierarchical is the best fixed baseline on
  // Prefix (excluding the Optimized mechanism) at moderate ε.
  const int n = 32;
  const double eps = 1.0;
  const auto w = CreateWorkload("Prefix", n);
  const WorkloadStats stats = WorkloadStats::From(*w);
  const double hier = CreateBaseline("Hierarchical", n, eps)
                          .value()
                          ->Analyze(stats)
                          .SampleComplexity(0.01);
  for (const char* other : {"Randomized Response", "Hadamard"}) {
    const double sc =
        CreateBaseline(other, n, eps).value()->Analyze(stats).SampleComplexity(0.01);
    EXPECT_LT(hier, sc) << other;
  }
}

TEST(FourierTest, RowCountIsTwiceCoefficients) {
  const Matrix q = FourierMechanism::BuildStrategy(16, 1.0, -1);
  EXPECT_EQ(q.rows(), 32);
  const Matrix q2 = FourierMechanism::BuildStrategy(16, 1.0, 1);  // 1 + 4 coeffs.
  EXPECT_EQ(q2.rows(), 10);
}

TEST(FourierTest, RequiresPowerOfTwo) {
  EXPECT_DEATH(FourierMechanism::BuildStrategy(12, 1.0, -1), "power-of-two");
}

TEST(RegistryTest, CreatesAllBaselines) {
  for (const auto& name : StandardBaselineNames()) {
    const auto mech = CreateBaseline(name, 16, 1.0);
    ASSERT_TRUE(mech.ok()) << name << ": " << mech.status().ToString();
    EXPECT_EQ(mech.value()->Name(), name);
    EXPECT_EQ(mech.value()->domain_size(), 16);
    EXPECT_DOUBLE_EQ(mech.value()->epsilon(), 1.0);
  }
}

TEST(RegistryTest, FourierInvalidArgumentOnNonPowerOfTwo) {
  const auto mech = CreateBaseline("Fourier", 12, 1.0);
  ASSERT_FALSE(mech.ok());
  EXPECT_EQ(mech.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mech.status().message().find("power-of-two"), std::string::npos);
}

TEST(RegistryTest, UnknownBaselineIsNotFound) {
  const auto mech = CreateBaseline("Randomised Response", 16, 1.0);  // Typo.
  ASSERT_FALSE(mech.ok());
  EXPECT_EQ(mech.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, GlobalListsTheSevenCompetitors) {
  // Six baselines in Figure 1 legend order, then the paper's mechanism.
  std::vector<std::string> expected = StandardBaselineNames();
  expected.push_back("Optimized");
  const std::vector<std::string> names =
      MechanismRegistry::Global().ListMechanisms();
  ASSERT_GE(names.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(names[i], expected[i]);
    EXPECT_TRUE(MechanismRegistry::Global().Contains(expected[i]));
  }
}

TEST(RegistryTest, UnknownNameErrorListsWhatIsRegistered) {
  WorkloadStats stats;
  stats.n = 8;
  const auto mech =
      MechanismRegistry::Global().Create("No Such Mechanism", stats, 1.0);
  ASSERT_FALSE(mech.ok());
  EXPECT_EQ(mech.status().code(), StatusCode::kNotFound);
  EXPECT_NE(mech.status().message().find("Hadamard"), std::string::npos);
}

TEST(RegistryTest, OptimizedRequiresFullWorkloadStats) {
  WorkloadStats shape_only;
  shape_only.n = 8;
  const auto mech =
      MechanismRegistry::Global().Create("Optimized", shape_only, 1.0);
  ASSERT_FALSE(mech.ok());
  EXPECT_EQ(mech.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RegistryTest, CustomRegistrationsCreateAndListInOrder) {
  MechanismRegistry registry;
  ASSERT_TRUE(registry
                  .Register("RR Clone",
                            [](const WorkloadStats& w, double eps,
                               const MechanismOptions&)
                                -> StatusOr<std::unique_ptr<Mechanism>> {
                              return std::unique_ptr<Mechanism>(
                                  std::make_unique<RandomizedResponseMechanism>(
                                      w.n, eps));
                            })
                  .ok());
  EXPECT_EQ(registry.Register("RR Clone", nullptr).code(),
            StatusCode::kInvalidArgument);  // Null factory.
  EXPECT_EQ(registry
                .Register("RR Clone",
                          [](const WorkloadStats&, double,
                             const MechanismOptions&)
                              -> StatusOr<std::unique_ptr<Mechanism>> {
                            return Status::Internal("unreachable");
                          })
                .code(),
            StatusCode::kInvalidArgument);  // Duplicate name.
  EXPECT_EQ(registry.ListMechanisms(), std::vector<std::string>{"RR Clone"});

  WorkloadStats stats;
  stats.n = 6;
  const auto mech = registry.Create("RR Clone", stats, 1.0);
  ASSERT_TRUE(mech.ok()) << mech.status().ToString();
  EXPECT_EQ(mech.value()->Name(), "Randomized Response");
}

TEST(RegistryTest, AutoSelectPicksTheMinimumVarianceEntry) {
  // A two-entry registry where the entries are strictly ordered on the
  // Histogram workload: RR (tight) vs Hierarchical (pays for the tree).
  MechanismRegistry registry;
  auto rr_factory = [](const WorkloadStats& w, double eps,
                       const MechanismOptions&)
      -> StatusOr<std::unique_ptr<Mechanism>> {
    return std::unique_ptr<Mechanism>(
        std::make_unique<RandomizedResponseMechanism>(w.n, eps));
  };
  auto hier_factory = [](const WorkloadStats& w, double eps,
                         const MechanismOptions&)
      -> StatusOr<std::unique_ptr<Mechanism>> {
    return std::unique_ptr<Mechanism>(
        std::make_unique<HierarchicalMechanism>(w.n, eps));
  };
  ASSERT_TRUE(registry.Register("Hier", hier_factory).ok());
  ASSERT_TRUE(registry.Register("RR", rr_factory).ok());

  const auto histogram = CreateWorkload("Histogram", 16);
  const WorkloadStats stats = WorkloadStats::From(*histogram);
  const auto selected = registry.AutoSelectMechanism(stats, 1.0);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected.value().name, "RR");

  const auto prefix = CreateWorkload("Prefix", 16);
  const auto selected_prefix =
      registry.AutoSelectMechanism(WorkloadStats::From(*prefix), 1.0);
  ASSERT_TRUE(selected_prefix.ok());
  EXPECT_EQ(selected_prefix.value().name, "Hier");
}

TEST(RegistryTest, AutoSelectSkipsMechanismsThatCannotRun) {
  // n = 12: Fourier cannot construct; AutoSelectMechanism must not fail, just
  // skip.
  const auto histogram = CreateWorkload("Histogram", 12);
  const WorkloadStats stats = WorkloadStats::From(*histogram);
  MechanismOptions options;
  options.optimizer.iterations = 40;
  options.optimizer.step_search_iterations = 10;
  options.optimizer.seed = 3;
  const auto selected =
      MechanismRegistry::Global().AutoSelectMechanism(stats, 1.0, options);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_TRUE(MechanismRegistry::Global().Contains(selected.value().name));
}

TEST(RegistryTest, StatsAMechanismCannotUseAreStatusesNotAborts) {
  // Every registered mechanism, built at n = 8, meets stats of another
  // domain size and shape-only stats (n without a Gram, as CreateBaseline
  // builds them): analysis and deployment return a Status, never abort.
  const WorkloadStats built_for =
      WorkloadStats::From(*CreateWorkload("Histogram", 8));
  const WorkloadStats wider =
      WorkloadStats::From(*CreateWorkload("Histogram", 16));
  const WorkloadStats shape_only = [] {
    WorkloadStats stats;
    stats.n = 8;
    return stats;
  }();
  MechanismOptions options;
  options.optimizer.iterations = 40;
  options.optimizer.step_search_iterations = 10;
  options.optimizer.seed = 3;
  for (const std::string& name :
       MechanismRegistry::Global().ListMechanisms()) {
    SCOPED_TRACE(name);
    const StatusOr<std::unique_ptr<Mechanism>> created =
        MechanismRegistry::Global().Create(name, built_for, 1.0, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    const Mechanism& mechanism = *created.value();
    // One precondition for every family: another domain size is
    // kInvalidArgument, stats without the Gram are kFailedPrecondition.
    for (const auto& [stats, code] :
         {std::pair{&wider, StatusCode::kInvalidArgument},
          std::pair{&shape_only, StatusCode::kFailedPrecondition}}) {
      EXPECT_EQ(mechanism.TryAnalyze(*stats).status().code(), code)
          << "n = " << stats->n;
      EXPECT_EQ(mechanism.Deploy(Shared(*stats)).status().code(), code)
          << "n = " << stats->n;
    }
  }

  // At n = 1 no Matrix Mechanism candidate has a positive sensitivity.
  const WorkloadStats single =
      WorkloadStats::From(*CreateWorkload("Histogram", 1));
  for (const char* name : {"Matrix Mechanism (L1)", "Matrix Mechanism (L2)"}) {
    EXPECT_EQ(CreateBaseline(name, 1, 1.0).value()->TryAnalyze(single)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition)
        << name;
  }

  const SubsetSelectionMechanism subset(8, 1.0);
  ASSERT_TRUE(subset.TryAnalyze(built_for).ok());
  EXPECT_EQ(subset.TryAnalyze(wider).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(subset.TryAnalyze(shape_only).status().code(),
            StatusCode::kFailedPrecondition);
  const SubsetSelectionMechanism too_many_subsets(40, 1.0);  // C(40, 11).
  EXPECT_EQ(too_many_subsets
                .TryAnalyze(WorkloadStats::From(*CreateWorkload("Histogram", 40)))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // No entry can analyze shape-only stats, so AutoSelectMechanism finds none.
  const auto selected = MechanismRegistry::Global().AutoSelectMechanism(
      shape_only, 1.0, options);
  EXPECT_EQ(selected.status().code(), StatusCode::kNotFound);
}

TEST(ErrorProfileTest, SummariesConsistent) {
  ErrorProfile p;
  p.phi = {1.0, 3.0, 2.0};
  p.num_queries = 10;
  EXPECT_EQ(p.WorstUnitVariance(), 3.0);
  EXPECT_EQ(p.AverageUnitVariance(), 2.0);
  EXPECT_EQ(p.DataVariance({1, 1, 1}), 6.0);
  EXPECT_NEAR(p.SampleComplexity(0.01), 3.0 / 0.1, 1e-12);
  EXPECT_NEAR(p.SampleComplexityOnData({0, 2, 0}, 0.01), 3.0 / 0.1, 1e-12);
}

TEST(AllBaselinesTest, ProfilesArePositiveOnAllWorkloads) {
  const int n = 16;
  const double eps = 1.0;
  for (const auto& wname : StandardWorkloadNames()) {
    const auto w = CreateWorkload(wname, n);
    const WorkloadStats stats = WorkloadStats::From(*w);
    for (const auto& mname : StandardBaselineNames()) {
      const auto mech = CreateBaseline(mname, n, eps);
      ASSERT_TRUE(mech.ok()) << mech.status().ToString();
      const ErrorProfile profile = mech.value()->Analyze(stats);
      EXPECT_GT(profile.WorstUnitVariance(), 0.0) << mname << " on " << wname;
      EXPECT_TRUE(std::isfinite(profile.SampleComplexity(0.01)));
    }
  }
}

TEST(OptimizedMechanismTest, NeverWorseThanBaselinesOnTargetWorkload) {
  // The paper's headline claim, verified at a small scale.
  const int n = 8;
  const double eps = 1.0;
  OptimizerConfig config;
  config.iterations = 300;
  config.step_search_iterations = 30;
  config.seed = 11;
  for (const char* wname : {"Histogram", "Prefix"}) {
    const auto w = CreateWorkload(wname, n);
    const WorkloadStats stats = WorkloadStats::From(*w);
    const OptimizedMechanism optimized(stats, eps, config);
    const double opt_sc = optimized.Analyze(stats).SampleComplexity(0.01);
    for (const auto& mname : StandardBaselineNames()) {
      const auto mech = CreateBaseline(mname, n, eps);
      ASSERT_TRUE(mech.ok()) << mech.status().ToString();
      const double sc = mech.value()->Analyze(stats).SampleComplexity(0.01);
      EXPECT_LE(opt_sc, sc * 1.05) << mname << " on " << wname;
    }
  }
}

TEST(StrategyMechanismTest, StatsOfAnotherDomainOrShapeAreStatuses) {
  // One factor needs a dense Gram over its own domain; another domain size
  // is kInvalidArgument, as for every mechanism.
  const RandomizedResponseMechanism dense(4, 1.0);
  const WorkloadStats wider = WorkloadStats::From(*CreateWorkload("Prefix", 8));
  EXPECT_EQ(dense.TryAnalyze(wider).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dense.Deploy(Shared(wider)).status().code(),
            StatusCode::kInvalidArgument);

  // k > 1 factors need Kronecker stats with matching factors.
  const FixedStrategyMechanism mechanism(
      FactoredStrategy{{RandomizedResponseMechanism::BuildStrategy(4, 0.5),
                        RandomizedResponseMechanism::BuildStrategy(2, 0.5)},
                       {0.5, 0.5}},
      8, 1.0);
  const WorkloadStats matching =
      WorkloadStats::From(*ParseWorkload("Prefix(4)xHistogram(2)"));
  ASSERT_TRUE(mechanism.TryAnalyze(matching).ok());
  ASSERT_TRUE(mechanism.Deploy(Shared(matching)).ok());
  const WorkloadStats wider_factors =
      WorkloadStats::From(*ParseWorkload("Prefix(4)xHistogram(4)"));
  EXPECT_EQ(mechanism.TryAnalyze(wider_factors).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mechanism.Deploy(Shared(wider_factors)).status().code(),
            StatusCode::kInvalidArgument);

  for (const char* spec : {
           "Prefix(8)",                             // Flat stats.
           "Prefix(2)xHistogram(2)xHistogram(2)",  // Factor count.
           "Prefix(2)xHistogram(4)",               // Factor domains.
       }) {
    const WorkloadStats stats = WorkloadStats::From(*ParseWorkload(spec));
    ASSERT_EQ(stats.n, 8) << spec;
    EXPECT_EQ(mechanism.TryAnalyze(stats).status().code(),
              StatusCode::kFailedPrecondition)
        << spec;
    EXPECT_EQ(mechanism.Deploy(Shared(stats)).status().code(),
              StatusCode::kFailedPrecondition)
        << spec;
  }
}

TEST(StrategyMechanismTest, DenseStrategiesMatchTheOneFactorAnalysisExactly) {
  // A dense strategy is the one-factor case of the product-law analysis;
  // its folds (1.0·L, max(0, r), max(0, t − psi)) must leave
  // FactorizationAnalysis's phi and B untouched, bit for bit.
  const WorkloadStats stats =
      WorkloadStats::From(*CreateWorkload("Prefix", 16));
  MechanismOptions options;
  options.optimizer.iterations = 40;
  options.optimizer.step_search_iterations = 10;
  options.optimizer.seed = 5;
  int checked = 0;
  for (const std::string& name :
       MechanismRegistry::Global().ListMechanisms()) {
    SCOPED_TRACE(name);
    const StatusOr<std::unique_ptr<Mechanism>> created =
        MechanismRegistry::Global().Create(name, stats, 1.0, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    const auto* mechanism =
        dynamic_cast<const StrategyMechanism*>(created.value().get());
    if (mechanism == nullptr) continue;  // Matrix Mechanism, RAPPOR, OUE.
    ASSERT_EQ(mechanism->strategy().factors.size(), 1u);
    const FactorizationAnalysis fa(mechanism->strategy().factors[0], stats);

    EXPECT_EQ(mechanism->Analyze(stats).phi, fa.PerUserVariance());
    const StatusOr<Deployment> deployment = mechanism->Deploy(Shared(stats));
    ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
    EXPECT_EQ(deployment.value().profile.phi, fa.PerUserVariance());
    ASSERT_EQ(deployment.value().decoder->b_factors().size(), 1u);
    const Matrix& b = deployment.value().decoder->b_factors()[0];
    const Matrix& b_dense = fa.ReconstructionB();
    ASSERT_EQ(b.rows(), b_dense.rows());
    ASSERT_EQ(b.cols(), b_dense.cols());
    EXPECT_EQ(Vector(b.data(), b.data() + b.size()),
              Vector(b_dense.data(), b_dense.data() + b_dense.size()));
    ++checked;
  }
  // Randomized Response, Hadamard, Hierarchical, Fourier and Optimized.
  EXPECT_GE(checked, 5);
}

}  // namespace
}  // namespace wfm

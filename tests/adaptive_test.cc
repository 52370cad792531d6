// Tests for src/adaptive: the noise-aware drift detector (including its
// statistical false-positive conformance under a driftless stream and its
// factor-wise variance on Kronecker decoders), the
// budget planner's epsilon arithmetic and gauges, strategy rollover
// bit-identity guarantees, and the end-to-end controller loop.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"

#include "adaptive/adaptive_controller.h"
#include "adaptive/budget_planner.h"
#include "adaptive/drift_detector.h"
#include "api/plan.h"
#include "core/factorization.h"
#include "estimation/estimator.h"
#include "ldp/local_randomizer.h"
#include "linalg/kron.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "obs/metrics.h"
#include "workload/kronecker.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

// One simulated epoch: `count` users drawn from `distribution` (cumulative
// inverse sampling), each privatized through the real LocalRandomizer, the
// responses aggregated into a histogram — exactly what a CollectionSession
// seals, minus the server.
EpochSnapshot SimulateEpoch(const LocalRandomizer& randomizer,
                            const Vector& distribution, int count, Rng& rng,
                            int epoch_id) {
  EpochSnapshot epoch;
  epoch.epoch_id = epoch_id;
  epoch.count = count;
  epoch.histogram.assign(randomizer.num_outputs(), 0.0);
  const int n = static_cast<int>(distribution.size());
  for (int i = 0; i < count; ++i) {
    const double u = rng.Uniform(0.0, 1.0);
    double cumulative = 0.0;
    int type = n - 1;
    for (int t = 0; t < n; ++t) {
      cumulative += distribution[t];
      if (u < cumulative) {
        type = t;
        break;
      }
    }
    epoch.histogram[randomizer.Respond(type, rng)] += 1.0;
  }
  return epoch;
}

Vector UniformDistribution(int n) { return Vector(n, 1.0 / n); }

// A distribution with `fraction` of the total mass moved onto type 0 and
// the rest uniform — the "incident" shape the drift suite uses.
Vector ShiftedDistribution(int n, double fraction) {
  Vector d(n, (1.0 - fraction) / n);
  d[0] += fraction;
  return d;
}

class DriftDetectorTest : public ::testing::Test {
 protected:
  static constexpr int kN = 8;
  static constexpr double kEps = 1.0;

  DriftDetectorTest()
      : q_(RandomizedResponseMechanism::BuildStrategy(kN, kEps)),
        workload_(std::make_shared<const PrefixWorkload>(kN)),
        stats_(std::make_shared<const WorkloadStats>(
            WorkloadStats::From(*workload_))),
        analysis_(q_, *stats_),
        decoder_({analysis_.ReconstructionB()}, stats_),
        randomizer_(q_) {}

  Matrix q_;
  std::shared_ptr<const PrefixWorkload> workload_;
  std::shared_ptr<const WorkloadStats> stats_;
  FactorizationAnalysis analysis_;
  ReportDecoder decoder_;
  LocalRandomizer randomizer_;
};

// The statistical conformance suite: many epoch pairs drawn from the same
// population must essentially never clear the drift threshold, because the
// detector scales distance by the decoder's analytic noise. Pinned seed, so
// this is deterministic in CI (and runs under TSan with the rest of the
// suite).
TEST_F(DriftDetectorTest, FalsePositiveRateUnderDriftlessStreamIsZero) {
  const DriftDetector detector;
  const Vector distribution = UniformDistribution(kN);
  Rng rng(1234);
  const int kTrials = 120;
  const int kReports = 4000;
  int above_three_sigma = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const EpochSnapshot a =
        SimulateEpoch(randomizer_, distribution, kReports, rng, 2 * trial);
    const EpochSnapshot b = SimulateEpoch(randomizer_, distribution, kReports,
                                          rng, 2 * trial + 1);
    const StatusOr<DriftScore> score = detector.Score(decoder_, a, b);
    ASSERT_TRUE(score.ok()) << score.status().message();
    EXPECT_FALSE(score.value().drifted)
        << "trial " << trial << " flagged drift at " << score.value().sigmas
        << " sigmas on a driftless stream";
    if (score.value().sigmas > 3.0) ++above_three_sigma;
  }
  // The sigma scale must be honest, not merely conservative: mild
  // exceedances of 3 sigma should stay rare if the analytic variance is
  // right (and would be common if it undercounted the noise).
  EXPECT_LE(above_three_sigma, kTrials / 10);
}

TEST_F(DriftDetectorTest, FlagsAGenuineShiftManySigmasOut) {
  const DriftDetector detector;
  Rng rng(99);
  const EpochSnapshot before =
      SimulateEpoch(randomizer_, UniformDistribution(kN), 40000, rng, 0);
  const EpochSnapshot after = SimulateEpoch(
      randomizer_, ShiftedDistribution(kN, 0.3), 40000, rng, 1);
  const StatusOr<DriftScore> score = detector.Score(decoder_, before, after);
  ASSERT_TRUE(score.ok());
  EXPECT_TRUE(score.value().drifted);
  EXPECT_GT(score.value().sigmas, 6.0);
  EXPECT_GT(score.value().distance_sq, score.value().expected_noise);
}

TEST_F(DriftDetectorTest, MinReportsGateSuppressesTinyEpochs) {
  DriftConfig config;
  config.min_reports = 1000;
  const DriftDetector detector(config);
  Rng rng(5);
  // 200 reports of a blatant shift: whatever the score says, tiny epochs
  // must not trigger a roll.
  const EpochSnapshot before =
      SimulateEpoch(randomizer_, UniformDistribution(kN), 200, rng, 0);
  const EpochSnapshot after =
      SimulateEpoch(randomizer_, ShiftedDistribution(kN, 0.5), 200, rng, 1);
  const StatusOr<DriftScore> score = detector.Score(decoder_, before, after);
  ASSERT_TRUE(score.ok());
  EXPECT_FALSE(score.value().drifted);
}

TEST_F(DriftDetectorTest, RejectsEmptyEpochsAndWrongDimensions) {
  const DriftDetector detector;
  Rng rng(7);
  const EpochSnapshot good =
      SimulateEpoch(randomizer_, UniformDistribution(kN), 100, rng, 0);
  EpochSnapshot empty = good;
  empty.count = 0;
  EXPECT_EQ(detector.Score(decoder_, good, empty).status().code(),
            StatusCode::kInvalidArgument);
  EpochSnapshot narrow = good;
  narrow.histogram.resize(kN - 1);
  EXPECT_EQ(detector.Score(decoder_, narrow, good).status().code(),
            StatusCode::kInvalidArgument);
}

// A Kronecker decoder carries no composed B, so its plug-in variance is
// computed factor-wise: Σ_o B_io² π_o = ((⊗ (B_i ∘ B_i)) π)_i. It must match
// the same decoder built from the explicit KroneckerProduct, and the drift
// detector must score factored deployments like dense ones.
TEST(DriftDetectorKroneckerTest, FactoredVarianceMatchesComposedDecoder) {
  const auto stats = std::make_shared<const WorkloadStats>(
      WorkloadStats::From(*ParseWorkload("Prefix(3)xPrefix(4)")));
  Rng rng(29);
  Matrix b0(3, 5);
  Matrix b1(4, 2);
  for (Matrix* b : {&b0, &b1}) {
    for (int r = 0; r < b->rows(); ++r) {
      for (int c = 0; c < b->cols(); ++c) (*b)(r, c) = rng.Uniform(-2.0, 2.0);
    }
  }
  const ReportDecoder factored({b0, b1}, stats);
  const ReportDecoder composed({KroneckerProduct(b0, b1)}, stats);
  ASSERT_EQ(factored.m(), composed.m());

  auto make_epoch = [&](int epoch_id) {
    EpochSnapshot epoch;
    epoch.epoch_id = epoch_id;
    epoch.histogram.assign(factored.m(), 0.0);
    for (double& h : epoch.histogram) {
      h = static_cast<double>(rng.UniformInt(400));
      epoch.count += static_cast<std::int64_t>(h);
    }
    return epoch;
  };
  const EpochSnapshot baseline = make_epoch(0);
  const EpochSnapshot current = make_epoch(1);

  const StatusOr<Vector> got =
      factored.EstimateVariance(current.histogram, current.count);
  const StatusOr<Vector> want =
      composed.EstimateVariance(current.histogram, current.count);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(want.ok()) << want.status().message();
  ASSERT_EQ(got.value().size(), want.value().size());
  for (std::size_t i = 0; i < want.value().size(); ++i) {
    const double tol = 1e-12 * std::abs(want.value()[i]);
    EXPECT_NEAR(got.value()[i], want.value()[i], tol) << "coordinate " << i;
  }

  const DriftDetector detector;
  const StatusOr<DriftScore> score =
      detector.Score(factored, baseline, current);
  ASSERT_TRUE(score.ok()) << score.status().message();
  const StatusOr<DriftScore> reference =
      detector.Score(composed, baseline, current);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  EXPECT_NEAR(score.value().sigmas, reference.value().sigmas,
              1e-9 * std::max(1.0, std::abs(reference.value().sigmas)));
}

TEST(BudgetPlannerTest, SplitsSpendsAndExposesGauges) {
  BudgetPlanner planner(1.0, 4);
  EXPECT_DOUBLE_EQ(planner.round_epsilon(), 0.25);
  EXPECT_EQ(planner.rounds_planned(), 4);
  EXPECT_EQ(planner.rounds_spent(), 0);
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetGauge("wfm_budget_epsilon_allocated").value(),
                   1.0);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(planner.CanSpendRound());
    EXPECT_DOUBLE_EQ(planner.SpendRound(), 0.25);
    // The /metrics surface must track the accountant exactly: the
    // service-smoke CI job asserts allocated = spent + remaining from a
    // scrape of these same gauges.
    EXPECT_DOUBLE_EQ(registry.GetGauge("wfm_budget_epsilon_spent").value(),
                     planner.spent());
    EXPECT_DOUBLE_EQ(registry.GetGauge("wfm_budget_epsilon_remaining").value(),
                     planner.remaining());
  }
  EXPECT_FALSE(planner.CanSpendRound());
  EXPECT_EQ(planner.rounds_spent(), 4);
  EXPECT_NEAR(planner.spent() + planner.remaining(), planner.total_epsilon(),
              1e-12);
}

// ---- rollover ---------------------------------------------------------------

constexpr int kRollN = 8;
constexpr double kRollEps = 1.0;

StatusOr<Plan> MakeFixedStrategyPlan() {
  auto workload = std::make_shared<const PrefixWorkload>(kRollN);
  Matrix q = RandomizedResponseMechanism::BuildStrategy(kRollN, kRollEps);
  return Plan::For(workload)
      .Epsilon(kRollEps)
      .Strategy({{std::move(q)}, {kRollEps}})
      .Build();
}

void IngestEpoch(PlanSession& session, const LocalRandomizer& randomizer,
                 const Vector& distribution, int count, Rng& rng) {
  const int n = static_cast<int>(distribution.size());
  for (int i = 0; i < count; ++i) {
    const double u = rng.Uniform(0.0, 1.0);
    double cumulative = 0.0;
    int type = n - 1;
    for (int t = 0; t < n; ++t) {
      cumulative += distribution[t];
      if (u < cumulative) {
        type = t;
        break;
      }
    }
    Report report;
    report.index = randomizer.Respond(type, rng);
    ASSERT_TRUE(session.Accept(0, report).ok());
  }
}

// The degenerate-path guarantee: with no roll in the window, the
// version-aware grouped decode IS the plain summed decode, bit for bit.
TEST(RolloverTest, WindowDecodeBitIdenticalToSingleDecodeWithoutRoll) {
  StatusOr<Plan> plan = MakeFixedStrategyPlan();
  ASSERT_TRUE(plan.ok());
  std::unique_ptr<PlanSession> session = plan.value().StartSession(2);
  const LocalRandomizer randomizer(plan.value().DeployedStrategy()->factors[0]);
  Rng rng(42);
  for (int epoch = 0; epoch < 3; ++epoch) {
    IngestEpoch(*session, randomizer, UniformDistribution(kRollN), 3000, rng);
    session->Seal();
  }
  const StatusOr<WorkloadEstimate> windowed =
      session->EstimateWindow(3, EstimatorKind::kUnbiased);
  ASSERT_TRUE(windowed.ok());

  // Reference: one decode of the summed window, no grouping machinery.
  const EpochSnapshot total = session->session().WindowTotal(3);
  const WorkloadEstimate reference = EstimateWorkloadAnswers(
      *session->session().DecoderForVersion(0), plan.value().workload(),
      total.histogram, total.count, EstimatorKind::kUnbiased);
  ASSERT_EQ(windowed.value().data_vector.size(),
            reference.data_vector.size());
  for (std::size_t i = 0; i < reference.data_vector.size(); ++i) {
    EXPECT_EQ(windowed.value().data_vector[i], reference.data_vector[i])
        << "coordinate " << i << " not bit-identical";
  }
  for (std::size_t i = 0; i < reference.query_answers.size(); ++i) {
    EXPECT_EQ(windowed.value().query_answers[i], reference.query_answers[i]);
  }
}

TEST(RolloverTest, EachEpochDecodesUnderItsOwnStrategy) {
  StatusOr<Plan> plan = MakeFixedStrategyPlan();
  ASSERT_TRUE(plan.ok());
  std::unique_ptr<PlanSession> session = plan.value().StartSession(2);
  const Matrix q1 = plan.value().DeployedStrategy()->factors[0];
  // A second strategy at half the budget: strictly more private, so it
  // still validates at kRollEps, and its decode factor differs from q1's —
  // a decode under the wrong version would be visibly biased.
  const Matrix q2 =
      RandomizedResponseMechanism::BuildStrategy(kRollN, kRollEps / 2);
  const LocalRandomizer randomize_v0(q1);
  const LocalRandomizer randomize_v1(q2);
  Rng rng(7);
  const Vector distribution = UniformDistribution(kRollN);

  // Epoch 0 under v0.
  IngestEpoch(*session, randomize_v0, distribution, 4000, rng);
  EpochSnapshot epoch0 = session->Seal();
  EXPECT_EQ(epoch0.strategy_version, 0);

  // Stage the roll. It must not take effect mid-epoch: the session still
  // reports version 0 and epoch 1 is still encoded and tagged v0.
  const StatusOr<int> staged = session->RollStrategy({{q2}, {kRollEps}});
  ASSERT_TRUE(staged.ok()) << staged.status().message();
  EXPECT_EQ(staged.value(), 1);
  EXPECT_EQ(session->session().strategy_version(), 0);
  IngestEpoch(*session, randomize_v0, distribution, 4000, rng);
  EpochSnapshot epoch1 = session->Seal();
  EXPECT_EQ(epoch1.strategy_version, 0);
  EXPECT_EQ(session->session().strategy_version(), 1);

  // Epoch 2's reports are encoded under the rolled strategy.
  IngestEpoch(*session, randomize_v1, distribution, 4000, rng);
  EpochSnapshot epoch2 = session->Seal();
  EXPECT_EQ(epoch2.strategy_version, 1);

  // The windowed estimate must decode {epoch0 + epoch1} with v0's decoder
  // and epoch2 with v1's, then add — reproduce that by hand, bitwise.
  const StatusOr<WorkloadEstimate> windowed =
      session->EstimateWindow(3, EstimatorKind::kUnbiased);
  ASSERT_TRUE(windowed.ok()) << windowed.status().message();
  EpochSnapshot v0_total = epoch0;
  for (std::size_t o = 0; o < v0_total.histogram.size(); ++o) {
    v0_total.histogram[o] += epoch1.histogram[o];
  }
  v0_total.count += epoch1.count;
  const WorkloadEstimate part0 = EstimateWorkloadAnswers(
      *session->session().DecoderForVersion(0), plan.value().workload(),
      v0_total.histogram, v0_total.count, EstimatorKind::kUnbiased);
  const WorkloadEstimate part1 = EstimateWorkloadAnswers(
      *session->session().DecoderForVersion(1), plan.value().workload(),
      epoch2.histogram, epoch2.count, EstimatorKind::kUnbiased);
  for (std::size_t i = 0; i < part0.data_vector.size(); ++i) {
    EXPECT_EQ(windowed.value().data_vector[i],
              part0.data_vector[i] + part1.data_vector[i]);
  }

  // And the estimate is still a sane unbiased decode: total mass near the
  // true report count.
  double mass = 0.0;
  for (const double v : windowed.value().data_vector) mass += v;
  EXPECT_NEAR(mass, 12000.0, 12000.0 * 0.25);

  // CurrentStrategy now serves the rolled matrix under version 1.
  const StatusOr<StrategySnapshot> current = session->CurrentStrategy();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value().version, 1);
  EXPECT_EQ(current.value().strategy.factors[0].rows(), q2.rows());
  EXPECT_EQ(current.value().strategy.factors[0](0, 0), q2(0, 0));
}

TEST(RolloverTest, RollValidationRejectsBadStrategies) {
  StatusOr<Plan> plan = MakeFixedStrategyPlan();
  ASSERT_TRUE(plan.ok());
  std::unique_ptr<PlanSession> session = plan.value().StartSession(1);
  // Wrong shape.
  const Matrix wrong_shape = RandomizedResponseMechanism::BuildStrategy(4, 1.0);
  EXPECT_EQ(session->RollStrategy({{wrong_shape}, {kRollEps}}).status().code(),
            StatusCode::kInvalidArgument);
  // Right shape, too loose for the budget: a strategy built for 4 eps.
  const Matrix loose = RandomizedResponseMechanism::BuildStrategy(kRollN, 4.0);
  EXPECT_EQ(session->RollStrategy({{loose}, {kRollEps}}).status().code(),
            StatusCode::kInvalidArgument);
  // Non-strategy deployments cannot roll or serve a strategy.
  StatusOr<Plan> rappor = Plan::For(std::make_shared<const PrefixWorkload>(8))
                              .Epsilon(1.0)
                              .Mechanism("RAPPOR")
                              .Build();
  ASSERT_TRUE(rappor.ok());
  std::unique_ptr<PlanSession> rappor_session = rappor.value().StartSession(1);
  EXPECT_EQ(rappor_session->CurrentStrategy().status().code(),
            StatusCode::kFailedPrecondition);
  const Matrix rr = RandomizedResponseMechanism::BuildStrategy(8, 1.0);
  EXPECT_EQ(rappor_session->RollStrategy({{rr}, {1.0}}).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---- the controller loop ----------------------------------------------------

TEST(AdaptiveControllerTest, SessionsItCannotReoptimizeAreAStatus) {
  // Re-optimization is dense PGD on the workload Gram, so a factored
  // deployment (which still serves and rolls) and a deployment with no
  // strategy at all are refused per call, not by an abort at construction.
  StatusOr<Plan> factored =
      Plan::For(ParseWorkload("Prefix(4)xHistogram(2)"))
          .Epsilon(1.0)
          .Strategy({{RandomizedResponseMechanism::BuildStrategy(4, 0.5),
                      RandomizedResponseMechanism::BuildStrategy(2, 0.5)},
                     {0.5, 0.5}})
          .Build();
  ASSERT_TRUE(factored.ok()) << factored.status().ToString();
  StatusOr<Plan> rappor = Plan::For(std::make_shared<const PrefixWorkload>(8))
                              .Epsilon(1.0)
                              .Mechanism("RAPPOR")
                              .Build();
  ASSERT_TRUE(rappor.ok());
  for (const Plan* plan : {&factored.value(), &rappor.value()}) {
    std::unique_ptr<PlanSession> session = plan->StartSession(1);
    AdaptiveController controller(session.get(), nullptr);
    EXPECT_EQ(controller.OnEpochSealed().status().code(),
              StatusCode::kFailedPrecondition)
        << plan->mechanism_name();
    session->Seal();
    EXPECT_EQ(controller.OnEpochSealed().status().code(),
              StatusCode::kFailedPrecondition)
        << plan->mechanism_name();
    EXPECT_EQ(controller.reoptimizations(), 0);
  }
}

TEST(AdaptiveControllerTest, RollsOnDriftAndOnlyOnDrift) {
  StatusOr<Plan> plan = MakeFixedStrategyPlan();
  ASSERT_TRUE(plan.ok());
  std::unique_ptr<PlanSession> session = plan.value().StartSession(2);
  BudgetPlanner planner(2.0, 2);
  planner.SpendRound();  // The initial strategy is round 1.

  AdaptiveConfig config;
  config.optimizer.iterations = 60;
  config.optimizer.num_restarts = 0;  // Warm start from the incumbent only.
  config.optimizer.seed = 11;
  AdaptiveController controller(session.get(), &planner, config);

  const LocalRandomizer randomizer(plan.value().DeployedStrategy()->factors[0]);
  Rng rng(3);
  const int kReports = 20000;

  // Two epochs of the same population: reference, then a driftless score.
  IngestEpoch(*session, randomizer, UniformDistribution(kRollN), kReports,
              rng);
  session->Seal();
  StatusOr<EpochDecision> d0 = controller.OnEpochSealed();
  ASSERT_TRUE(d0.ok());
  EXPECT_FALSE(d0.value().scored);  // Became the reference.

  IngestEpoch(*session, randomizer, UniformDistribution(kRollN), kReports,
              rng);
  session->Seal();
  StatusOr<EpochDecision> d1 = controller.OnEpochSealed();
  ASSERT_TRUE(d1.ok());
  EXPECT_TRUE(d1.value().scored);
  EXPECT_FALSE(d1.value().drift.drifted);
  EXPECT_FALSE(d1.value().reoptimized);

  // The incident: a third of the population collapses onto type 0.
  IngestEpoch(*session, randomizer, ShiftedDistribution(kRollN, 0.35),
              kReports, rng);
  session->Seal();
  StatusOr<EpochDecision> d2 = controller.OnEpochSealed();
  ASSERT_TRUE(d2.ok());
  EXPECT_TRUE(d2.value().drift.drifted);
  EXPECT_TRUE(d2.value().reoptimized);
  ASSERT_TRUE(d2.value().rolled);
  EXPECT_EQ(d2.value().staged_version, 1);
  // The acceptance bar: the rolled strategy is measurably better on the
  // estimated population than the incumbent, by exact Theorem 3.4 variance.
  EXPECT_LT(d2.value().candidate_variance, d2.value().incumbent_variance);
  EXPECT_EQ(controller.rolls(), 1);
  EXPECT_EQ(planner.rounds_spent(), 2);

  // Budget is now exhausted: further drift is reported but not acted on.
  IngestEpoch(*session, randomizer, UniformDistribution(kRollN), kReports,
              rng);
  session->Seal();  // Activates the staged roll; this epoch is the last v0.
  StatusOr<EpochDecision> d3 = controller.OnEpochSealed();
  ASSERT_TRUE(d3.ok());
  EXPECT_FALSE(d3.value().rolled);
  EXPECT_EQ(session->session().strategy_version(), 1);
}

}  // namespace
}  // namespace wfm

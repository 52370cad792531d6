// Tests for the api/ Plan front door.
//
// The two acceptance properties pinned down here:
//   1. Parity — the Plan path (Build -> Client -> Server/StartSession ->
//      Estimate) is *bit-identical* to the pre-redesign manual wiring
//      (OptimizedMechanism + LocalRandomizer + ResponseAggregator +
//      EstimateWorkloadAnswers) for a pinned RNG seed. The fluent API is a
//      repackaging, not a reimplementation.
//   2. Universality — every mechanism in the global registry (six Section
//      6.1 baselines + Optimized + the RAPPOR/OUE frequency oracles)
//      constructs through the registry and runs end-to-end through Plan:
//      client reports -> sharded session -> sealed epoch -> WNNLS estimate,
//      producing finite answers whose error is consistent with the
//      mechanism's analytic profile. (The statistical pinning of empirical
//      error to analyzed variance lives in mechanism_conformance_test.cc.)

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "core/factored.h"
#include "core/strategy.h"
#include "estimation/estimator.h"
#include "ldp/local_randomizer.h"
#include "ldp/protocol.h"
#include "linalg/rng.h"
#include "mechanisms/optimized.h"
#include "mechanisms/randomized_response.h"
#include "mechanisms/registry.h"
#include "workload/histogram.h"
#include "workload/kronecker.h"
#include "workload/workload.h"

namespace wfm {
namespace {

OptimizerConfig SmallConfig(std::uint64_t seed) {
  OptimizerConfig config;
  config.iterations = 120;
  config.step_search_iterations = 20;
  config.seed = seed;
  return config;
}

// Example 2.2-style skewed counts summing exactly to `total`.
Vector SkewedTruth(int n, int total) {
  Vector truth(n, 0.0);
  double assigned = 0.0;
  for (int u = 0; u < n; ++u) {
    truth[u] = std::floor(static_cast<double>(total) / (2 << u));
    assigned += truth[u];
  }
  truth[0] += total - assigned;
  return truth;
}

TEST(PlanParityTest, BitIdenticalToManualQuickstartWiring) {
  const int n = 5;
  const double eps = 1.0;
  const int num_users = 4000;
  const OptimizerConfig config = SmallConfig(/*seed=*/1);
  auto workload = std::make_shared<HistogramWorkload>(n);
  const Vector truth = SkewedTruth(n, num_users);

  // --- Manual path: exactly the pre-redesign quickstart wiring. -----------
  const WorkloadStats stats = WorkloadStats::From(*workload);
  const OptimizedMechanism mechanism(stats, eps, config);
  const FactorizationAnalysis analysis = mechanism.AnalyzeFactorization(stats);
  Rng manual_rng(2024);
  const LocalRandomizer randomizer(mechanism.strategy());
  ResponseAggregator aggregator(randomizer.num_outputs());
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      aggregator.Add(randomizer.Respond(u, manual_rng));
    }
  }
  const ReportDecoder decoder = ReportDecoder::FromAnalysis(analysis);
  const WorkloadEstimate manual = EstimateWorkloadAnswers(
      decoder, *workload, aggregator.histogram(), aggregator.num_responses(),
      EstimatorKind::kWnnls);

  // --- Plan path, same pinned seeds. --------------------------------------
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(eps)
                                   .Mechanism("Optimized")
                                   .Optimizer(config)
                                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  EXPECT_EQ(plan.mechanism_name(), "Optimized");

  const PlanClient client = plan.Client();
  PlanServer server = plan.Server();
  Rng plan_rng(2024);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      server.Accept(client.Respond(u, plan_rng));
    }
  }
  EXPECT_EQ(server.aggregate(), aggregator.histogram());  // Bit-identical.
  const WorkloadEstimate via_plan = server.Estimate(EstimatorKind::kWnnls);
  EXPECT_EQ(via_plan.data_vector, manual.data_vector);
  EXPECT_EQ(via_plan.query_answers, manual.query_answers);

  // --- And through the concurrent session (single shard). -----------------
  std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/1);
  Rng session_rng(2024);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      session->Accept(0, client.Respond(u, session_rng));
    }
  }
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.histogram, aggregator.histogram());
  EXPECT_EQ(sealed.count, static_cast<std::int64_t>(num_users));
  const StatusOr<WorkloadEstimate> served =
      session->Estimate(EstimatorKind::kWnnls);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().data_vector, manual.data_vector);
  EXPECT_EQ(served.value().query_answers, manual.query_answers);

  // The unbiased estimator kind agrees as well.
  const WorkloadEstimate manual_unbiased = EstimateWorkloadAnswers(
      decoder, *workload, aggregator.histogram(), aggregator.num_responses(),
      EstimatorKind::kUnbiased);
  EXPECT_EQ(server.Estimate(EstimatorKind::kUnbiased).data_vector,
            manual_unbiased.data_vector);
}

TEST(PlanDeployTest, EveryRegistryMechanismRunsEndToEnd) {
  // client reports -> sharded session -> sealed epoch -> WNNLS estimate for
  // all nine registry entries (n = 8 so Fourier qualifies).
  const int n = 8;
  const double eps = 2.0;
  const int num_users = 30000;
  const int num_shards = 2;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const Vector truth = SkewedTruth(n, num_users);
  const Vector expected_answers = workload->Apply(truth);

  const std::vector<std::string> names =
      MechanismRegistry::Global().ListMechanisms();
  ASSERT_GE(names.size(), 9u);
  std::uint64_t seed = 71;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const StatusOr<Plan> built = Plan::For(workload)
                                     .Epsilon(eps)
                                     .Mechanism(name)
                                     .Optimizer(SmallConfig(/*seed=*/9))
                                     .Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const Plan& plan = built.value();
    EXPECT_EQ(plan.mechanism_name(), name);
    EXPECT_GT(plan.Profile().WorstUnitVariance(), 0.0);

    const PlanClient client = plan.Client();
    std::unique_ptr<PlanSession> session = plan.StartSession(num_shards);
    Rng rng(seed++);
    int next_shard = 0;
    for (int u = 0; u < n; ++u) {
      for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
        session->Accept(next_shard, client.Respond(u, rng));
        next_shard = (next_shard + 1) % num_shards;
      }
    }
    const EpochSnapshot sealed = session->Seal();
    EXPECT_EQ(sealed.count, static_cast<std::int64_t>(num_users));

    const StatusOr<WorkloadEstimate> estimate =
        session->Estimate(EstimatorKind::kWnnls);
    ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
    ASSERT_EQ(estimate.value().query_answers.size(), expected_answers.size());

    // Finite, and consistent with the mechanism's analytic error profile:
    // the observed total squared error of one pinned-seed run stays within a
    // wide multiple of its expectation E = DataVariance(truth) (WNNLS only
    // shrinks the unbiased error in practice).
    double total_sq_error = 0.0;
    for (std::size_t i = 0; i < expected_answers.size(); ++i) {
      const double answer = estimate.value().query_answers[i];
      ASSERT_TRUE(std::isfinite(answer));
      total_sq_error += std::pow(answer - expected_answers[i], 2);
    }
    const double analytic = plan.Profile().DataVariance(truth);
    EXPECT_LE(total_sq_error, 20.0 * analytic);

    // The WNNLS estimate approximately conserves the population size.
    EXPECT_NEAR(Sum(estimate.value().data_vector), num_users,
                0.25 * num_users);
  }
}

TEST(PlanDeployTest, DenseMatrixMechanismReportsFlowThroughBothServers) {
  // The additive-noise path: dense reports through the serial PlanServer and
  // the sharded session must agree with each other when fed the identical
  // report stream.
  const int n = 8;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Matrix Mechanism (L1)")
                                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  const PlanClient client = plan.Client();
  EXPECT_TRUE(client.dense_reports());

  PlanServer server = plan.Server();
  std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/2);
  Rng rng(55);
  for (int i = 0; i < 500; ++i) {
    const Report report = client.Respond(i % n, rng);
    ASSERT_TRUE(report.is_dense());
    ASSERT_EQ(static_cast<int>(report.dense.size()), client.num_outputs());
    server.Accept(report);
    session->Accept(i % 2, report);
  }
  session->Seal();
  const WorkloadEstimate serial = server.Estimate(EstimatorKind::kUnbiased);
  const StatusOr<WorkloadEstimate> sharded =
      session->Estimate(EstimatorKind::kUnbiased);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(serial.data_vector.size(), sharded.value().data_vector.size());
  for (std::size_t i = 0; i < serial.data_vector.size(); ++i) {
    // Identical sums up to floating-point commutation across shards.
    EXPECT_NEAR(serial.data_vector[i], sharded.value().data_vector[i], 1e-6);
  }
}

TEST(PlanDeployTest, BitVectorReportsFlowThroughBothServers) {
  // The frequency-oracle path: RAPPOR's n-bit reports through the serial
  // PlanServer and the sharded session must agree exactly (integer bit
  // counts), and the unbiased decode must equal the hand-computed affine
  // debias (y - N f)/(1 - 2f) of the same aggregate.
  const int n = 8;
  const double eps = 1.0;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(eps).Mechanism("RAPPOR").Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  const PlanClient client = plan.Client();
  EXPECT_TRUE(client.bit_vector_reports());
  EXPECT_FALSE(client.dense_reports());
  EXPECT_EQ(client.num_outputs(), n);  // m == n for unary encodings.

  PlanServer server = plan.Server();
  std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/2);
  Rng rng(77);
  const int num_reports = 600;
  for (int i = 0; i < num_reports; ++i) {
    const Report report = client.Respond(i % n, rng);
    ASSERT_TRUE(report.is_bits());
    ASSERT_EQ(static_cast<int>(report.bits.size()), n);
    ASSERT_TRUE(server.Accept(report).ok());
    session->Accept(i % 2, report);
  }
  EXPECT_EQ(server.num_reports(), num_reports);
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.count, num_reports);
  EXPECT_EQ(sealed.histogram, server.aggregate());  // Integer counts: exact.

  // The decode is the textbook affine debias against the report count.
  const double f = 1.0 / (1.0 + std::exp(eps / 2.0));
  const WorkloadEstimate serial = server.Estimate(EstimatorKind::kUnbiased);
  const StatusOr<WorkloadEstimate> sharded =
      session->Estimate(EstimatorKind::kUnbiased);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(serial.data_vector, sharded.value().data_vector);
  for (int u = 0; u < n; ++u) {
    const double expected =
        (server.aggregate()[u] - num_reports * f) / (1.0 - 2.0 * f);
    EXPECT_NEAR(serial.data_vector[u], expected, 1e-9);
  }
}

TEST(PlanServerTest, MalformedReportsAreInvalidArgumentNotFatal) {
  // Reports arrive from untrusted devices: a dense report whose dimension
  // mismatches the deployed strategy (and any other corrupt shape) must
  // surface as kInvalidArgument and leave the aggregate untouched — a
  // regression test for the CHECK-abort this used to be.
  const int n = 8;
  auto workload = std::make_shared<HistogramWorkload>(n);

  // Dense deployment (Matrix Mechanism).
  const StatusOr<Plan> dense_plan = Plan::For(workload)
                                        .Epsilon(1.0)
                                        .Mechanism("Matrix Mechanism (L1)")
                                        .Build();
  ASSERT_TRUE(dense_plan.ok()) << dense_plan.status().ToString();
  PlanServer dense_server = dense_plan.value().Server();
  Report wrong_dim;
  wrong_dim.dense = Vector(dense_plan.value().Client().num_outputs() + 3, 1.0);
  const Status rejected = dense_server.Accept(wrong_dim);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  // A non-finite entry would poison the aggregate (NaN forever after).
  Report poisoned;
  poisoned.dense = Vector(dense_plan.value().Client().num_outputs(), 1.0);
  poisoned.dense[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(dense_server.Accept(poisoned).code(),
            StatusCode::kInvalidArgument);
  poisoned.dense[2] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(dense_server.Accept(poisoned).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dense_server.num_reports(), 0);
  EXPECT_EQ(dense_server.aggregate(),
            Vector(dense_plan.value().Client().num_outputs(), 0.0));

  // Categorical deployment: out-of-range index.
  const StatusOr<Plan> cat_plan =
      Plan::For(workload).Epsilon(1.0).Mechanism("Randomized Response").Build();
  ASSERT_TRUE(cat_plan.ok());
  PlanServer cat_server = cat_plan.value().Server();
  Report bad_index;
  bad_index.index = cat_plan.value().Client().num_outputs();
  EXPECT_EQ(cat_server.Accept(bad_index).code(),
            StatusCode::kInvalidArgument);
  bad_index.index = -1;
  EXPECT_EQ(cat_server.Accept(bad_index).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cat_server.num_reports(), 0);

  // Bit-vector deployment: too few and too many bits (a packed report
  // cannot hold a non-binary entry; its byte form aborts in collect_test).
  const StatusOr<Plan> bits_plan =
      Plan::For(workload).Epsilon(1.0).Mechanism("OUE").Build();
  ASSERT_TRUE(bits_plan.ok());
  PlanServer bits_server = bits_plan.value().Server();
  Report short_bits;
  short_bits.bits = PackedBits::Zeros(n - 1);
  EXPECT_EQ(bits_server.Accept(short_bits).code(),
            StatusCode::kInvalidArgument);
  Report long_bits;
  long_bits.bits = PackedBits(std::vector<std::uint8_t>(n + 64, 1));
  EXPECT_EQ(bits_server.Accept(long_bits).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bits_server.num_reports(), 0);
  EXPECT_EQ(bits_server.aggregate(), Vector(n, 0.0));

  // A report whose *shape* mismatches the deployment is equally
  // device-controlled: rejected, never forwarded to a kind-checking abort.
  Report dense_into_bits;
  dense_into_bits.dense = Vector(n, 1.0);
  EXPECT_EQ(bits_server.Accept(dense_into_bits).code(),
            StatusCode::kInvalidArgument);
  Report index_into_dense;
  index_into_dense.index = 0;
  EXPECT_EQ(dense_server.Accept(index_into_dense).code(),
            StatusCode::kInvalidArgument);

  // The concurrent session surface enforces the same contract.
  std::unique_ptr<PlanSession> session = bits_plan.value().StartSession(1);
  EXPECT_EQ(session->Accept(0, short_bits).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Accept(0, long_bits).code(),
            StatusCode::kInvalidArgument);
  // A malformed report rejects its whole batch, the valid one beside it too.
  Rng batch_rng(4);
  const std::vector<Report> batch = {
      bits_plan.value().Client().Respond(0, batch_rng), long_bits};
  EXPECT_EQ(session->AcceptBatch(0, batch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Accept(0, dense_into_bits).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->session().total_responses(), 0);

  // A well-formed report still lands after rejections, on both surfaces.
  Rng rng(5);
  ASSERT_TRUE(
      bits_server.Accept(bits_plan.value().Client().Respond(0, rng)).ok());
  EXPECT_EQ(bits_server.num_reports(), 1);
  ASSERT_TRUE(
      session->Accept(0, bits_plan.value().Client().Respond(0, rng)).ok());
  EXPECT_EQ(session->session().total_responses(), 1);
}

TEST(PlanBuilderTest, UnknownMechanismIsNotFoundAndListsRegistry) {
  auto workload = std::make_shared<HistogramWorkload>(8);
  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(1.0).Mechanism("Optimzied").Build();  // Typo.
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  EXPECT_NE(built.status().message().find("Optimized"), std::string::npos)
      << "error should list the registered names";
}

TEST(PlanBuilderTest, FourierOffPowerOfTwoIsInvalidArgument) {
  auto workload = std::make_shared<HistogramWorkload>(12);
  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(1.0).Mechanism("Fourier").Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanBuilderTest, RequiresPositiveEpsilonAndAWorkload) {
  auto workload = std::make_shared<HistogramWorkload>(4);
  EXPECT_EQ(Plan::For(workload).Mechanism("Randomized Response").Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // Epsilon never set.
  EXPECT_EQ(Plan::For(workload)
                .Epsilon(-0.5)
                .Mechanism("Randomized Response")
                .Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Plan::For(nullptr).Epsilon(1.0).Build().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanBuilderTest, OptimizedBuildsBelowTheRepairMargin) {
  // Below ε = ln 1.02 the optimizer's z repair used to raise e^ε Σz to 1.02
  // and so push Σz past 1; the next projection then aborted. Dense plans,
  // and the per-factor budgets of the factored optimizer.
  for (const char* spec : {"Prefix(8)", "Prefix(8)xPrefix(8)"}) {
    for (double eps : {1e-3, 0.01, 0.019}) {
      const StatusOr<Plan> built = Plan::For(ParseWorkload(spec))
                                       .Epsilon(eps)
                                       .Mechanism("Optimized")
                                       .Optimizer(SmallConfig(5))
                                       .Build();
      ASSERT_TRUE(built.ok()) << spec << " eps " << eps << ": "
                              << built.status().ToString();
      const Matrix* q = built.value().DeployedStrategy();
      ASSERT_NE(q, nullptr);
      EXPECT_TRUE(ValidateStrategy(*q, eps, 1e-8).valid)
          << spec << " eps " << eps;
    }
  }
  const WorkloadStats stats =
      WorkloadStats::From(*ParseWorkload("Prefix(8)xPrefix(8)"));
  FactoredOptimizerConfig config;
  config.factor_config = SmallConfig(5);
  for (double eps : {1e-3, 0.01, 0.019}) {
    const FactoredOptimizerResult result =
        OptimizeFactoredStrategy(stats, eps, config);
    const FactoredStrategy& strategy = result.strategy;
    ASSERT_EQ(strategy.factors.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      const StrategyValidation check =
          ValidateStrategy(strategy.factors[i], strategy.epsilons[i], 1e-8);
      EXPECT_TRUE(check.valid) << "eps " << eps << " factor " << i;
    }
  }
}

TEST(PlanBuilderTest, FixedStrategyDeploysAndValidatesShape) {
  const int n = 6;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);

  const StatusOr<Plan> built =
      Plan::For(workload).Epsilon(1.0).Strategy(q).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().mechanism_name(), "Strategy");

  // The fixed-strategy client draws exactly like a LocalRandomizer over q.
  Rng a(3), b(3);
  const LocalRandomizer reference(q);
  const PlanClient client = built.value().Client();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(client.Respond(i % n, a).index, reference.Respond(i % n, b));
  }

  const Matrix wrong = RandomizedResponseMechanism::BuildStrategy(n + 1, 1.0);
  EXPECT_EQ(Plan::For(workload).Epsilon(1.0).Strategy(wrong).Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A strategy saved at a looser epsilon cannot be deployed at a tighter
  // one — a runtime condition (corrupt/mismatched strategy file), so it must
  // surface as Status, not as the StrategyMechanism constructor's abort.
  const Matrix loose = RandomizedResponseMechanism::BuildStrategy(n, 2.0);
  const StatusOr<Plan> mismatched =
      Plan::For(workload).Epsilon(1.0).Strategy(loose).Build();
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanBuilderTest, AutoSelectsTheRegistryArgmin) {
  const int n = 16;
  const double eps = 1.0;
  auto workload = std::make_shared<HistogramWorkload>(n);
  const WorkloadStats stats = WorkloadStats::From(*workload);
  MechanismOptions options;
  options.optimizer = SmallConfig(/*seed=*/5);

  const StatusOr<std::string> expected =
      MechanismRegistry::Global().AutoSelect(stats, eps, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(eps)
                                   .Mechanism(Auto())
                                   .Optimizer(options.optimizer)
                                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().mechanism_name(), expected.value());
}

TEST(PlanSessionTest, EstimateBeforeFirstSealIsFailedPrecondition) {
  auto workload = std::make_shared<HistogramWorkload>(4);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> session = built.value().StartSession(1);
  EXPECT_EQ(session->Estimate().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlanSessionTest, BatchIngestValidatesAtomically) {
  // AcceptBatch is all-or-nothing: one malformed report anywhere in the
  // batch rejects the whole batch with its position named, and nothing —
  // including the valid prefix before it — is ingested.
  auto workload = std::make_shared<HistogramWorkload>(6);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> session = built.value().StartSession(2);

  std::vector<Report> batch(5);
  for (int i = 0; i < 5; ++i) batch[i].index = i;
  batch[3].index = built.value().Client().num_outputs();  // Out of range.
  const Status rejected = session->AcceptBatch(1, batch);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("report 3"), std::string::npos);
  EXPECT_EQ(session->session().pending_responses(), 0);

  batch[3].index = 0;
  ASSERT_TRUE(session->AcceptBatch(1, batch).ok());
  EXPECT_EQ(session->session().pending_responses(), 5);
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.count, 5);
}

TEST(PlanSessionTest, SnapshotAccessAndRestoreRoundTrip) {
  // The PlanSession surface the wire service maps GET/PUSH snapshot onto:
  // kNotFound before sealing, the sealed epoch after, and restore adopting a
  // foreign epoch into local history.
  auto workload = std::make_shared<HistogramWorkload>(4);
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(1.0)
                                   .Mechanism("Randomized Response")
                                   .Build();
  ASSERT_TRUE(built.ok());
  std::unique_ptr<PlanSession> session = built.value().StartSession(1);
  EXPECT_EQ(session->Snapshot(0).status().code(), StatusCode::kNotFound);

  Report r;
  r.index = 1;
  ASSERT_TRUE(session->Accept(0, r).ok());
  const EpochSnapshot sealed = session->Seal();
  const auto fetched = session->Snapshot(0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched.value(), sealed);

  std::unique_ptr<PlanSession> other = built.value().StartSession(1);
  const StatusOr<int> adopted = other->RestoreSealedEpoch(sealed);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value(), 0);
  EXPECT_EQ(other->Estimate().value().query_answers,
            session->Estimate().value().query_answers);

  EpochSnapshot malformed;
  malformed.histogram = {1.0};  // Wrong dimension for this deployment.
  EXPECT_EQ(other->RestoreSealedEpoch(malformed).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wfm

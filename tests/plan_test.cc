// Tests for the api/ Plan front door.
//
// The two acceptance properties pinned down here:
//   1. Parity — the Plan path (Build -> Client -> StartSession -> Seal ->
//      Estimate) is *bit-identical* to the pre-redesign manual wiring
//      (OptimizedMechanism + LocalRandomizer + a response count +
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

  // --- Manual path: the pre-redesign quickstart wiring. -------------------
  const WorkloadStats stats = WorkloadStats::From(*workload);
  const OptimizedMechanism mechanism(stats, eps, config);
  const FactorizationAnalysis analysis = mechanism.AnalyzeFactorization(stats);
  Rng manual_rng(2024);
  const LocalRandomizer randomizer(mechanism.strategy());
  Vector histogram(randomizer.num_outputs(), 0.0);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      histogram[randomizer.Respond(u, manual_rng)] += 1.0;
    }
  }
  const ReportDecoder decoder = ReportDecoder::FromAnalysis(analysis);
  const WorkloadEstimate manual = EstimateWorkloadAnswers(
      decoder, *workload, histogram, num_users, EstimatorKind::kWnnls);

  // --- Plan path, same pinned seeds: one round on a one-shard session. ----
  const StatusOr<Plan> built = Plan::For(workload)
                                   .Epsilon(eps)
                                   .Mechanism("Optimized")
                                   .Optimizer(config)
                                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  EXPECT_EQ(plan.mechanism_name(), "Optimized");

  const PlanClient client = plan.Client();
  std::unique_ptr<PlanSession> session = plan.StartSession(/*num_shards=*/1);
  Rng plan_rng(2024);
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      ASSERT_TRUE(session->Accept(0, client.Respond(u, plan_rng)).ok());
    }
  }
  const EpochSnapshot sealed = session->Seal();
  EXPECT_EQ(sealed.histogram, histogram);  // Bit-identical.
  EXPECT_EQ(sealed.count, static_cast<std::int64_t>(num_users));
  const StatusOr<WorkloadEstimate> served =
      session->Estimate(EstimatorKind::kWnnls);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().data_vector, manual.data_vector);
  EXPECT_EQ(served.value().query_answers, manual.query_answers);

  // The unbiased estimator kind agrees as well.
  const WorkloadEstimate manual_unbiased = EstimateWorkloadAnswers(
      decoder, *workload, histogram, num_users, EstimatorKind::kUnbiased);
  EXPECT_EQ(session->Estimate(EstimatorKind::kUnbiased).value().data_vector,
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

TEST(PlanDeployTest, DenseMatrixMechanismReportsFlowThroughSessions) {
  // The additive-noise path: a one-shard session adds dense reports in
  // arrival order, so its aggregate is exactly the serial sum; a two-shard
  // session agrees up to floating-point commutation across shards.
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

  std::unique_ptr<PlanSession> serial = plan.StartSession(/*num_shards=*/1);
  std::unique_ptr<PlanSession> sharded = plan.StartSession(/*num_shards=*/2);
  Vector sum(client.num_outputs(), 0.0);
  Rng rng(55);
  for (int i = 0; i < 500; ++i) {
    const Report report = client.Respond(i % n, rng);
    ASSERT_TRUE(report.is_dense());
    ASSERT_EQ(static_cast<int>(report.dense.size()), client.num_outputs());
    for (int o = 0; o < client.num_outputs(); ++o) sum[o] += report.dense[o];
    ASSERT_TRUE(serial->Accept(0, report).ok());
    ASSERT_TRUE(sharded->Accept(i % 2, report).ok());
  }
  EXPECT_EQ(serial->Seal().histogram, sum);  // Bit-identical.
  sharded->Seal();
  const StatusOr<WorkloadEstimate> one =
      serial->Estimate(EstimatorKind::kUnbiased);
  const StatusOr<WorkloadEstimate> two =
      sharded->Estimate(EstimatorKind::kUnbiased);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(one.value().data_vector.size(), two.value().data_vector.size());
  for (std::size_t i = 0; i < one.value().data_vector.size(); ++i) {
    // Identical sums up to floating-point commutation across shards.
    EXPECT_NEAR(one.value().data_vector[i], two.value().data_vector[i], 1e-6);
  }
}

TEST(PlanDeployTest, BitVectorReportsFlowThroughSessions) {
  // The frequency-oracle path: RAPPOR's n-bit reports through a one-shard
  // and a two-shard session must agree exactly (integer bit counts), and the
  // unbiased decode must equal the hand-computed affine debias
  // (y - N f)/(1 - 2f) of the same aggregate.
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

  std::unique_ptr<PlanSession> serial = plan.StartSession(/*num_shards=*/1);
  std::unique_ptr<PlanSession> sharded = plan.StartSession(/*num_shards=*/2);
  Vector counts(n, 0.0);
  Rng rng(77);
  const int num_reports = 600;
  for (int i = 0; i < num_reports; ++i) {
    const Report report = client.Respond(i % n, rng);
    ASSERT_TRUE(report.is_bits());
    ASSERT_EQ(static_cast<int>(report.bits.size()), n);
    for (int o = 0; o < n; ++o) counts[o] += report.bits[o];
    ASSERT_TRUE(serial->Accept(0, report).ok());
    ASSERT_TRUE(sharded->Accept(i % 2, report).ok());
  }
  const EpochSnapshot one = serial->Seal();
  const EpochSnapshot two = sharded->Seal();
  EXPECT_EQ(one.count, num_reports);
  EXPECT_EQ(two.count, num_reports);
  EXPECT_EQ(one.histogram, counts);  // Integer counts: exact.
  EXPECT_EQ(two.histogram, counts);

  // The decode is the textbook affine debias against the report count.
  const double f = 1.0 / (1.0 + std::exp(eps / 2.0));
  const StatusOr<WorkloadEstimate> decoded =
      serial->Estimate(EstimatorKind::kUnbiased);
  const StatusOr<WorkloadEstimate> sharded_decoded =
      sharded->Estimate(EstimatorKind::kUnbiased);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(sharded_decoded.ok());
  EXPECT_EQ(decoded.value().data_vector, sharded_decoded.value().data_vector);
  for (int u = 0; u < n; ++u) {
    const double expected = (counts[u] - num_reports * f) / (1.0 - 2.0 * f);
    EXPECT_NEAR(decoded.value().data_vector[u], expected, 1e-9);
  }
}

// Feeds `bad` to `session` alone, as a batch of its own, and last in a batch
// of well-formed reports long enough to take the scratch-count path; each
// must be kInvalidArgument, and nothing — not even the valid reports beside
// it — may be ingested.
void ExpectRejected(PlanSession& session, const PlanClient& client,
                    const Report& bad) {
  EXPECT_EQ(session.Accept(0, bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.AcceptBatch(0, std::vector<Report>{bad}).code(),
            StatusCode::kInvalidArgument);
  Rng rng(4);
  std::vector<Report> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(client.Respond(i % client.num_types(), rng));
  }
  batch.push_back(bad);
  const Status rejected = session.AcceptBatch(0, batch);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("report 20"), std::string::npos);
  EXPECT_EQ(session.session().pending_responses(), 0);
}

TEST(PlanSessionTest, MalformedReportsAreInvalidArgumentNotFatal) {
  // Reports arrive from untrusted devices: a report whose dimension
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
  const PlanClient dense_client = dense_plan.value().Client();
  const int dense_m = dense_client.num_outputs();
  std::unique_ptr<PlanSession> dense = dense_plan.value().StartSession(1);
  Report wrong_dim;
  wrong_dim.dense = Vector(dense_m + 3, 1.0);
  ExpectRejected(*dense, dense_client, wrong_dim);
  // A non-finite entry would poison the aggregate (NaN forever after).
  Report poisoned;
  poisoned.dense = Vector(dense_m, 1.0);
  poisoned.dense[2] = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(*dense, dense_client, poisoned);
  poisoned.dense[2] = std::numeric_limits<double>::infinity();
  ExpectRejected(*dense, dense_client, poisoned);
  // A report whose *shape* mismatches the deployment is equally
  // device-controlled: rejected, never forwarded to a kind-checking abort.
  Report index_into_dense;
  index_into_dense.index = 0;
  ExpectRejected(*dense, dense_client, index_into_dense);

  // Categorical deployment: out-of-range index.
  const StatusOr<Plan> cat_plan =
      Plan::For(workload).Epsilon(1.0).Mechanism("Randomized Response").Build();
  ASSERT_TRUE(cat_plan.ok());
  const PlanClient cat_client = cat_plan.value().Client();
  std::unique_ptr<PlanSession> cat = cat_plan.value().StartSession(1);
  Report bad_index;
  bad_index.index = cat_client.num_outputs();
  ExpectRejected(*cat, cat_client, bad_index);
  bad_index.index = -1;
  ExpectRejected(*cat, cat_client, bad_index);

  // Bit-vector deployment: too few and too many bits (a packed report
  // cannot hold a non-binary entry; its byte form aborts in collect_test).
  const StatusOr<Plan> bits_plan =
      Plan::For(workload).Epsilon(1.0).Mechanism("OUE").Build();
  ASSERT_TRUE(bits_plan.ok());
  const PlanClient bits_client = bits_plan.value().Client();
  std::unique_ptr<PlanSession> bits = bits_plan.value().StartSession(1);
  Report short_bits;
  short_bits.bits = PackedBits::Zeros(n - 1);
  ExpectRejected(*bits, bits_client, short_bits);
  Report long_bits;
  long_bits.bits = PackedBits(std::vector<std::uint8_t>(n + 64, 1));
  ExpectRejected(*bits, bits_client, long_bits);
  Report dense_into_bits;
  dense_into_bits.dense = Vector(n, 1.0);
  ExpectRejected(*bits, bits_client, dense_into_bits);

  // Every rejection left its session's epoch empty.
  for (PlanSession* session : {dense.get(), cat.get(), bits.get()}) {
    const EpochSnapshot sealed = session->Seal();
    EXPECT_EQ(sealed.count, 0);
    EXPECT_EQ(sealed.histogram,
              Vector(session->session().num_outputs(), 0.0));
  }

  // A well-formed report still lands after rejections.
  Rng rng(5);
  ASSERT_TRUE(bits->Accept(0, bits_client.Respond(0, rng)).ok());
  EXPECT_EQ(bits->session().pending_responses(), 1);
  EXPECT_EQ(bits->session().total_responses(), 1);
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

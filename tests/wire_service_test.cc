// Tests for the wire/ TCP service: the networked path must serve estimates
// bit-identical to the in-process PlanSession it fronts, survive malformed
// and hostile frames with HTTP-flavored error codes (a bad client can never
// crash collection), spread concurrent clients over the sharded aggregator
// without losing a report, and recover sealed epochs from its snapshot
// directory across a restart.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "ldp/local_randomizer.h"
#include "ldp/reporter.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "wire/byte_order.h"
#include "wire/service.h"
#include "wire/wire_format.h"
#include "workload/histogram.h"
#include "workload/kronecker.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

Plan MakePlan(int n) {
  OptimizerConfig config;
  config.iterations = 120;
  config.seed = 7;  // Pinned: every MakePlan(n) is the identical deployment.
  auto workload = std::make_shared<const PrefixWorkload>(n);
  StatusOr<Plan> plan = Plan::For(std::move(workload))
                            .Epsilon(1.0)
                            .Mechanism("Optimized")
                            .Optimizer(config)
                            .Build();
  return std::move(plan).value();
}

ServiceOptions EphemeralOptions() {
  ServiceOptions options;
  options.port = 0;  // The kernel picks a free port; tests read it back.
  options.num_shards = 4;
  return options;
}

// Wraps a raw ingest body in the untagged (client_id = 0) idempotency
// prefix, so hand-crafted frames still reach the report decode path.
WireBytes Untagged(const WireBytes& body) {
  WireBytes framed(16 + body.size(), 0);
  std::copy(body.begin(), body.end(), framed.begin() + 16);
  return framed;
}

// Extracts one counter's sample value from Prometheus exposition text.
// Anchored to line starts so "name " never matches inside a # TYPE line.
// A counter absent from the text has simply never been touched: 0.
std::int64_t PrometheusCounter(const std::string& text,
                               const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atoll(text.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return 0;
}

TEST(WireServiceTest, StartsOnAnEphemeralPortAndAnswersPing) {
  CollectionServer server(MakePlan(8), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  StatusOr<CollectionClient> client = CollectionClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value().Ping().ok());
  server.Stop();
}

TEST(WireServiceTest, NetworkedEstimateIsBitIdenticalToInProcess) {
  const Plan plan = MakePlan(8);
  CollectionServer server(plan, EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& remote = connected.value();

  // Every report goes to both the wire and a local reference session.
  std::unique_ptr<PlanSession> local = plan.StartSession(1);
  const PlanClient device = plan.Client();
  Rng rng(99);
  for (int u = 0; u < 5000; ++u) {
    const Report report = device.Respond(u % 8, rng);
    ASSERT_TRUE(remote.Accept(report).ok());
    ASSERT_TRUE(local->Accept(0, report).ok());
  }
  const EpochSnapshot local_sealed = local->Seal();
  const StatusOr<EpochSnapshot> remote_sealed = remote.Seal();
  ASSERT_TRUE(remote_sealed.ok());
  EXPECT_EQ(remote_sealed.value().count, local_sealed.count);
  EXPECT_EQ(remote_sealed.value().histogram, local_sealed.histogram);

  for (const EstimatorKind kind :
       {EstimatorKind::kUnbiased, EstimatorKind::kWnnls}) {
    const WorkloadEstimate mine = local->Estimate(kind).value();
    const StatusOr<WorkloadEstimate> theirs = remote.Estimate(kind);
    ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
    EXPECT_EQ(theirs.value().data_vector, mine.data_vector);
    EXPECT_EQ(theirs.value().query_answers, mine.query_answers);
  }
  server.Stop();
}

TEST(WireServiceTest, ConcurrentClientsLoseNoReports) {
  CollectionServer server(MakePlan(6), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kPerClient = 800;
  std::vector<std::thread> fleets;
  const PlanClient device_template =
      MakePlan(6).Client();  // Same deployment; reporters are copyable.
  for (int c = 0; c < kClients; ++c) {
    fleets.emplace_back([&, c] {
      StatusOr<CollectionClient> client =
          CollectionClient::Connect(server.port());
      ASSERT_TRUE(client.ok());
      Rng rng(1000 + c);
      for (int u = 0; u < kPerClient; ++u) {
        const Report report = device_template.Respond(rng.UniformInt(6), rng);
        ASSERT_TRUE(client.value().Accept(report).ok());
      }
    });
  }
  for (std::thread& fleet : fleets) fleet.join();

  // The epoch cut is exact: every accepted report landed in this epoch.
  StatusOr<CollectionClient> sealer =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(sealer.ok());
  const StatusOr<EpochSnapshot> sealed = sealer.value().Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count, kClients * kPerClient);
  server.Stop();
}

TEST(WireServiceTest, MalformedPayloadsGet400AndTheConnectionSurvives) {
  CollectionServer server(MakePlan(8), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();

  // A frame too short to even carry the idempotency tag.
  const std::vector<std::uint8_t> tagless{0xde, 0xad, 0xbe, 0xef, 0x00};
  StatusOr<WireResponse> response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAccept), tagless);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);

  // Garbage bytes as an accept body: structurally invalid wire report.
  response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAccept),
      Untagged({0xde, 0xad, 0xbe, 0xef, 0x00}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);

  // A structurally valid report of the wrong shape: rejected at the
  // deployment trust boundary, also 400, also not ingested.
  Report wrong_shape;
  wrong_shape.bits = {1, 0, 1};
  response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAccept),
      Untagged(EncodeReport(wrong_shape)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);

  // Unknown frame types, the retired 4 and 5 among them: 400, counted in
  // the unknown slot.
  const StatusOr<std::string> baseline = client.Metrics();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::uint8_t kUnknownTypes[] = {4, 5, 99};
  for (const std::uint8_t type : kUnknownTypes) {
    response = client.RawRequest(type, {});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, kWireStatusBadRequest);
    const std::string message(response.value().payload.begin(),
                              response.value().payload.end());
    EXPECT_NE(message.find("unknown request type"), std::string::npos)
        << "type " << int{type} << ": " << message;
  }
  const StatusOr<std::string> scraped = client.Metrics();
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_EQ(
      PrometheusCounter(scraped.value(), "wfm_wire_requests_unknown_total") -
          PrometheusCounter(baseline.value(), "wfm_wire_requests_unknown_total"),
      3);

  // The connection is still serving, and nothing was ingested.
  EXPECT_TRUE(client.Ping().ok());
  const StatusOr<EpochSnapshot> sealed = client.Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count, 0);
  server.Stop();
}

TEST(WireServiceTest, EstimateBeforeAnySealIs409) {
  CollectionServer server(MakePlan(8), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> client = CollectionClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  const StatusOr<WorkloadEstimate> estimate = client.value().Estimate();
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST(WireServiceTest, RecoversSealedHistoryAcrossRestart) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "wfm_service_recover")
          .string();
  std::filesystem::remove_all(dir);
  const Plan plan = MakePlan(8);
  const PlanClient device = plan.Client();

  ServiceOptions options = EphemeralOptions();
  options.snapshot_dir = dir;

  WorkloadEstimate before;
  {
    CollectionServer server(plan, options);
    ASSERT_TRUE(server.Start().ok());
    StatusOr<CollectionClient> client =
        CollectionClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    Rng rng(17);
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (int u = 0; u < 2000; ++u) {
        ASSERT_TRUE(client.value().Accept(device.Respond(u % 8, rng)).ok());
      }
      ASSERT_TRUE(client.value().Seal().ok());
    }
    before = client.value().Estimate(EstimatorKind::kWnnls).value();
    server.Stop();  // "Kill" the process.
  }

  // A restarted server on the same directory serves identical numbers
  // without one device re-reporting.
  CollectionServer revived(plan, options);
  ASSERT_TRUE(revived.Start().ok());
  StatusOr<CollectionClient> client =
      CollectionClient::Connect(revived.port());
  ASSERT_TRUE(client.ok());
  const StatusOr<WorkloadEstimate> after =
      client.value().Estimate(EstimatorKind::kWnnls);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().data_vector, before.data_vector);
  EXPECT_EQ(after.value().query_answers, before.query_answers);
  EXPECT_EQ(revived.session().session().epochs_sealed(), 2);
  EXPECT_EQ(revived.session().session().total_responses(), 4000);
  revived.Stop();
}

TEST(WireServiceTest, MetricsScrapeCountsThePinnedRequestSequence) {
  const Plan plan = MakePlan(8);
  CollectionServer server(plan, EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();

  // The obs registry is process-global and other tests in this binary
  // record into it, so every assertion below is a delta from this baseline.
  const StatusOr<std::string> baseline = client.Metrics();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Pinned sequence: 100 valid accepts, one undecodable frame (400 before
  // the session), one wrong-shape report (400 at the trust boundary), one
  // seal, the same estimate twice (one cache miss, then one hit).
  const PlanClient device = plan.Client();
  Rng rng(23);
  for (int u = 0; u < 100; ++u) {
    ASSERT_TRUE(client.Accept(device.Respond(u % 8, rng)).ok());
  }
  StatusOr<WireResponse> bad = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAccept),
      Untagged({0xde, 0xad, 0xbe, 0xef}));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, kWireStatusBadRequest);
  Report wrong_shape;
  wrong_shape.bits = {1, 0, 1};
  bad = client.RawRequest(static_cast<std::uint8_t>(WireMessageType::kAccept),
                          Untagged(EncodeReport(wrong_shape)));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, kWireStatusBadRequest);
  ASSERT_TRUE(client.Seal().ok());
  ASSERT_TRUE(client.Estimate(EstimatorKind::kWnnls).ok());
  ASSERT_TRUE(client.Estimate(EstimatorKind::kWnnls).ok());

  const StatusOr<std::string> after = client.Metrics();
  ASSERT_TRUE(after.ok());
  const auto delta = [&](const std::string& name) {
    return PrometheusCounter(after.value(), name) -
           PrometheusCounter(baseline.value(), name);
  };
  EXPECT_EQ(delta("wfm_api_reports_accepted_total"), 100);
  EXPECT_EQ(delta("wfm_api_reports_rejected_total"), 1);  // wrong shape only
  EXPECT_EQ(delta("wfm_ingest_reports_total"), 100);
  EXPECT_EQ(delta("wfm_session_seals_total"), 1);
  EXPECT_EQ(delta("wfm_estimate_cache_misses_total"), 1);
  EXPECT_EQ(delta("wfm_estimate_cache_hits_total"), 1);
  EXPECT_EQ(delta("wfm_wire_requests_accept_total"), 102);
  EXPECT_EQ(delta("wfm_wire_requests_seal_total"), 1);
  EXPECT_EQ(delta("wfm_wire_requests_estimate_total"), 2);
  EXPECT_EQ(delta("wfm_wire_responses_400_total"), 2);
  // The baseline scrape itself became visible by the time it was answered.
  EXPECT_EQ(delta("wfm_wire_requests_metrics_total"), 1);
  server.Stop();
}

TEST(WireServiceTest, MetricsScrapeIsBitExactWithInProcessExposition) {
  CollectionServer server(MakePlan(8), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();

  const PlanClient device = MakePlan(8).Client();
  Rng rng(41);
  for (int u = 0; u < 500; ++u) {
    ASSERT_TRUE(client.Accept(device.Respond(u % 8, rng)).ok());
  }
  ASSERT_TRUE(client.Seal().ok());
  ASSERT_TRUE(client.Estimate(EstimatorKind::kUnbiased).ok());

  // Every prior request was fully accounted before its response reached us,
  // and a scrape renders before its own accounting — so the TCP scrape must
  // be byte-identical to rendering the registry in-process right now.
  const std::string in_process =
      ToPrometheusText(MetricsRegistry::Global().Snapshot());
  const StatusOr<std::string> scraped = client.Metrics();
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_EQ(scraped.value(), in_process);

  const std::string in_process_json =
      ToJson(MetricsRegistry::Global().Snapshot());
  const StatusOr<std::string> scraped_json =
      client.Metrics(MetricsFormat::kJson);
  ASSERT_TRUE(scraped_json.ok());
  EXPECT_EQ(scraped_json.value(), in_process_json);

  // A malformed format byte is a 400 like every other bad payload.
  const std::uint8_t bad_format = 9;
  const StatusOr<WireResponse> bad = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kMetrics),
      std::span<const std::uint8_t>(&bad_format, 1));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, kWireStatusBadRequest);
  server.Stop();
}

TEST(WireServiceTest, NetworkedClientSurvivesAStrategyRoll) {
  // The adaptive serving loop end-to-end over the wire: a device that only
  // ever talks kGetStrategy/kAccept/kSeal keeps encoding under the active
  // strategy across a roll, and the server's decodes stay bit-identical to
  // an in-process session fed the same reports.
  const int n = 8;
  const Matrix q0 = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  StatusOr<Plan> built = Plan::For(std::make_shared<const PrefixWorkload>(n))
                             .Epsilon(1.0)
                             .Strategy({{q0}, {1.0}})
                             .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  CollectionServer server(plan, EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& remote = connected.value();
  std::unique_ptr<PlanSession> local = plan.StartSession(1);

  // The device bootstraps its encoder from the served strategy, not from
  // out-of-band configuration.
  StatusOr<StrategySnapshot> served = remote.GetStrategy();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().version, 0);
  EXPECT_EQ(served.value().epsilon, 1.0);
  ASSERT_EQ(served.value().strategy.factors[0].rows(), q0.rows());
  EXPECT_EQ(served.value().strategy.factors[0](0, 0), q0(0, 0));

  Rng rng(17);
  auto ingest_epoch = [&](const Matrix& strategy) {
    const LocalRandomizer randomizer(strategy);
    for (int u = 0; u < 2000; ++u) {
      Report report;
      report.index = randomizer.Respond(u % n, rng);
      ASSERT_TRUE(remote.Accept(report).ok());
      ASSERT_TRUE(local->Accept(0, report).ok());
    }
  };

  ingest_epoch(served.value().strategy.factors[0]);
  StatusOr<EpochSnapshot> epoch0 = remote.Seal();
  ASSERT_TRUE(epoch0.ok());
  EXPECT_EQ(epoch0.value().strategy_version, 0);
  local->Seal();

  // Operator rolls a tighter strategy (valid at the plan's budget) on both
  // the served and the reference session.
  const Matrix q1 = RandomizedResponseMechanism::BuildStrategy(n, 0.5);
  ASSERT_TRUE(server.session().RollStrategy({{q1}, {1.0}}).ok());
  ASSERT_TRUE(local->RollStrategy({{q1}, {1.0}}).ok());

  // The roll is staged, not active: polling clients still see version 0 and
  // keep encoding under it for the epoch already in flight.
  served = remote.GetStrategy();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().version, 0);
  ingest_epoch(served.value().strategy.factors[0]);
  StatusOr<EpochSnapshot> epoch1 = remote.Seal();
  ASSERT_TRUE(epoch1.ok());
  EXPECT_EQ(epoch1.value().strategy_version, 0);  // Sealed under the old one.
  local->Seal();

  // Now the poll comes back with the rolled strategy; the device swaps its
  // randomizer and the next epoch seals under version 1.
  served = remote.GetStrategy();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().version, 1);
  EXPECT_EQ(served.value().strategy.factors[0](0, 0), q1(0, 0));
  ingest_epoch(served.value().strategy.factors[0]);
  StatusOr<EpochSnapshot> epoch2 = remote.Seal();
  ASSERT_TRUE(epoch2.ok());
  EXPECT_EQ(epoch2.value().strategy_version, 1);
  local->Seal();

  // The networked estimate of the post-roll epoch decodes under version 1's
  // decoder, bit-identical to the in-process session.
  for (const EstimatorKind kind :
       {EstimatorKind::kUnbiased, EstimatorKind::kWnnls}) {
    const StatusOr<WorkloadEstimate> theirs = remote.Estimate(kind);
    ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
    const WorkloadEstimate mine = local->Estimate(kind).value();
    EXPECT_EQ(theirs.value().data_vector, mine.data_vector);
    EXPECT_EQ(theirs.value().query_answers, mine.query_answers);
  }
  server.Stop();
}

TEST(WireServiceTest, FactoredDeploymentRollsOverTheWire) {
  // The same loop for a Kronecker deployment: the served strategy carries
  // both factors (a kind-1 strategy payload), a remote device encodes with a
  // StrategyReporter over them, and a roll to a second two-factor strategy
  // decodes bit-identically to an in-process session.
  const double eps = 1.0;
  const Matrix a0 = RandomizedResponseMechanism::BuildStrategy(4, eps / 2);
  const Matrix b0 = RandomizedResponseMechanism::BuildStrategy(2, eps / 2);
  const FactoredStrategy s0{{a0, b0}, {eps / 2, eps / 2}};
  const Matrix a1 = RandomizedResponseMechanism::BuildStrategy(4, 0.3);
  const Matrix b1 = RandomizedResponseMechanism::BuildStrategy(2, 0.6);
  const FactoredStrategy s1{{a1, b1}, {0.3, 0.6}};
  StatusOr<Plan> built = Plan::For(ParseWorkload("Prefix(4)xHistogram(2)"))
                             .Epsilon(eps)
                             .Strategy(s0)
                             .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Plan& plan = built.value();
  ASSERT_NE(plan.DeployedStrategy(), nullptr);
  ASSERT_EQ(plan.DeployedStrategy()->factors.size(), 2u);
  CollectionServer server(plan, EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& remote = connected.value();
  std::unique_ptr<PlanSession> local = plan.StartSession(1);

  Rng rng(23);
  std::vector<int> served_versions;
  std::vector<int> sealed_versions;
  auto run_epoch = [&]() {
    StatusOr<StrategySnapshot> served = remote.GetStrategy();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value().epsilon, eps);
    ASSERT_EQ(served.value().strategy.factors.size(), 2u);
    served_versions.push_back(served.value().version);
    const StrategyReporter device(served.value().strategy.factors);
    ASSERT_EQ(device.num_types(), 8);
    for (int u = 0; u < 3000; ++u) {
      const Report report = device.Respond(u % 8, rng);
      ASSERT_TRUE(remote.Accept(report).ok());
      ASSERT_TRUE(local->Accept(0, report).ok());
    }
    StatusOr<EpochSnapshot> sealed = remote.Seal();
    ASSERT_TRUE(sealed.ok());
    sealed_versions.push_back(sealed.value().strategy_version);
    EXPECT_EQ(local->Seal().histogram, sealed.value().histogram);
    for (const EstimatorKind kind :
         {EstimatorKind::kUnbiased, EstimatorKind::kWnnls}) {
      const StatusOr<WorkloadEstimate> theirs = remote.Estimate(kind);
      ASSERT_TRUE(theirs.ok()) << theirs.status().ToString();
      const WorkloadEstimate mine = local->Estimate(kind).value();
      EXPECT_EQ(theirs.value().data_vector, mine.data_vector);
      EXPECT_EQ(theirs.value().query_answers, mine.query_answers);
    }
  };

  run_epoch();
  ASSERT_TRUE(server.session().RollStrategy(s1).ok());
  ASSERT_TRUE(local->RollStrategy(s1).ok());
  run_epoch();  // Still under version 0: the roll waits for this seal.
  run_epoch();
  EXPECT_EQ(served_versions, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(sealed_versions, (std::vector<int>{0, 0, 1}));

  // The strategy served after the roll is s1, factor for factor.
  StatusOr<StrategySnapshot> served = remote.GetStrategy();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().strategy.epsilons, s1.epsilons);
  for (std::size_t i = 0; i < 2; ++i) {
    const Matrix& got = served.value().strategy.factors[i];
    EXPECT_TRUE(got.ApproxEquals(s1.factors[i], 0.0)) << "factor " << i;
  }
  server.Stop();
}

TEST(WireServiceTest, GetStrategyIs409ForNonStrategyDeployments) {
  // RAPPOR has no strategy matrix to serve; the frame must map the session's
  // kFailedPrecondition onto 409, not crash or 500.
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(8))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  ASSERT_TRUE(plan.ok());
  CollectionServer server(plan.value(), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> client = CollectionClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  const StatusOr<StrategySnapshot> strategy = client.value().GetStrategy();
  ASSERT_FALSE(strategy.ok());
  EXPECT_EQ(strategy.status().code(), StatusCode::kFailedPrecondition);

  // A payload on the empty-bodied request is a malformed frame: 400, and the
  // connection survives to serve the next request.
  const std::uint8_t junk = 1;
  StatusOr<WireResponse> raw = client.value().RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kGetStrategy),
      std::span<const std::uint8_t>(&junk, 1));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.value().status, kWireStatusBadRequest);
  EXPECT_TRUE(client.value().Ping().ok());
  server.Stop();
}

TEST(WireServiceTest, OversizedFrameGets400AndTheConnectionSurvives) {
  ServiceOptions options = EphemeralOptions();
  options.max_frame_bytes = 1024;  // Small cap so the test ships no 64MB.
  CollectionServer server(MakePlan(8), options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();

  // A frame past the cap: drained server-side without buffering, answered
  // 400 — and the connection must stay usable.
  const WireBytes big(2000, 0x2a);
  StatusOr<WireResponse> response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAccept), big);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);

  EXPECT_TRUE(client.Ping().ok());
  const PlanClient device = MakePlan(8).Client();
  Rng rng(53);
  EXPECT_TRUE(client.Accept(device.Respond(2, rng)).ok());
  const StatusOr<EpochSnapshot> sealed = client.Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count, 1);
  server.Stop();
}

TEST(WireServiceTest, BatchCountBeyondTheBodyGets400AndTheServerSurvives) {
  CollectionServer server(MakePlan(8), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();

  // 32 bytes: the idempotency tag, a u32 count of 0xFFFFFFFF and 12 bytes
  // that cannot hold even one entry. The count must be refused before it
  // sizes an allocation.
  WireBytes frame(16, 0);  // Untagged.
  PutU32(frame, 0xFFFFFFFFu);
  frame.resize(32, 0);
  const StatusOr<WireResponse> response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAcceptBatch), frame);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);

  EXPECT_TRUE(client.Ping().ok());
  const StatusOr<EpochSnapshot> sealed = client.Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count, 0);
  server.Stop();
}

TEST(WireServiceTest, BatchWithNonZeroPaddingBitsGets400AndCountsNothing) {
  // m = 5: each packed report carries 3 padding bits in its one payload byte.
  const int n = 5;
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(n))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  ASSERT_TRUE(plan.ok());
  CollectionServer server(plan.value(), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();

  // Three valid reports, then the middle one gets a padding bit set and its
  // CRC re-stamped, so only the canonical-padding check can catch it.
  const PlanClient device = plan.value().Client();
  Rng rng(61);
  WireBytes frame(16, 0);  // Untagged.
  PutU32(frame, 3);
  for (int i = 0; i < 3; ++i) {
    WireBytes wire = EncodeReport(device.Respond(i, rng));
    ASSERT_EQ(wire.size(), kWireEnvelopeBytes + 1);
    if (i == 1) {
      wire[kWireHeaderBytes] |= 0x80;
      wire.resize(wire.size() - kWireTrailerBytes);
      PutU32(wire, WireCrc32(wire));
      ASSERT_FALSE(DecodeReport(wire).ok());
    }
    PutU32(frame, static_cast<std::uint32_t>(wire.size()));
    frame.insert(frame.end(), wire.begin(), wire.end());
  }
  const StatusOr<WireResponse> response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAcceptBatch), frame);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);

  EXPECT_TRUE(client.Ping().ok());
  const StatusOr<EpochSnapshot> sealed = client.Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count, 0);
  EXPECT_EQ(sealed.value().histogram, Vector(n, 0.0));
  server.Stop();
}

Plan MakeRapporPlan(int n) {
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(n))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  return std::move(plan).value();
}

// An untagged kAcceptBatch payload: the zero idempotency tag, then the batch
// body over `envelopes` (already encoded, possibly corrupted).
WireBytes UntaggedBatch(const std::vector<WireBytes>& envelopes) {
  WireBytes frame(16, 0);
  PutU32(frame, static_cast<std::uint32_t>(envelopes.size()));
  for (const WireBytes& wire : envelopes) {
    PutU32(frame, static_cast<std::uint32_t>(wire.size()));
    frame.insert(frame.end(), wire.begin(), wire.end());
  }
  return frame;
}

TEST(WireServiceTest, BadCrcBatchCountsNothingAndTheNextBatchSealsExactly) {
  // The server decodes every batch on a connection into the same reports.
  // A batch whose report k fails its CRC must count nothing, and what it and
  // a batch of another kind left in that storage must not leak into the
  // next valid batch, which is smaller.
  const int n = 65;
  const Plan plan = MakeRapporPlan(n);
  CollectionServer server(plan, EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();
  std::unique_ptr<PlanSession> local = plan.StartSession(1);
  const PlanClient device = plan.Client();
  Rng rng(67);
  const auto respond = [&](int count) {
    std::vector<Report> reports;
    for (int i = 0; i < count; ++i) {
      reports.push_back(device.Respond(rng.UniformInt(n), rng));
    }
    return reports;
  };

  const std::vector<Report> first = respond(200);
  ASSERT_TRUE(client.AcceptBatch(first).ok());
  ASSERT_TRUE(local->AcceptBatch(0, first).ok());

  std::vector<WireBytes> corrupt;
  for (const Report& report : respond(300)) {
    corrupt.push_back(EncodeReport(report));
  }
  corrupt[123][kWireHeaderBytes + 2] ^= 0x04;  // CRC no longer matches.
  StatusOr<WireResponse> response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAcceptBatch),
      UntaggedBatch(corrupt));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);
  const std::string message(response.value().payload.begin(),
                            response.value().payload.end());
  EXPECT_NE(message.find("batch report 123"), std::string::npos) << message;
  EXPECT_NE(message.find("CRC"), std::string::npos) << message;

  std::vector<WireBytes> categorical;
  for (int i = 0; i < 40; ++i) {
    Report report;
    report.index = i % n;
    categorical.push_back(EncodeReport(report));
  }
  response = client.RawRequest(
      static_cast<std::uint8_t>(WireMessageType::kAcceptBatch),
      UntaggedBatch(categorical));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, kWireStatusBadRequest);

  const std::vector<Report> last = respond(77);
  ASSERT_TRUE(client.AcceptBatch(last).ok());
  ASSERT_TRUE(local->AcceptBatch(0, last).ok());

  const StatusOr<EpochSnapshot> sealed = client.Seal();
  ASSERT_TRUE(sealed.ok());
  const EpochSnapshot expected = local->Seal();
  EXPECT_EQ(sealed.value().count, 277);
  EXPECT_EQ(sealed.value().count, expected.count);
  EXPECT_EQ(sealed.value().histogram, expected.histogram);
  server.Stop();
}

TEST(WireServiceTest, MultiMegabyteBatchIsCountedExactly) {
  // 60,000 512-bit reports make a 5 MB frame: the client's length prefix and
  // body leave in many partial writes, and the server's decode storage grows
  // past what a connection keeps between frames. Both batches must count
  // exactly.
  const int n = 512;
  const Plan plan = MakeRapporPlan(n);
  CollectionServer server(plan, EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  CollectionClient& client = connected.value();
  std::unique_ptr<PlanSession> local = plan.StartSession(1);
  const PlanClient device = plan.Client();
  Rng rng(73);
  for (const int size : {60000, 300}) {
    std::vector<Report> reports;
    for (int i = 0; i < size; ++i) {
      reports.push_back(device.Respond(rng.UniformInt(n), rng));
    }
    ASSERT_TRUE(client.AcceptBatch(reports).ok()) << "size " << size;
    ASSERT_TRUE(local->AcceptBatch(0, reports).ok());
  }
  const StatusOr<EpochSnapshot> sealed = client.Seal();
  ASSERT_TRUE(sealed.ok());
  const EpochSnapshot expected = local->Seal();
  EXPECT_EQ(sealed.value().count, 60300);
  EXPECT_EQ(sealed.value().histogram, expected.histogram);
  server.Stop();
}

// One deterministic structural mutation of a valid batch payload (tag and
// body). `other` is a valid batch payload of the other report kind, the
// source of splices. Entries are located by walking the length prefixes.
WireBytes MutateBatch(const WireBytes& frame, const WireBytes& other,
                      Rng& rng) {
  const auto entry_offsets = [](const WireBytes& f) {
    std::vector<std::size_t> offsets;  // Offset of each u32 entry length.
    const std::size_t count = f[16] | f[17] << 8 | f[18] << 16 | f[19] << 24;
    std::size_t at = 20;
    for (std::size_t i = 0; i < count; ++i) {
      offsets.push_back(at);
      at += 4 + (f[at] | f[at + 1] << 8 | f[at + 2] << 16 | f[at + 3] << 24);
    }
    return offsets;
  };
  const auto set_u32 = [](WireBytes& f, std::size_t at, std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      f[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  };
  const auto get_u32 = [](const WireBytes& f, std::size_t at) {
    return static_cast<std::uint32_t>(f[at] | f[at + 1] << 8 |
                                      f[at + 2] << 16 | f[at + 3] << 24);
  };
  WireBytes out = frame;
  const std::vector<std::size_t> entries = entry_offsets(frame);
  const std::size_t pick =
      entries[rng.UniformInt(static_cast<int>(entries.size()))];
  const std::uint32_t pick_len = get_u32(frame, pick);
  switch (rng.UniformInt(7)) {
    case 0:  // Truncation anywhere past the tag.
      out.resize(16 + rng.UniformInt(static_cast<int>(frame.size()) - 16));
      break;
    case 1: {  // A count that lies by a little or by a lot.
      const std::uint32_t count = get_u32(frame, 16);
      const std::uint32_t lies[] = {count + 1, count - 1, count + 1000,
                                    0xFFFFFFFFu, 0u};
      set_u32(out, 16, lies[rng.UniformInt(5)]);
      break;
    }
    case 2: {  // An entry length that lies.
      const std::uint32_t lies[] = {pick_len + 1, pick_len - 1, 0u,
                                    0xFFFFFFFFu, pick_len + 16};
      set_u32(out, pick, lies[rng.UniformInt(5)]);
      break;
    }
    case 3: {  // One flipped bit inside one envelope, CRC left stale.
      const std::size_t bit = static_cast<std::size_t>(
          rng.UniformInt(static_cast<int>(8 * pick_len)));
      out[pick + 4 + bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
      break;
    }
    case 4: {  // One flipped bit inside one envelope, CRC re-stamped, so
               // the checks behind the CRC see it.
      const std::size_t bit = static_cast<std::size_t>(
          rng.UniformInt(static_cast<int>(8 * (pick_len - 4))));
      out[pick + 4 + bit / 8] ^= static_cast<std::uint8_t>(1 << (bit % 8));
      const std::uint32_t crc = WireCrc32(
          std::span<const std::uint8_t>(&out[pick + 4], pick_len - 4));
      set_u32(out, pick + pick_len, crc);
      break;
    }
    case 5: {  // Splice: one entry replaced by an envelope of the other kind.
      const std::vector<std::size_t> theirs = entry_offsets(other);
      const std::size_t from =
          theirs[rng.UniformInt(static_cast<int>(theirs.size()))];
      const std::uint32_t from_len = get_u32(other, from);
      out.assign(frame.begin(), frame.begin() + pick);
      out.insert(out.end(), other.begin() + from,
                 other.begin() + from + 4 + from_len);
      out.insert(out.end(), frame.begin() + pick + 4 + pick_len, frame.end());
      break;
    }
    default: {  // Splice: this batch's head on the other batch's tail.
      const std::vector<std::size_t> theirs = entry_offsets(other);
      const std::size_t from =
          theirs[rng.UniformInt(static_cast<int>(theirs.size()))];
      out.assign(frame.begin(), frame.begin() + pick);
      out.insert(out.end(), other.begin() + from, other.end());
      break;
    }
  }
  return out;
}

TEST(WireServiceTest, StructuredBatchMutationsGet200Or400AndCountExactly) {
  // 10^4 deterministic mutations of valid categorical and bit-vector batch
  // frames: truncations, lying counts and entry lengths, bit flips inside
  // one envelope (with the CRC stale or re-stamped), and splices of the two
  // kinds. Every response is 200 or 400, the server keeps serving, and the
  // sealed epoch holds exactly the reports of the 200-acked frames.
  const int n = 65;
  const Plan categorical_plan = MakePlan(8);
  const Plan bits_plan = MakeRapporPlan(n);
  const Plan* plans[] = {&categorical_plan, &bits_plan};
  Rng rng(71);
  // Valid payloads of each kind, 1 to 24 reports each.
  std::vector<WireBytes> valid[2];
  for (int kind = 0; kind < 2; ++kind) {
    const PlanClient device = plans[kind]->Client();
    for (int b = 0; b < 64; ++b) {
      std::vector<WireBytes> envelopes;
      const int size = 1 + rng.UniformInt(24);
      for (int i = 0; i < size; ++i) {
        envelopes.push_back(EncodeReport(
            device.Respond(rng.UniformInt(device.num_types()), rng)));
      }
      valid[kind].push_back(UntaggedBatch(envelopes));
    }
  }

  constexpr int kMutationsPerKind = 5000;
  for (int kind = 0; kind < 2; ++kind) {
    CollectionServer server(*plans[kind], EphemeralOptions());
    ASSERT_TRUE(server.Start().ok());
    StatusOr<CollectionClient> connected =
        CollectionClient::Connect(server.port());
    ASSERT_TRUE(connected.ok());
    CollectionClient& client = connected.value();
    std::unique_ptr<PlanSession> local = plans[kind]->StartSession(1);
    int accepted = 0;
    for (int t = 0; t < kMutationsPerKind; ++t) {
      const WireBytes& frame = valid[kind][rng.UniformInt(64)];
      const WireBytes& other = valid[1 - kind][rng.UniformInt(64)];
      const WireBytes mutated = MutateBatch(frame, other, rng);
      const StatusOr<WireResponse> response = client.RawRequest(
          static_cast<std::uint8_t>(WireMessageType::kAcceptBatch), mutated);
      ASSERT_TRUE(response.ok()) << "mutation " << t << ": "
                                 << response.status().ToString();
      const std::uint16_t status = response.value().status;
      ASSERT_TRUE(status == kWireStatusOk || status == kWireStatusBadRequest)
          << "mutation " << t << " got " << status;
      if (status != kWireStatusOk) continue;
      // Acked: the frame must parse, and its reports count.
      std::vector<Report> reports;
      const StatusOr<std::size_t> count = DecodeReportBatchInto(
          std::span<const std::uint8_t>(mutated).subspan(16), reports);
      ASSERT_TRUE(count.ok()) << "mutation " << t;
      reports.resize(count.value());
      ASSERT_TRUE(local->AcceptBatch(0, reports).ok()) << "mutation " << t;
      ++accepted;
    }
    EXPECT_GT(accepted, 0) << "test premise: some mutations stay valid";
    EXPECT_LT(accepted, kMutationsPerKind / 2)
        << "test premise: most mutations are rejected";
    EXPECT_TRUE(client.Ping().ok());
    const StatusOr<EpochSnapshot> sealed = client.Seal();
    ASSERT_TRUE(sealed.ok());
    const EpochSnapshot expected = local->Seal();
    EXPECT_EQ(sealed.value().count, expected.count) << "kind " << kind;
    EXPECT_EQ(sealed.value().histogram, expected.histogram) << "kind " << kind;
    server.Stop();
  }
}

TEST(WireServiceTest, StopDrainsInFlightRequestsWithoutHangingOrLosingAcks) {
  const Plan plan = MakePlan(8);
  CollectionServer server(plan, EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());

  // A fleet hammers the server while Stop() lands mid-traffic. The drain
  // contract: Stop() returns (no hang), and every report a client saw
  // acknowledged made it into the session — an in-flight request finishes
  // and flushes its whole response before its connection dies, so no client
  // ever reads a torn frame as success.
  constexpr int kFleet = 4;
  std::atomic<std::int64_t> acked{0};
  std::vector<std::thread> fleet;
  const PlanClient device = plan.Client();
  for (int c = 0; c < kFleet; ++c) {
    fleet.emplace_back([&, c] {
      StatusOr<CollectionClient> client =
          CollectionClient::Connect(server.port());
      if (!client.ok()) return;
      Rng rng(6000 + c);
      for (int u = 0; u < 5000; ++u) {
        if (!client.value().Accept(device.Respond(u % 8, rng)).ok()) break;
        acked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();  // Races the in-flight accepts.
  for (std::thread& t : fleet) t.join();

  const EpochSnapshot sealed = server.session().Seal();
  EXPECT_GE(sealed.count, acked.load());
  EXPECT_GT(acked.load(), 0);  // The race was real: traffic was flowing.
}

TEST(WireServiceTest, MidResponseDisconnectDoesNotKillTheServer) {
  CollectionServer server(MakePlan(8), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());

  // Pipeline a burst of requests, then hard-reset the connection without
  // reading a byte: the server ends up writing responses into a dead socket.
  // Unguarded, that raises SIGPIPE and kills the process; with MSG_NOSIGNAL
  // it must surface as a write error on that connection only.
  for (int round = 0; round < 5; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    WireBytes burst;
    for (int i = 0; i < 50; ++i) {
      // kMetrics frame: length 2, type 8, format byte 0 (Prometheus).
      const std::uint8_t frame[] = {2, 0, 0, 0, 8, 0};
      burst.insert(burst.end(), frame, frame + sizeof(frame));
    }
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    // SO_LINGER(on, 0) turns close() into an immediate RST.
    const linger hard_reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof(hard_reset));
    ::close(fd);
  }

  // Alive and serving: the resets cost their connections, nothing more.
  StatusOr<CollectionClient> probe = CollectionClient::Connect(server.port());
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe.value().Ping().ok());
  server.Stop();
}

TEST(WireServiceTest, CorruptSnapshotFileIsQuarantinedNotFatal) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "wfm_quarantine")
          .string();
  std::filesystem::remove_all(dir);
  const Plan plan = MakePlan(8);
  ServiceOptions options = EphemeralOptions();
  options.snapshot_dir = dir;

  // Seed one healthy sealed epoch on disk.
  {
    CollectionServer server(plan, options);
    ASSERT_TRUE(server.Start().ok());
    StatusOr<CollectionClient> client =
        CollectionClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    const PlanClient device = plan.Client();
    Rng rng(61);
    for (int u = 0; u < 100; ++u) {
      ASSERT_TRUE(client.value().Accept(device.Respond(u % 8, rng)).ok());
    }
    ASSERT_TRUE(client.value().Seal().ok());
    server.Stop();
  }
  // Plant a corrupt snapshot beside it.
  const std::filesystem::path bad =
      std::filesystem::path(dir) / "epoch-00000001.wfmsnap";
  {
    std::ofstream out(bad, std::ios::binary);
    const char garbage[] = "not a snapshot";
    out.write(garbage, sizeof(garbage));
  }
  const std::string before = ToPrometheusText(MetricsRegistry::Global()
                                                  .Snapshot());

  // Recovery survives: the healthy epoch serves, the corrupt file is moved
  // out of the .wfmsnap namespace and counted.
  CollectionServer revived(plan, options);
  ASSERT_TRUE(revived.Start().ok());
  StatusOr<CollectionClient> client =
      CollectionClient::Connect(revived.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value().Estimate().ok());
  const CollectionSession& recovered = revived.session().session();
  EXPECT_EQ(recovered.epochs_sealed(), 1);
  ASSERT_NE(recovered.LatestSnapshot(), nullptr);
  EXPECT_EQ(recovered.LatestSnapshot()->epoch_id, 0);
  EXPECT_EQ(recovered.LatestSnapshot()->count, 100);

  EXPECT_FALSE(std::filesystem::exists(bad));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "epoch-00000001.wfmsnap.corrupt"));
  const std::string after = ToPrometheusText(MetricsRegistry::Global()
                                                 .Snapshot());
  EXPECT_EQ(
      PrometheusCounter(after, "wfm_snapshots_quarantined_total") -
          PrometheusCounter(before, "wfm_snapshots_quarantined_total"),
      1);
  revived.Stop();
}

TEST(WireServiceTest, SealAfterAQuarantineGapNeverOverwritesAHealthyEpoch) {
  // Epochs 0, 1 and 2 hold 100, 200 and 300 reports; epoch 1's file is
  // corrupted. After a restart the next seal must number after epoch 2, not
  // reuse id 2 and overwrite its file.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "wfm_quarantine_gap")
          .string();
  std::filesystem::remove_all(dir);
  const Plan plan = MakePlan(8);
  const PlanClient device = plan.Client();
  ServiceOptions options = EphemeralOptions();
  options.snapshot_dir = dir;
  Rng rng(67);
  const auto ingest_and_seal = [&](CollectionServer& server, int reports) {
    StatusOr<CollectionClient> client =
        CollectionClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    for (int u = 0; u < reports; ++u) {
      ASSERT_TRUE(client.value().Accept(device.Respond(u % 8, rng)).ok());
    }
    ASSERT_TRUE(client.value().Seal().ok());
  };
  const auto read_file = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  {
    CollectionServer server(plan, options);
    ASSERT_TRUE(server.Start().ok());
    for (const int reports : {100, 200, 300}) ingest_and_seal(server, reports);
    server.Stop();
  }
  {
    std::ofstream out(std::filesystem::path(dir) / "epoch-00000001.wfmsnap",
                      std::ios::binary | std::ios::trunc);
    const char garbage[] = "not a snapshot";
    out.write(garbage, sizeof(garbage));
  }
  const std::filesystem::path healthy =
      std::filesystem::path(dir) / "epoch-00000002.wfmsnap";
  const std::string healthy_bytes = read_file(healthy);
  ASSERT_FALSE(healthy_bytes.empty());

  {
    CollectionServer revived(plan, options);
    ASSERT_TRUE(revived.Start().ok());
    EXPECT_EQ(revived.session().session().total_responses(), 100 + 300);
    ingest_and_seal(revived, 400);
    EXPECT_EQ(revived.session().session().LatestSnapshot()->epoch_id, 3);
    revived.Stop();
  }
  EXPECT_TRUE(read_file(healthy) == healthy_bytes)
      << "the seal after the restart overwrote a healthy epoch";

  CollectionServer again(plan, options);
  ASSERT_TRUE(again.Start().ok());
  EXPECT_EQ(again.session().session().epochs_sealed(), 3);
  EXPECT_EQ(again.session().session().total_responses(), 100 + 300 + 400);
  EXPECT_EQ(again.session().session().LatestSnapshot()->count, 400);
  again.Stop();
}

TEST(WireServiceTest, ShutdownFrameStopsTheServer) {
  CollectionServer server(MakePlan(8), EphemeralOptions());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> client = CollectionClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value().Shutdown().ok());
  server.WaitUntilShutdown();  // Returns because the frame ended the loop.
  server.Stop();
  EXPECT_FALSE(CollectionClient::Connect(server.port()).ok());
}

}  // namespace
}  // namespace wfm

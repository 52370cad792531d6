// Asserts the networked ingest path's allocation contract with a counting
// global allocator (counting_allocator.h): once a connection has carried a
// few batches, CollectionClient::AcceptBatch builds each frame in the
// client's reused request buffer and the server decodes it into the
// connection's reused reports, so a batch costs a small constant number of
// allocations (the one-byte ack and the dedup window's entry), not one or
// more per report.
//
// It also bounds what a connection keeps between batches: a client that
// shapes its batches to pin decoded storage (a large report in a new slot
// each frame, or one frame of very many reports) leaves the server holding
// at most about its retention budget plus one frame, and a frame above the
// 4 MiB retention cap is not kept by either side's frame buffer. Counting
// a bit-vector or categorical batch into a shard allocates nothing at all,
// and neither does a device's categorical report under a Kronecker-factored
// strategy. A new session of a plan adds no copy of the plan's workload
// statistics.
//
// The client and an in-process server share the counter. Every allocation
// the server makes for a request happens before it writes the response, so
// a count taken after AcceptBatch returns covers both sides. Under
// ASan/TSan the counter is compiled out and the suite self-skips.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "collect/sharded_aggregator.h"
#include "ldp/reporter.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "wire/service.h"
#include "workload/prefix.h"
#include "counting_allocator.h"

namespace wfm {
namespace {

#if WFM_COUNTING_ALLOCATOR
// A small constant: the path makes 3 per batch, for bit vectors and
// categorical reports alike. One buffer per report on either side (an
// encode buffer on the client, a PackedBits on the server) would make at
// least 256 per batch of 256. The server also releases a connection's
// decoded reports after every 4 MiB of frames (about 190 batches of 256
// 512-bit reports) and then allocates their words once more; the 105
// batches here stay under that.
constexpr double kMaxAllocationsPerBatch = 8.0;

double AllocationsPerBatch(const Plan& plan, int batch_size) {
  ServiceOptions options;
  options.num_shards = 2;
  CollectionServer server(plan, options);
  EXPECT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  EXPECT_TRUE(connected.ok());
  CollectionClient& client = connected.value();

  const PlanClient device = plan.Client();
  Rng rng(83);
  std::vector<Report> reports;
  for (int i = 0; i < batch_size; ++i) {
    reports.push_back(device.Respond(rng.UniformInt(device.num_types()), rng));
  }
  // Warm-up: sizes the request buffer, the connection's reports and their
  // words, and the dedup window.
  for (int t = 0; t < 5; ++t) EXPECT_TRUE(client.AcceptBatch(reports).ok());

  constexpr int kBatches = 100;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < kBatches; ++t) {
    EXPECT_TRUE(client.AcceptBatch(reports).ok());
  }
  const std::size_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  const StatusOr<EpochSnapshot> sealed = client.Seal();
  EXPECT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count,
            static_cast<std::int64_t>(kBatches + 5) * batch_size);
  server.Stop();
  return static_cast<double>(allocations) / kBatches;
}
#endif  // WFM_COUNTING_ALLOCATOR

TEST(WireAllocTest, BitVectorBatchesAllocateAConstantPerBatch) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(512))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  ASSERT_TRUE(plan.ok());
  const double per_batch = AllocationsPerBatch(plan.value(), 256);
  EXPECT_LE(per_batch, kMaxAllocationsPerBatch);
#endif
}

TEST(WireAllocTest, CategoricalBatchesAllocateAConstantPerBatch) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  OptimizerConfig config;
  config.iterations = 60;
  config.seed = 7;
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(16))
                            .Epsilon(1.0)
                            .Mechanism("Optimized")
                            .Optimizer(config)
                            .Build();
  ASSERT_TRUE(plan.ok());
  const double per_batch = AllocationsPerBatch(plan.value(), 256);
  EXPECT_LE(per_batch, kMaxAllocationsPerBatch);
#endif
}

TEST(WireAllocTest, BitCountingAllocatesNothingPerBatch) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // 256 reports of 512 bits, the rappor-prefix batch: one more than a byte
  // counter holds, so every batch also drains the counters mid-batch.
  const BitVectorReporter rappor(512, 0.75, 0.25);
  Rng rng(86);
  std::vector<Report> reports;
  for (int i = 0; i < 256; ++i) {
    reports.push_back(rappor.Respond(rng.UniformInt(512), rng));
  }
  ShardedAggregator aggregator(512, /*num_shards=*/2, ReportKind::kBitVector);
  aggregator.AcceptBatch(0, reports);  // resolves the ingest metrics once
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < 100; ++t) aggregator.AcceptBatch(t % 2, reports);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(aggregator.num_responses(), 101 * 256);
#endif
}

TEST(WireAllocTest, CategoricalCountingAllocatesNothingPerBatch) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // 256 categorical reports over kron-32k's m = 2,097,152 responses: each
  // report adds 1 to its own counter, with no m-long scratch histogram per
  // batch. So a categorical batch makes one allocation fewer end to end
  // than it did with that scratch, the same 3 as a bit-vector batch.
  const int m = 2097152;
  Rng rng(87);
  std::vector<Report> reports(256);
  for (Report& r : reports) r.index = rng.UniformInt(m);
  ShardedAggregator aggregator(m, /*num_shards=*/2);
  aggregator.AcceptBatch(0, reports);  // resolves the ingest metrics once
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < 100; ++t) aggregator.AcceptBatch(t % 2, reports);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(aggregator.num_responses(), 101 * 256);
#endif
}

TEST(WireAllocTest, FactoredStrategyRespondAllocatesNothing) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Three factors: the user type splits into per-factor digits on the
  // stack, so a categorical report costs no heap at all.
  const StrategyReporter reporter(std::vector<Matrix>{
      RandomizedResponseMechanism::BuildStrategy(4, 0.5),
      RandomizedResponseMechanism::BuildStrategy(3, 0.3),
      RandomizedResponseMechanism::BuildStrategy(5, 0.2)});
  ASSERT_EQ(reporter.num_types(), 60);
  Rng rng(87);
  std::int64_t checksum = 0;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    checksum += reporter.Respond(i % reporter.num_types(), rng).index;
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_GT(checksum, 0);
#endif
}

#if WFM_COUNTING_ALLOCATOR
// Bytes a connection may keep between frames: the server's 4 MiB retention
// budget for decoded reports (wire/service.cc) plus 1 MiB of slack for
// small objects. The frame buffers on both sides are allowed on top.
constexpr std::int64_t kRetentionBudgetBytes = 5 << 20;

// Frames above this many bytes are not kept by the client's request buffer
// or the server's frame buffer (wire/service.cc).
constexpr std::int64_t kFrameRetentionCapBytes = 4 << 20;

// Live heap bytes the client and server keep after `send` has run over one
// connection, net of the client's request buffer and the server's frame
// buffer (each holds the largest frame sent, `largest_frame` bytes, unless
// that frame was above the retention cap).
std::int64_t RetainedBytes(const Plan& plan, std::int64_t largest_frame,
                           const std::function<void(CollectionClient&)>& send) {
  CollectionServer server(plan, ServiceOptions{});
  EXPECT_TRUE(server.Start().ok());
  StatusOr<CollectionClient> connected =
      CollectionClient::Connect(server.port());
  EXPECT_TRUE(connected.ok());
  CollectionClient& client = connected.value();
  const PlanClient device = plan.Client();
  Rng rng(84);
  const std::vector<Report> valid = {device.Respond(3, rng)};
  EXPECT_TRUE(client.AcceptBatch(valid).ok());  // warm-up
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  send(client);
  // The connection still serves, and counted exactly the valid batches.
  EXPECT_TRUE(client.AcceptBatch(valid).ok());
  const std::int64_t after = g_live_bytes.load(std::memory_order_relaxed);
  const StatusOr<EpochSnapshot> sealed = client.Seal();
  EXPECT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count, 2);
  server.Stop();
  const std::int64_t frame_buffers =
      largest_frame > kFrameRetentionCapBytes ? 0 : 2 * largest_frame;
  return after - before - frame_buffers;
}
#endif  // WFM_COUNTING_ALLOCATOR

TEST(WireAllocTest, FallingCountFramesDoNotPinDecodedReports) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Frame k carries k reports, the last a 1 MiB dense report the RAPPOR
  // deployment answers 400 to, and k falls from 64 to 1, so each large
  // report lands in a slot no later frame overwrites. Kept per slot, they
  // would pin 64 MiB.
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(64))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  ASSERT_TRUE(plan.ok());
  constexpr int kDenseDim = 1 << 17;
  constexpr int kFrames = 64;
  const PlanClient device = plan.value().Client();
  Rng rng(85);
  std::vector<Report> batch;
  for (int k = 0; k < kFrames - 1; ++k) {
    batch.push_back(device.Respond(rng.UniformInt(64), rng));
  }
  Report large;
  large.dense.assign(kDenseDim, 0.5);
  const std::int64_t retained = RetainedBytes(
      plan.value(), 8 * kDenseDim + 64 * kFrames, [&](CollectionClient& c) {
        for (int k = kFrames; k >= 1; --k) {
          std::vector<Report> frame(batch.begin(), batch.begin() + (k - 1));
          frame.push_back(large);
          EXPECT_EQ(c.AcceptBatch(frame).code(), StatusCode::kInvalidArgument);
        }
      });
  EXPECT_LE(retained, kRetentionBudgetBytes);
#endif
}

TEST(WireAllocTest, OneFrameOfManyReportsDoesNotPinItsReportArray) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // 250,000 categorical reports in one frame (6 MB) size the decoded report
  // array to about 16 MB; after the frame the array must be freed, not just
  // emptied.
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(64))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  ASSERT_TRUE(plan.ok());
  constexpr int kReports = 250000;
  Report categorical;
  categorical.index = 5;
  const std::vector<Report> frame(kReports, categorical);
  const std::int64_t retained = RetainedBytes(
      plan.value(), std::int64_t{24} * kReports + 64,
      [&](CollectionClient& c) {
        EXPECT_EQ(c.AcceptBatch(frame).code(), StatusCode::kInvalidArgument);
      });
  EXPECT_LE(retained, kRetentionBudgetBytes);
#endif
}

TEST(WireAllocTest, IdleConnectionsDoNotKeepTheirLargestFrame) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Each of kConnections clients sends one 8 MiB frame (a dense report the
  // RAPPOR deployment answers 400 to) and then steady small batches, and
  // stays connected. Kept frame buffers would pin 2 x 8 MiB per connection,
  // client and server side; released, the connections keep about what
  // their steady frames need.
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(64))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  ASSERT_TRUE(plan.ok());
  constexpr int kConnections = 8;
  constexpr std::int64_t kSteadyBytesPerConnection = 64 << 10;
  Report large;
  large.dense.assign(1 << 20, 0.5);  // an 8 MiB frame
  const PlanClient device = plan.value().Client();
  Rng rng(87);
  const std::vector<Report> steady = {device.Respond(3, rng),
                                      device.Respond(9, rng)};

  CollectionServer server(plan.value(), ServiceOptions{});
  ASSERT_TRUE(server.Start().ok());
  std::vector<CollectionClient> clients;
  for (int c = 0; c < kConnections; ++c) {
    StatusOr<CollectionClient> connected =
        CollectionClient::Connect(server.port());
    ASSERT_TRUE(connected.ok());
    clients.push_back(std::move(connected.value()));
    EXPECT_TRUE(clients.back().AcceptBatch(steady).ok());  // warm-up
  }
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  for (CollectionClient& client : clients) {
    EXPECT_EQ(client.AcceptBatch(std::span<const Report>(&large, 1)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(client.AcceptBatch(steady).ok());
  }
  const std::int64_t retained =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(retained, kConnections * kSteadyBytesPerConnection);
  const StatusOr<EpochSnapshot> sealed = clients.front().Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().count, 2 * kConnections * 2);
  clients.clear();
  server.Stop();
#endif
}

TEST(WireAllocTest, SessionsShareThePlansWorkloadStats) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Prefix(512)'s Gram is 2 MB. A session shares the plan's decoder, and
  // with it the plan's one copy of the statistics, so it adds only its
  // shards and bookkeeping: a copy of the decoder or of the stats would
  // add at least one more Gram.
  constexpr std::int64_t kMaxSessionBytes = 512 * 1024;
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(512))
                            .Epsilon(1.0)
                            .Mechanism("RAPPOR")
                            .Build();
  ASSERT_TRUE(plan.ok());
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  const std::unique_ptr<PlanSession> session = plan.value().StartSession(4);
  const std::int64_t added =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(added, kMaxSessionBytes);
#endif
}

TEST(WireAllocTest, SessionsShareThePlansStrategy) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // An "Optimized" Prefix(64) plan deploys a 256 x 64 strategy, 128 KiB. A
  // session serves the plan's strategy as its version 0 through a pointer
  // into the plan's mechanism, so it adds only its shards and bookkeeping:
  // a copy of the strategy would add the whole matrix.
  constexpr std::int64_t kMaxSessionBytes = 32 * 1024;
  OptimizerConfig config;
  config.iterations = 20;
  config.seed = 7;
  StatusOr<Plan> plan = Plan::For(std::make_shared<const PrefixWorkload>(64))
                            .Epsilon(1.0)
                            .Mechanism("Optimized")
                            .Optimizer(config)
                            .Build();
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan.value().DeployedStrategy(), nullptr);
  ASSERT_EQ(plan.value().DeployedStrategy()->rows(), 256);
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  const std::unique_ptr<PlanSession> session = plan.value().StartSession(4);
  const std::int64_t added =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(added, kMaxSessionBytes);
#endif
}

}  // namespace
}  // namespace wfm

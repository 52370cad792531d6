// Tests for the collect/ subsystem: serial/sharded aggregation equivalence,
// deterministic merges under multi-threaded ingestion, exact epoch cuts while
// ingestion keeps running, window sums, and estimate-cache invalidation.
//
// The core invariant pinned down here: for the same report stream,
// ShardedAggregator::Merge() is bit-identical to a plain serial count of
// the stream — counts are integers, so no shard assignment, batch split, or
// thread interleaving can change the merged histogram. Threaded tests run
// with >= 4 ingest threads and are exercised under TSan in CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/bit_counts.h"
#include "collect/collection_session.h"
#include "collect/estimate_server.h"
#include "collect/sharded_aggregator.h"
#include "estimation/estimator.h"
#include "ldp/local_randomizer.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

namespace wfm {
namespace {

constexpr int kIngestThreads = 4;  // Acceptance: >= 4 threads under TSan.

Report CategoricalReport(int index) {
  Report r;
  r.index = index;
  return r;
}

// Deterministic categorical pseudo-report stream over an alphabet of size m.
std::vector<Report> MakeReports(int m, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Report> reports(count);
  for (Report& r : reports) r.index = rng.UniformInt(m);
  return reports;
}

Vector SerialHistogram(int m, const std::vector<Report>& reports) {
  Vector histogram(m, 0.0);
  for (const Report& r : reports) histogram[r.index] += 1.0;
  return histogram;
}

Report DenseReport(Vector v) {
  Report r;
  r.dense = std::move(v);
  return r;
}

Report BitsReport(std::vector<std::uint8_t> bits) {
  Report r;
  r.bits = PackedBits(bits);
  return r;
}

std::unique_ptr<CollectionSession> MakeSession(int n, int num_shards) {
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const HistogramWorkload>(n);
  ReportDecoder decoder = ReportDecoder::FromAnalysis(
      FactorizationAnalysis(q, WorkloadStats::From(*workload)));
  return std::make_unique<CollectionSession>(std::move(decoder),
                                             std::move(workload), num_shards);
}

// Death tests first (gtest runs *DeathTest suites before the rest, while no
// helper threads are alive).
TEST(CollectDeathTest, RejectsOutOfRangeResponses) {
  ShardedAggregator agg(/*num_outputs=*/3, /*num_shards=*/2);
  EXPECT_DEATH(agg.Accept(0, CategoricalReport(3)), "response out of range");
  EXPECT_DEATH(agg.Accept(1, CategoricalReport(-1)), "response out of range");
  // Both counting routines check: the direct adds of a small batch and the
  // scratch histogram from kScatterThreshold = 16 up.
  std::vector<Report> batch = MakeReports(3, 16, /*seed=*/40);
  batch[9].index = 3;
  EXPECT_DEATH(agg.AcceptBatch(0, batch), "response out of range");
  batch.resize(15);
  EXPECT_DEATH(agg.AcceptBatch(0, batch), "response out of range");
}

TEST(CollectDeathTest, RejectsBadShardIds) {
  ShardedAggregator agg(/*num_outputs=*/3, /*num_shards=*/2);
  EXPECT_DEATH(agg.Accept(2, CategoricalReport(0)), "shard id out of range");
  EXPECT_DEATH(agg.Accept(-1, CategoricalReport(0)), "shard id out of range");
}

TEST(CollectDeathTest, RejectsReportKindMismatches) {
  ShardedAggregator categorical(/*num_outputs=*/3, /*num_shards=*/1);
  EXPECT_DEATH(categorical.Accept(0, DenseReport({1.0, 0.0, -0.5})),
               "categorical");

  ShardedAggregator dense(/*num_outputs=*/3, /*num_shards=*/1,
                          ReportKind::kDense);
  EXPECT_DEATH(dense.Accept(0, CategoricalReport(1)), "dense");
  EXPECT_DEATH(dense.Accept(0, DenseReport({1.0})), "WFM_CHECK");
}

TEST(EstimateServerTest, ServingRequiresASealedEpoch) {
  // "No data yet" is a recoverable service condition, not a crash.
  auto session = MakeSession(/*n=*/4, /*num_shards=*/2);
  EstimateServer server(session.get());
  const StatusOr<WorkloadEstimate> estimate =
      server.Serve(EstimatorKind::kUnbiased);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(estimate.status().message().find("no sealed epoch"),
            std::string::npos);
  EXPECT_EQ(server.ServeWindow(0, EstimatorKind::kUnbiased).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedAggregatorTest, MergeMatchesSerialAggregation) {
  const int m = 32;
  const std::vector<Report> reports = MakeReports(m, 100000, /*seed=*/41);

  ShardedAggregator sharded(m, /*num_shards=*/8);
  // Round-robin batches of uneven sizes across shards.
  std::size_t pos = 0;
  int shard = 0;
  std::size_t batch = 1;
  while (pos < reports.size()) {
    const std::size_t len = std::min(batch, reports.size() - pos);
    sharded.AcceptBatch(shard, std::span<const Report>(&reports[pos], len));
    pos += len;
    shard = (shard + 1) % sharded.num_shards();
    batch = batch % 997 + 13;
  }

  EXPECT_EQ(sharded.Merge(), SerialHistogram(m, reports));  // Bit-identical.
  EXPECT_EQ(sharded.num_responses(), static_cast<std::int64_t>(reports.size()));
}

TEST(ShardedAggregatorTest, ConcurrentMergeIsExactAndDeterministic) {
  const int m = 16;
  const std::vector<Report> reports = MakeReports(m, 200000, /*seed=*/42);
  const Vector expected = SerialHistogram(m, reports);

  for (int round = 0; round < 3; ++round) {  // Determinism across rounds.
    ShardedAggregator sharded(m, kIngestThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kIngestThreads; ++t) {
      threads.emplace_back([&, t] {
        // Thread t owns slice t and feeds it through its own shard in
        // batches, concurrently with the other threads.
        const std::size_t begin = reports.size() * t / kIngestThreads;
        const std::size_t end = reports.size() * (t + 1) / kIngestThreads;
        for (std::size_t pos = begin; pos < end; pos += 1024) {
          const std::size_t len = std::min<std::size_t>(1024, end - pos);
          sharded.AcceptBatch(t, std::span<const Report>(&reports[pos], len));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(sharded.Merge(), expected) << "round " << round;
    EXPECT_EQ(sharded.num_responses(),
              static_cast<std::int64_t>(reports.size()));
  }
}

TEST(ShardedAggregatorTest, ManyThreadsMayShareOneShard) {
  // The one-shard-per-worker layout is a performance choice, not a safety
  // requirement: shards are internally atomic.
  const int m = 8;
  const std::vector<Report> reports = MakeReports(m, 80000, /*seed=*/43);
  ShardedAggregator sharded(m, /*num_shards=*/1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = reports.size() * t / kIngestThreads;
      const std::size_t end = reports.size() * (t + 1) / kIngestThreads;
      sharded.AcceptBatch(
          0, std::span<const Report>(&reports[begin], end - begin));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sharded.Merge(), SerialHistogram(m, reports));
}

TEST(ShardedAggregatorTest, DenseMergeSumsReportsCoordinatewise) {
  ShardedAggregator agg(/*num_outputs=*/3, /*num_shards=*/2,
                        ReportKind::kDense);
  agg.Accept(0, DenseReport({1.0, -2.0, 0.5}));
  agg.Accept(1, DenseReport({0.25, 1.0, -0.5}));
  agg.Accept(0, DenseReport({0.0, 1.0, 3.0}));
  EXPECT_EQ(agg.Merge(), (Vector{1.25, 0.0, 3.0}));
  EXPECT_EQ(agg.num_responses(), 3);
}

TEST(ShardedAggregatorTest, ConcurrentDenseMergeIsExactForIntegerReports) {
  // Integer-valued coordinates keep floating-point addition exact, so the
  // concurrent dense merge must equal the serial sum bit for bit.
  const int m = 8;
  const int reports_per_thread = 20000;
  std::vector<std::vector<Report>> streams(kIngestThreads);
  Vector expected(m, 0.0);
  for (int t = 0; t < kIngestThreads; ++t) {
    Rng rng(300 + t);
    for (int i = 0; i < reports_per_thread; ++i) {
      Vector values(m, 0.0);
      for (int o = 0; o < m; ++o) {
        values[o] = static_cast<double>(rng.UniformInt(7) - 3);
        expected[o] += values[o];
      }
      streams[t].push_back(DenseReport(std::move(values)));
    }
  }

  ShardedAggregator agg(m, kIngestThreads, ReportKind::kDense);
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix shard ids so shards are genuinely contended.
      for (std::size_t i = 0; i < streams[t].size(); ++i) {
        agg.Accept(static_cast<int>((t + i) % kIngestThreads), streams[t][i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(agg.Merge(), expected);
  EXPECT_EQ(agg.num_responses(),
            static_cast<std::int64_t>(kIngestThreads) * reports_per_thread);
}

TEST(CollectionSessionTest, SealUnderConcurrentIngestionConservesReports) {
  // Ingest threads stream fixed report sets while the main thread seals
  // epochs mid-flight. Every report must land in exactly one epoch: the
  // union of all sealed snapshots equals the serial aggregation of
  // everything sent — regardless of where the epoch cuts fell.
  const int n = 8;
  auto session = MakeSession(n, kIngestThreads);
  const int m = session->num_outputs();

  std::vector<std::vector<Report>> streams;
  for (int t = 0; t < kIngestThreads; ++t) {
    streams.push_back(MakeReports(m, 60000, /*seed=*/100 + t));
  }

  std::atomic<int> threads_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<Report>& stream = streams[t];
      for (std::size_t pos = 0; pos < stream.size(); pos += 512) {
        const std::size_t len = std::min<std::size_t>(512, stream.size() - pos);
        session->AcceptBatch(t, std::span<const Report>(&stream[pos], len));
      }
      threads_done.fetch_add(1);
    });
  }
  // Seal epochs while ingestion runs (at least one seal always happens, and
  // in practice many land mid-flight).
  int seals = 0;
  do {
    session->Seal();
    ++seals;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (threads_done.load() < kIngestThreads);
  for (std::thread& t : threads) t.join();
  session->Seal();  // Flush whatever the last mid-flight seal missed.

  std::vector<Report> all_reports;
  for (const auto& stream : streams) {
    all_reports.insert(all_reports.end(), stream.begin(), stream.end());
  }
  Vector sealed_total(m, 0.0);
  std::int64_t sealed_count = 0;
  for (int e = 0; e < session->epochs_sealed(); ++e) {
    const auto snapshot = session->Snapshot(e);
    EXPECT_EQ(snapshot->epoch_id, e);
    EXPECT_EQ(Sum(snapshot->histogram), static_cast<double>(snapshot->count));
    for (int o = 0; o < m; ++o) sealed_total[o] += snapshot->histogram[o];
    sealed_count += snapshot->count;
  }
  EXPECT_EQ(sealed_total, SerialHistogram(m, all_reports));
  EXPECT_EQ(sealed_count, static_cast<std::int64_t>(all_reports.size()));
  EXPECT_EQ(session->total_responses(), sealed_count);
  EXPECT_EQ(session->pending_responses(), 0);
  EXPECT_GE(seals, 1);
}

TEST(CollectionSessionTest, WindowTotalSumsTheLastKEpochs) {
  const int n = 4;
  auto session = MakeSession(n, /*num_shards=*/2);

  EXPECT_EQ(session->WindowTotal(3).epoch_id, -1);  // Nothing sealed yet.
  EXPECT_EQ(session->WindowTotal(3).count, 0);
  EXPECT_EQ(session->LatestSnapshot(), nullptr);

  // Epoch e ingests exactly e+1 reports of type e (m = n for RR).
  for (int e = 0; e < 3; ++e) {
    for (int j = 0; j <= e; ++j) session->Accept(j % 2, CategoricalReport(e));
    const EpochSnapshot sealed = session->Seal();
    EXPECT_EQ(sealed.epoch_id, e);
    EXPECT_EQ(sealed.count, e + 1);
    EXPECT_EQ(sealed.histogram[e], static_cast<double>(e + 1));
  }

  const EpochSnapshot last2 = session->WindowTotal(2);
  EXPECT_EQ(last2.epoch_id, 2);
  EXPECT_EQ(last2.count, 2 + 3);
  EXPECT_EQ(last2.histogram, (Vector{0, 2, 3, 0}));

  const EpochSnapshot all = session->WindowTotal(100);  // Clamped to history.
  EXPECT_EQ(all.count, 1 + 2 + 3);
  EXPECT_EQ(all.histogram, (Vector{1, 2, 3, 0}));

  EXPECT_EQ(session->LatestSnapshot()->epoch_id, 2);
  EXPECT_EQ(session->epochs_sealed(), 3);
  EXPECT_EQ(session->total_responses(), 6);
}

TEST(EstimateServerTest, ServesTheSameAnswersAsTheOfflinePipeline) {
  const int n = 8;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const PrefixWorkload>(n);
  const ReportDecoder decoder = ReportDecoder::FromAnalysis(
      FactorizationAnalysis(q, WorkloadStats::From(*workload)));
  CollectionSession session(decoder, workload, /*num_shards=*/2);

  const std::vector<Report> reports = MakeReports(n, 20000, /*seed=*/77);
  session.AcceptBatch(0, reports);
  session.Seal();

  EstimateServer server(&session);
  for (const EstimatorKind kind :
       {EstimatorKind::kUnbiased, EstimatorKind::kWnnls}) {
    const WorkloadEstimate served = server.Serve(kind).value();
    const WorkloadEstimate direct = EstimateWorkloadAnswers(
        decoder, *workload, session.LatestSnapshot()->histogram,
        session.LatestSnapshot()->count, kind);
    EXPECT_EQ(served.data_vector, direct.data_vector);
    EXPECT_EQ(served.query_answers, direct.query_answers);
  }
}

TEST(EstimateServerTest, CachesPerEpochAndInvalidatesOnSeal) {
  auto session = MakeSession(/*n=*/6, /*num_shards=*/2);
  const int m = session->num_outputs();
  const std::vector<Report> first = MakeReports(m, 5000, /*seed=*/51);
  session->AcceptBatch(0, first);
  session->Seal();

  EstimateServer server(session.get());
  const WorkloadEstimate a = server.Serve(EstimatorKind::kUnbiased).value();
  const WorkloadEstimate b = server.Serve(EstimatorKind::kUnbiased).value();
  EXPECT_EQ(server.num_serves(), 2);
  EXPECT_EQ(server.num_solves(), 1) << "second serve must hit the cache";
  EXPECT_EQ(a.query_answers, b.query_answers);

  // A different estimator kind or window is a different cache entry.
  server.Serve(EstimatorKind::kWnnls);
  EXPECT_EQ(server.num_solves(), 2);
  server.ServeWindow(2, EstimatorKind::kUnbiased);
  EXPECT_EQ(server.num_solves(), 3);

  // Sealing a new epoch invalidates everything cached for the old one.
  const std::vector<Report> second = MakeReports(m, 5000, /*seed=*/52);
  session->AcceptBatch(1, second);
  session->Seal();
  const WorkloadEstimate c = server.Serve(EstimatorKind::kUnbiased).value();
  EXPECT_EQ(server.num_solves(), 4) << "stale cache served after a new seal";
  EXPECT_NE(a.data_vector, c.data_vector);

  // The fresh epoch's estimate reflects only the new epoch's reports.
  const WorkloadEstimate direct = EstimateWorkloadAnswers(
      session->decoder(), session->workload(),
      session->LatestSnapshot()->histogram, session->LatestSnapshot()->count,
      EstimatorKind::kUnbiased);
  EXPECT_EQ(c.query_answers, direct.query_answers);
}

TEST(EstimateServerTest, ConcurrentServesAreConsistent) {
  auto session = MakeSession(/*n=*/6, /*num_shards=*/2);
  const int m = session->num_outputs();
  const std::vector<Report> reports = MakeReports(m, 10000, /*seed=*/53);
  session->AcceptBatch(0, reports);
  session->Seal();

  EstimateServer server(session.get());
  const WorkloadEstimate expected =
      server.Serve(EstimatorKind::kUnbiased).value();
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const WorkloadEstimate got =
            server.Serve(EstimatorKind::kUnbiased).value();
        if (got.query_answers != expected.query_answers) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.num_solves(), 1);
  EXPECT_EQ(server.num_serves(), 1 + kIngestThreads * 50);
}

TEST(CollectDeathTest, RejectsBitVectorKindMismatchesAndCorruptBits) {
  ShardedAggregator bits(/*num_outputs=*/3, /*num_shards=*/1,
                         ReportKind::kBitVector);
  EXPECT_DEATH(bits.Accept(0, CategoricalReport(1)), "bit-vector");
  EXPECT_DEATH(bits.Accept(0, DenseReport({1.0, 0.0, 0.5})), "bit-vector");

  ShardedAggregator categorical(/*num_outputs=*/3, /*num_shards=*/1);
  EXPECT_DEATH(categorical.Accept(0, BitsReport({1, 0, 1})), "categorical");

  // Wrong dimension, shorter and longer than m, in both the single and the
  // batched path.
  EXPECT_DEATH(bits.Accept(0, BitsReport({1, 0})), "WFM_CHECK");
  EXPECT_DEATH(bits.Accept(0, BitsReport(std::vector<std::uint8_t>(65, 1))),
               "WFM_CHECK");
  const std::vector<Report> ragged = {BitsReport({1, 0, 1}),
                                      BitsReport({1, 0, 1, 1})};
  EXPECT_DEATH(bits.AcceptBatch(0, ragged), "WFM_CHECK");
  // An entry beyond {0, 1} cannot even be packed: building the report
  // aborts before it could reach a counter.
  EXPECT_DEATH(PackedBits({1, 2, 0}), "out of range");
}

TEST(ShardedAggregatorTest, BitVectorMergeCountsSetBitsPerCoordinate) {
  ShardedAggregator agg(/*num_outputs=*/4, /*num_shards=*/2,
                        ReportKind::kBitVector);
  agg.Accept(0, BitsReport({1, 0, 1, 0}));
  agg.Accept(1, BitsReport({1, 1, 0, 0}));
  agg.Accept(0, BitsReport({0, 0, 0, 1}));
  EXPECT_EQ(agg.Merge(), (Vector{2, 1, 1, 1}));
  // One report = one response, no matter how many bits it sets: the total is
  // the N that the affine debias divides against.
  EXPECT_EQ(agg.num_responses(), 3);
}

TEST(CollectionSessionTest, BitVectorEpochCountAccountingUnderConcurrentSeals) {
  // The count accounting the affine decode depends on: every bit-vector
  // report must contribute its histogram mass and its count increment to the
  // *same* epoch. Each synthetic report sets exactly kBitsPerReport bits, so
  // per sealed epoch Sum(histogram) == kBitsPerReport * count holds exactly
  // iff the epoch cut never splits a report — even with kIngestThreads
  // writers racing Seal() calls mid-flight (run under TSan in CI).
  const int n = 8;
  constexpr int kBitsPerReport = 3;
  const int reports_per_thread = 30000;

  auto workload = std::make_shared<const HistogramWorkload>(n);
  CollectionSession session(
      ReportDecoder(AffineDebias{0.75, 0.25}, WorkloadStats::From(*workload)),
      workload, kIngestThreads, ReportKind::kBitVector);
  ASSERT_EQ(session.report_kind(), ReportKind::kBitVector);

  // Pre-generate the streams so ingest threads share no RNG.
  std::vector<std::vector<std::vector<std::uint8_t>>> streams(kIngestThreads);
  Vector expected_total(n, 0.0);
  for (int t = 0; t < kIngestThreads; ++t) {
    Rng rng(700 + t);
    streams[t].reserve(reports_per_thread);
    for (int i = 0; i < reports_per_thread; ++i) {
      std::vector<std::uint8_t> bits(n, 0);
      int set = 0;
      while (set < kBitsPerReport) {  // Exactly kBitsPerReport distinct bits.
        const int o = rng.UniformInt(n);
        if (bits[o]) continue;
        bits[o] = 1;
        ++set;
        expected_total[o] += 1.0;
      }
      streams[t].push_back(std::move(bits));
    }
  }

  std::atomic<int> threads_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& bits : streams[t]) session.Accept(t, BitsReport(bits));
      threads_done.fetch_add(1);
    });
  }
  do {
    session.Seal();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (threads_done.load() < kIngestThreads);
  for (std::thread& t : threads) t.join();
  session.Seal();  // Flush the tail.

  Vector sealed_total(n, 0.0);
  std::int64_t sealed_count = 0;
  for (int e = 0; e < session.epochs_sealed(); ++e) {
    const auto snapshot = session.Snapshot(e);
    // The per-epoch invariant: count and histogram cut at the same boundary.
    EXPECT_EQ(Sum(snapshot->histogram),
              static_cast<double>(kBitsPerReport * snapshot->count))
        << "epoch " << e << " split a report across the seal";
    for (int o = 0; o < n; ++o) sealed_total[o] += snapshot->histogram[o];
    sealed_count += snapshot->count;
  }
  EXPECT_EQ(sealed_total, expected_total);
  EXPECT_EQ(sealed_count,
            static_cast<std::int64_t>(kIngestThreads) * reports_per_thread);
  EXPECT_EQ(session.total_responses(), sealed_count);
  EXPECT_EQ(session.pending_responses(), 0);
}

TEST(EstimateServerTest, AffineDecodeUsesPerEpochReportCounts) {
  // Two epochs with different report counts: the served unbiased estimate
  // must debias each window against that window's own N — the count plumbing
  // from EpochSnapshot through EstimateServer into the affine decoder.
  const int n = 4;
  const double p = 0.75, q = 0.25;
  auto workload = std::make_shared<const HistogramWorkload>(n);
  CollectionSession session(
      ReportDecoder(AffineDebias{p, q}, WorkloadStats::From(*workload)),
      workload, /*num_shards=*/1, ReportKind::kBitVector);
  EstimateServer server(&session);

  auto debias = [&](const Vector& y, std::int64_t count) {
    Vector x(n);
    for (int u = 0; u < n; ++u) {
      x[u] = (y[u] - static_cast<double>(count) * q) / (p - q);
    }
    return x;
  };

  // Epoch 0: 3 reports.
  session.Accept(0, BitsReport({1, 0, 1, 0}));
  session.Accept(0, BitsReport({0, 1, 0, 0}));
  session.Accept(0, BitsReport({1, 1, 1, 1}));
  const EpochSnapshot first = session.Seal();
  ASSERT_EQ(first.count, 3);
  EXPECT_EQ(server.Serve(EstimatorKind::kUnbiased).value().data_vector,
            debias(first.histogram, first.count));

  // Epoch 1: 1 report. Serving window 1 must use N = 1, window 2 N = 4.
  session.Accept(0, BitsReport({0, 0, 1, 1}));
  const EpochSnapshot second = session.Seal();
  ASSERT_EQ(second.count, 1);
  EXPECT_EQ(server.Serve(EstimatorKind::kUnbiased).value().data_vector,
            debias(second.histogram, second.count));
  const EpochSnapshot window = session.WindowTotal(2);
  ASSERT_EQ(window.count, 4);
  EXPECT_EQ(
      server.ServeWindow(2, EstimatorKind::kUnbiased).value().data_vector,
      debias(window.histogram, window.count));
}

TEST(ResponseParityTest, ShardedSessionMatchesSerialReferenceEndToEnd) {
  // Full-stack equivalence: randomize real users, feed the identical report
  // stream through a serial count and a concurrent session, and require
  // identical histograms (hence identical estimates).
  const int n = 5;
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const HistogramWorkload>(n);
  const LocalRandomizer randomizer(q);

  Rng rng(2026);
  const Vector truth{400, 100, 250, 50, 200};
  std::vector<Report> reports;
  for (int u = 0; u < n; ++u) {
    for (int j = 0; j < static_cast<int>(truth[u]); ++j) {
      reports.push_back(CategoricalReport(randomizer.Respond(u, rng)));
    }
  }

  const ReportDecoder decoder = ReportDecoder::FromAnalysis(
      FactorizationAnalysis(q, WorkloadStats::From(*workload)));
  CollectionSession session(decoder, workload, kIngestThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = reports.size() * t / kIngestThreads;
      const std::size_t end = reports.size() * (t + 1) / kIngestThreads;
      session.AcceptBatch(
          t, std::span<const Report>(&reports[begin], end - begin));
    });
  }
  for (std::thread& t : threads) t.join();
  const EpochSnapshot sealed = session.Seal();

  EXPECT_EQ(sealed.histogram, SerialHistogram(q.rows(), reports));
  EXPECT_EQ(sealed.count, static_cast<std::int64_t>(reports.size()));
}

// ---- unified kind-dispatched ingest ---------------------------------------

TEST(UnifiedIngestTest, AcceptDispatchesEveryReportKind) {
  // One entry point, three shapes: Accept(shard, Report) must land each kind
  // exactly where the per-kind methods would.
  ShardedAggregator categorical(/*num_outputs=*/3, /*num_shards=*/1);
  Report c;
  c.index = 2;
  categorical.Accept(0, c);
  EXPECT_EQ(categorical.Merge(), (Vector{0, 0, 1}));

  ShardedAggregator dense(/*num_outputs=*/3, /*num_shards=*/1,
                          ReportKind::kDense);
  Report d;
  d.dense = {0.5, -1.0, 2.0};
  dense.Accept(0, d);
  EXPECT_EQ(dense.Merge(), (Vector{0.5, -1.0, 2.0}));

  ShardedAggregator bits(/*num_outputs=*/3, /*num_shards=*/1,
                         ReportKind::kBitVector);
  Report b;
  b.bits = {1, 0, 1};
  bits.Accept(0, b);
  EXPECT_EQ(bits.Merge(), (Vector{1, 0, 1}));
  EXPECT_EQ(bits.num_responses(), 1);
}

// Makes ShardedAggregator count bits with `kernel` for the guard's scope.
class ScopedBitCountKernel {
 public:
  explicit ScopedBitCountKernel(const bit_counts::Kernel* kernel) {
    bit_counts::SetActiveForTesting(kernel);
  }
  ~ScopedBitCountKernel() { bit_counts::SetActiveForTesting(nullptr); }
  ScopedBitCountKernel(const ScopedBitCountKernel&) = delete;
  ScopedBitCountKernel& operator=(const ScopedBitCountKernel&) = delete;
};

TEST(UnifiedIngestTest, AcceptBatchMatchesPerReportAcceptForEveryKind) {
  Rng rng(81);
  for (const ReportKind kind : {ReportKind::kCategorical, ReportKind::kDense}) {
    const int m = 6;
    std::vector<Report> reports(500);
    for (Report& r : reports) {
      if (kind == ReportKind::kCategorical) {
        r.index = rng.UniformInt(m);
      } else {
        r.dense.resize(m);
        for (double& v : r.dense) v = rng.UniformInt(10);
      }
    }
    ShardedAggregator one_by_one(m, /*num_shards=*/2, kind);
    for (const Report& r : reports) one_by_one.Accept(0, r);
    ShardedAggregator batched(m, /*num_shards=*/2, kind);
    batched.AcceptBatch(1, reports);
    EXPECT_EQ(batched.Merge(), one_by_one.Merge())
        << "kind " << KindName(kind);
    EXPECT_EQ(batched.num_responses(), one_by_one.num_responses());
  }

  // Bit vectors are counted a packed word column at a time in byte-wide
  // counters that drain every 255 reports, by each build compiled in and
  // supported here (collect/bit_counts.h): widths straddle byte and word
  // edges, batch lengths straddle the drain, and all-ones reports fill
  // every byte counter to 255 before a drain.
  std::vector<const bit_counts::Kernel*> kernels = {&bit_counts::Portable()};
  if (bit_counts::Avx2() != nullptr) kernels.push_back(bit_counts::Avx2());
  for (const bit_counts::Kernel* kernel : kernels) {
    const ScopedBitCountKernel active(kernel);
    for (const int m : {1, 7, 8, 63, 64, 65, 511, 512, 513, 4097}) {
      for (const int k : {1, 2, 16, 17, 254, 255, 256, 257, 1000}) {
        for (const bool all_ones : {false, true}) {
          std::vector<Report> reports(k);
          Vector expected(m, 0.0);
          for (Report& r : reports) {
            std::vector<std::uint8_t> bytes(m, 1);
            if (!all_ones) {
              for (std::uint8_t& bit : bytes) {
                bit = static_cast<std::uint8_t>(rng.UniformInt(2));
              }
            }
            for (int o = 0; o < m; ++o) expected[o] += bytes[o];
            r.bits = PackedBits(bytes);
          }
          ShardedAggregator one_by_one(m, /*num_shards=*/2,
                                       ReportKind::kBitVector);
          for (const Report& r : reports) one_by_one.Accept(0, r);
          ShardedAggregator batched(m, /*num_shards=*/2,
                                    ReportKind::kBitVector);
          batched.AcceptBatch(1, reports);
          ASSERT_EQ(batched.Merge(), expected)
              << kernel->name << " m " << m << " k " << k << " all_ones "
              << all_ones;
          ASSERT_EQ(one_by_one.Merge(), expected)
              << kernel->name << " m " << m << " k " << k << " all_ones "
              << all_ones;
          EXPECT_EQ(batched.num_responses(), k);
          EXPECT_EQ(one_by_one.num_responses(), k);
        }
      }
    }
  }
}

TEST(UnifiedIngestTest, ConcurrentAcceptBatchConservesEveryReport) {
  // kIngestThreads writers push batched bit-vector reports through the
  // session's unified surface while Seal() races them (TSan-checked in CI);
  // no report may be lost or split.
  const int n = 8;
  const int per_thread = 400;
  auto workload = std::make_shared<const HistogramWorkload>(n);
  CollectionSession session(
      ReportDecoder(AffineDebias{0.75, 0.25}, WorkloadStats::From(*workload)),
      workload, kIngestThreads, ReportKind::kBitVector);

  std::vector<std::vector<Report>> streams(kIngestThreads);
  Vector expected(n, 0.0);
  for (int t = 0; t < kIngestThreads; ++t) {
    Rng rng(900 + t);
    for (int i = 0; i < per_thread; ++i) {
      std::vector<std::uint8_t> bytes(n);
      for (int o = 0; o < n; ++o) {
        bytes[o] = static_cast<std::uint8_t>(rng.UniformInt(2));
        expected[o] += bytes[o];
      }
      streams[t].push_back(BitsReport(bytes));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] { session.AcceptBatch(t, streams[t]); });
  }
  session.Seal();  // Race one cut against the in-flight batches.
  for (std::thread& t : threads) t.join();
  session.Seal();

  const EpochSnapshot total = session.WindowTotal(session.epochs_sealed());
  EXPECT_EQ(total.histogram, expected);
  EXPECT_EQ(total.count,
            static_cast<std::int64_t>(kIngestThreads) * per_thread);
}

// ---- snapshot restore (crash recovery / multi-node) -----------------------

TEST(SnapshotRestoreTest, TrySnapshotIsNotFoundUntilSealed) {
  auto session = MakeSession(/*n=*/4, /*num_shards=*/1);
  const auto missing = session->TrySnapshot(0);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  session->Accept(0, CategoricalReport(1));
  session->Seal();
  const auto found = session->TrySnapshot(0);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->count, 1);
  EXPECT_EQ(session->TrySnapshot(-1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session->TrySnapshot(1).status().code(), StatusCode::kNotFound);
}

TEST(SnapshotRestoreTest, RestoredEpochsCountLikeLocallySealedOnes) {
  auto source = MakeSession(/*n=*/4, /*num_shards=*/1);
  source->AcceptBatch(0, std::vector<Report>{
                               CategoricalReport(0), CategoricalReport(1),
                               CategoricalReport(1), CategoricalReport(2)});
  const EpochSnapshot sealed = source->Seal();

  auto target = MakeSession(/*n=*/4, /*num_shards=*/1);
  target->Accept(0, CategoricalReport(3));
  target->Seal();
  const StatusOr<int> restored = target->RestoreSealedEpoch(sealed);
  ASSERT_TRUE(restored.ok());
  // The adopted epoch gets the next *local* id — remote ids are bookkeeping.
  EXPECT_EQ(restored.value(), 1);
  EXPECT_EQ(target->epochs_sealed(), 2);
  EXPECT_EQ(target->total_responses(), 5);
  const EpochSnapshot window = target->WindowTotal(2);
  EXPECT_EQ(window.count, 5);
  EXPECT_EQ(window.histogram, (Vector{1, 2, 1, 1}));
}

TEST(SnapshotRestoreTest, RejectsMalformedSnapshots) {
  auto session = MakeSession(/*n=*/4, /*num_shards=*/1);
  EpochSnapshot wrong_dim;
  wrong_dim.histogram = {1.0};
  EXPECT_EQ(session->RestoreSealedEpoch(wrong_dim).status().code(),
            StatusCode::kInvalidArgument);

  EpochSnapshot negative;
  negative.histogram.assign(session->num_outputs(), 0.0);
  negative.count = -1;
  EXPECT_EQ(session->RestoreSealedEpoch(negative).status().code(),
            StatusCode::kInvalidArgument);

  EpochSnapshot poisoned;
  poisoned.histogram.assign(session->num_outputs(), 0.0);
  poisoned.histogram[1] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(session->RestoreSealedEpoch(poisoned).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->epochs_sealed(), 0);  // Nothing was adopted.
}

}  // namespace
}  // namespace wfm

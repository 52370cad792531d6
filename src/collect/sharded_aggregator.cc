#include "collect/sharded_aggregator.h"

#include "collect/bit_counts.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

/// target += value for the holder of the shard's writer lock: a plain load
/// and store, since no other thread stores to `target` meanwhile. Readers
/// load the old or the new value, never a torn one.
template <typename T>
void WriterAdd(std::atomic<T>& target, T value) {
  target.store(target.load(std::memory_order_relaxed) + value,
               std::memory_order_relaxed);
}

// Telemetry mirrors of the per-shard totals, routed to the obs stripe
// matching the caller's shard id so the extra relaxed add contends exactly
// as much as the shard counter it sits next to. Each batch records once —
// the same cadence as `Shard::total`, so a scrape equals num_responses() at
// quiescence.
Counter& IngestReports() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_ingest_reports_total");
  return counter;
}

Counter& IngestBatches() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_ingest_batches_total");
  return counter;
}

}  // namespace

const char* KindName(ReportKind kind) {
  switch (kind) {
    case ReportKind::kCategorical:
      return "categorical";
    case ReportKind::kDense:
      return "dense";
    case ReportKind::kBitVector:
      return "bit-vector";
  }
  return "unknown";
}

ShardedAggregator::ShardedAggregator(int num_outputs, int num_shards,
                                     ReportKind kind)
    : num_outputs_(num_outputs), kind_(kind) {
  WFM_CHECK_GT(num_outputs, 0);
  WFM_CHECK_GT(num_shards, 0);
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(num_outputs, kind));
  }
}

ShardedAggregator::Shard& ShardedAggregator::GetShard(int shard) {
  WFM_CHECK(shard >= 0 && shard < num_shards())
      << "shard id out of range:" << shard << "of" << num_shards();
  return *shards_[shard];
}

const ShardedAggregator::Shard& ShardedAggregator::GetShard(int shard) const {
  WFM_CHECK(shard >= 0 && shard < num_shards())
      << "shard id out of range:" << shard << "of" << num_shards();
  return *shards_[shard];
}

void ShardedAggregator::AcceptBatch(int shard,
                                    std::span<const Report> reports) {
  Shard& s = GetShard(shard);
  // Each kind takes the writer lock only where it starts to store into the
  // shard; dense sums its batch before that, outside the lock.
  std::unique_lock<std::mutex> writer(s.writer, std::defer_lock);
  switch (kind_) {
    case ReportKind::kCategorical:
      writer.lock();
      for (const Report& report : reports) {
        WFM_CHECK(!report.is_bits() && !report.is_dense())
            << "non-categorical report in a categorical batch";
        WFM_CHECK(report.index >= 0 && report.index < num_outputs_)
            << "response out of range:" << report.index
            << "for m =" << num_outputs_;
        WriterAdd(s.counts[report.index], std::int64_t{1});
      }
      break;
    case ReportKind::kBitVector:
      writer.lock();
      bit_counts::Add(bit_counts::Active(), reports, s.counts);
      break;
    case ReportKind::kDense: {
      Vector local(num_outputs_, 0.0);
      for (const Report& report : reports) {
        WFM_CHECK(report.is_dense()) << "non-dense report in a dense batch";
        WFM_CHECK_EQ(static_cast<int>(report.dense.size()), num_outputs_);
        for (int o = 0; o < num_outputs_; ++o) local[o] += report.dense[o];
      }
      writer.lock();
      for (int o = 0; o < num_outputs_; ++o) WriterAdd(s.dense[o], local[o]);
      break;
    }
  }
  WriterAdd(s.total, static_cast<std::int64_t>(reports.size()));
  writer.unlock();
  IngestReports().AddAt(shard, static_cast<std::int64_t>(reports.size()));
  IngestBatches().AddAt(shard, 1);
}

Vector ShardedAggregator::Merge() const {
  Vector y(num_outputs_, 0.0);
  for (const auto& shard : shards_) {
    if (kind_ != ReportKind::kDense) {
      for (int o = 0; o < num_outputs_; ++o) {
        const std::int64_t c = shard->counts[o].load(std::memory_order_relaxed);
        y[o] += static_cast<double>(c);
      }
    } else {
      for (int o = 0; o < num_outputs_; ++o) {
        y[o] += shard->dense[o].load(std::memory_order_relaxed);
      }
    }
  }
  return y;
}

std::int64_t ShardedAggregator::num_responses() const {
  std::int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->total.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace wfm

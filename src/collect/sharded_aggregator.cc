#include "collect/sharded_aggregator.h"

#include "collect/bit_counts.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

/// Relaxed atomic add for doubles via compare-exchange (portable across
/// compilers that lack lock-free fetch_add on floating point).
void AtomicAdd(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed)) {
  }
}

// Telemetry mirrors of the per-shard totals, routed to the obs stripe
// matching the caller's shard id so the extra relaxed add contends exactly
// as much as the shard counter it sits next to. Batched paths record once
// per batch, per-report paths once per report — the same cadence as
// `Shard::total`, so a scrape equals num_responses() at quiescence.
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

void ShardedAggregator::Accept(int shard, const Report& report) {
  if (kind_ == ReportKind::kBitVector) {
    // A batch of one: packed bits have exactly one counting path.
    AcceptBatch(shard, std::span<const Report>(&report, 1));
    return;
  }
  WFM_CHECK(!report.is_bits())
      << "bit-vector report on a" << KindName(kind_) << "aggregator";
  if (report.is_dense()) {
    AddDense(shard, report.dense);
  } else {
    Add(shard, report.index);
  }
}

void ShardedAggregator::AcceptBatch(int shard,
                                    std::span<const Report> reports) {
  // Small batches skip the scratch buffers (same break-even reasoning as
  // AddBatch's kScatterThreshold; dense reports touch m counters each, so
  // they amortize from the second report on). Bit vectors always take the
  // packed path, which Accept() routes a single report through.
  if (reports.size() < 2 && kind_ != ReportKind::kBitVector) {
    for (const Report& report : reports) Accept(shard, report);
    return;
  }
  Shard& s = GetShard(shard);
  switch (kind_) {
    case ReportKind::kCategorical: {
      std::vector<std::int64_t> local(num_outputs_, 0);
      for (const Report& report : reports) {
        WFM_CHECK(!report.is_bits() && !report.is_dense())
            << "non-categorical report in a categorical batch";
        WFM_CHECK(report.index >= 0 && report.index < num_outputs_)
            << "response out of range:" << report.index
            << "for m =" << num_outputs_;
        ++local[report.index];
      }
      for (int o = 0; o < num_outputs_; ++o) {
        if (local[o] != 0) {
          s.counts[o].fetch_add(local[o], std::memory_order_relaxed);
        }
      }
      break;
    }
    case ReportKind::kBitVector:
      bit_counts::Add(bit_counts::Active(), reports, s.counts);
      break;
    case ReportKind::kDense: {
      Vector local(num_outputs_, 0.0);
      for (const Report& report : reports) {
        WFM_CHECK(report.is_dense()) << "non-dense report in a dense batch";
        WFM_CHECK_EQ(static_cast<int>(report.dense.size()), num_outputs_);
        for (int o = 0; o < num_outputs_; ++o) local[o] += report.dense[o];
      }
      for (int o = 0; o < num_outputs_; ++o) {
        if (local[o] != 0.0) AtomicAdd(s.dense[o], local[o]);
      }
      break;
    }
  }
  s.total.fetch_add(static_cast<std::int64_t>(reports.size()),
                    std::memory_order_relaxed);
  IngestReports().AddAt(shard, static_cast<std::int64_t>(reports.size()));
  IngestBatches().AddAt(shard, 1);
}

void ShardedAggregator::Add(int shard, int response) {
  WFM_CHECK(kind_ == ReportKind::kCategorical)
      << "categorical Add on a" << KindName(kind_) << "aggregator";
  Shard& s = GetShard(shard);
  WFM_CHECK(response >= 0 && response < num_outputs_)
      << "response out of range:" << response << "for m =" << num_outputs_;
  s.counts[response].fetch_add(1, std::memory_order_relaxed);
  s.total.fetch_add(1, std::memory_order_relaxed);
  IngestReports().AddAt(shard, 1);
}

void ShardedAggregator::AddBatch(int shard, std::span<const int> responses) {
  WFM_CHECK(kind_ == ReportKind::kCategorical)
      << "categorical AddBatch on a" << KindName(kind_) << "aggregator";
  // Below this size the scratch histogram costs more than it saves.
  constexpr std::size_t kScatterThreshold = 16;
  Shard& s = GetShard(shard);
  if (responses.size() < kScatterThreshold) {
    for (const int response : responses) {
      WFM_CHECK(response >= 0 && response < num_outputs_)
          << "response out of range:" << response << "for m =" << num_outputs_;
      s.counts[response].fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Accumulate the batch into private scratch counts first, so the atomic
    // traffic is one add per touched output rather than one per report.
    std::vector<std::int64_t> local(num_outputs_, 0);
    for (const int response : responses) {
      WFM_CHECK(response >= 0 && response < num_outputs_)
          << "response out of range:" << response << "for m =" << num_outputs_;
      ++local[response];
    }
    for (int o = 0; o < num_outputs_; ++o) {
      if (local[o] != 0) s.counts[o].fetch_add(local[o], std::memory_order_relaxed);
    }
  }
  s.total.fetch_add(static_cast<std::int64_t>(responses.size()),
                    std::memory_order_relaxed);
  IngestReports().AddAt(shard, static_cast<std::int64_t>(responses.size()));
  IngestBatches().AddAt(shard, 1);
}

void ShardedAggregator::AddDense(int shard, std::span<const double> report) {
  WFM_CHECK(kind_ == ReportKind::kDense)
      << "dense AddDense on a" << KindName(kind_) << "aggregator";
  Shard& s = GetShard(shard);
  WFM_CHECK_EQ(static_cast<int>(report.size()), num_outputs_);
  for (int o = 0; o < num_outputs_; ++o) {
    AtomicAdd(s.dense[o], report[o]);
  }
  s.total.fetch_add(1, std::memory_order_relaxed);
  IngestReports().AddAt(shard, 1);
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

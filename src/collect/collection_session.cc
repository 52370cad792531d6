#include "collect/collection_session.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

// Epoch lifecycle telemetry. Seal() is rare (once per epoch) but its
// duration is the serving-path stall everyone ingesting feels, so it gets
// a full span; restores count epochs adopted from disk.
Histogram& SealDuration() {
  static Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("wfm_session_seal_duration_ns");
  return histogram;
}

Counter& SealsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_session_seals_total");
  return counter;
}

Counter& EpochsRestored() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "wfm_session_epochs_restored_total");
  return counter;
}

}  // namespace

CollectionSession::CollectionSession(
    std::shared_ptr<const ReportDecoder> decoder,
    std::shared_ptr<const Workload> workload, int num_shards,
    ReportKind report_kind)
    : workload_(std::move(workload)),
      num_outputs_(decoder != nullptr ? decoder->m() : 0),
      num_shards_(num_shards),
      report_kind_(report_kind) {
  WFM_CHECK(decoder != nullptr);
  WFM_CHECK(workload_ != nullptr);
  WFM_CHECK_EQ(workload_->domain_size(), decoder->n());
  WFM_CHECK_GT(num_shards_, 0);
  active_ = std::make_unique<ShardedAggregator>(num_outputs_, num_shards_,
                                                report_kind_);
  decoders_.push_back(std::move(decoder));
}

void CollectionSession::AcceptBatch(int shard,
                                    std::span<const Report> reports) {
  std::shared_lock<std::shared_mutex> lock(ingest_mutex_);
  active_->AcceptBatch(shard, reports);
}

EpochSnapshot CollectionSession::Seal() {
  ScopedTimer span(SealDuration());
  auto fresh = std::make_unique<ShardedAggregator>(num_outputs_, num_shards_,
                                                   report_kind_);
  std::unique_ptr<ShardedAggregator> sealed;
  {
    std::unique_lock<std::shared_mutex> lock(ingest_mutex_);
    sealed = std::exchange(active_, std::move(fresh));
  }
  // `sealed` is quiescent: the exclusive section above waited out every
  // in-flight Accept(), and new ones only see the fresh aggregator.
  EpochSnapshot snapshot;
  snapshot.histogram = sealed->Merge();
  snapshot.count = sealed->num_responses();
  {
    std::lock_guard<std::mutex> lock(snapshots_mutex_);
    snapshot.epoch_id = next_epoch_id_++;
    // The sealed epoch's reports were encoded under the version that was
    // active while they streamed in; any staged roll becomes active only
    // now, at the boundary, so no epoch is ever split across strategies.
    snapshot.strategy_version = active_version_;
    latest_ = std::make_shared<const EpochSnapshot>(snapshot);
    ++epochs_sealed_;
    sealed_count_ += snapshot.count;
    if (staged_decoder_ != nullptr) {
      active_version_ = static_cast<int>(decoders_.size());
      decoders_.push_back(std::move(staged_decoder_));
      staged_decoder_ = nullptr;
    }
  }
  SealsTotal().Increment();
  return snapshot;
}

int CollectionSession::strategy_version() const {
  std::lock_guard<std::mutex> lock(snapshots_mutex_);
  return active_version_;
}

int CollectionSession::StageRoll(std::shared_ptr<const ReportDecoder> decoder) {
  WFM_CHECK(decoder != nullptr);
  WFM_CHECK_EQ(decoder->m(), num_outputs_)
      << "rolled decoder must keep the session's report dimension";
  WFM_CHECK_EQ(decoder->n(), workload_->domain_size())
      << "rolled decoder must keep the session's domain size";
  std::lock_guard<std::mutex> lock(snapshots_mutex_);
  staged_decoder_ = std::move(decoder);
  return static_cast<int>(decoders_.size());
}

std::shared_ptr<const ReportDecoder> CollectionSession::DecoderForVersion(
    int version) const {
  std::lock_guard<std::mutex> lock(snapshots_mutex_);
  if (version < 0 || version >= static_cast<int>(decoders_.size())) {
    return nullptr;
  }
  return decoders_[version];
}

int CollectionSession::epochs_sealed() const {
  std::lock_guard<std::mutex> lock(snapshots_mutex_);
  return epochs_sealed_;
}

std::shared_ptr<const EpochSnapshot> CollectionSession::LatestSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshots_mutex_);
  return latest_;
}

StatusOr<int> CollectionSession::RestoreSealedEpoch(
    const EpochSnapshot& snapshot) {
  if (static_cast<int>(snapshot.histogram.size()) != num_outputs_) {
    return Status::InvalidArgument(
        "snapshot histogram has dimension " +
        std::to_string(snapshot.histogram.size()) +
        ", session expects m = " + std::to_string(num_outputs_));
  }
  if (snapshot.count < 0) {
    return Status::InvalidArgument("snapshot report count is negative: " +
                                   std::to_string(snapshot.count));
  }
  if (snapshot.strategy_version < 0) {
    return Status::InvalidArgument(
        "snapshot strategy version is negative: " +
        std::to_string(snapshot.strategy_version));
  }
  for (std::size_t o = 0; o < snapshot.histogram.size(); ++o) {
    // A restored snapshot arrives off disk; one NaN/Inf entry would poison
    // every estimate served from it.
    if (!std::isfinite(snapshot.histogram[o])) {
      return Status::InvalidArgument(
          "snapshot histogram entry is not finite at coordinate " +
          std::to_string(o));
    }
  }
  std::lock_guard<std::mutex> lock(snapshots_mutex_);
  // Ids only grow: reusing one would let the next seal overwrite a
  // persisted epoch that is still on disk.
  if (snapshot.epoch_id < next_epoch_id_) {
    return Status::InvalidArgument(
        "snapshot epoch id " + std::to_string(snapshot.epoch_id) +
        " is below the next free epoch id " +
        std::to_string(next_epoch_id_));
  }
  latest_ = std::make_shared<const EpochSnapshot>(snapshot);
  ++epochs_sealed_;
  next_epoch_id_ = snapshot.epoch_id + 1;
  sealed_count_ += snapshot.count;
  EpochsRestored().Increment();
  return snapshot.epoch_id;
}

std::int64_t CollectionSession::pending_responses() const {
  std::shared_lock<std::shared_mutex> lock(ingest_mutex_);
  return active_->num_responses();
}

std::int64_t CollectionSession::total_responses() const {
  // Both locks are held so a concurrent Seal() cannot move reports from
  // pending to sealed between the two reads. No deadlock: every other path
  // (including Seal) takes these locks sequentially, never nested.
  std::lock_guard<std::mutex> snapshots_lock(snapshots_mutex_);
  std::shared_lock<std::shared_mutex> ingest_lock(ingest_mutex_);
  return sealed_count_ + active_->num_responses();
}

}  // namespace wfm

#include "collect/estimate_server.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

// Cache effectiveness across every EstimateServer in the process: hits are
// served from the per-kind cache, misses pay a full decode + solve
// whose latency the histogram records.
Counter& CacheHits() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_estimate_cache_hits_total");
  return counter;
}

Counter& CacheMisses() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_estimate_cache_misses_total");
  return counter;
}

Histogram& SolveDuration() {
  static Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("wfm_estimate_solve_duration_ns");
  return histogram;
}

}  // namespace

EstimateServer::EstimateServer(const CollectionSession* session)
    : session_(session) {
  WFM_CHECK(session != nullptr);
}

StatusOr<WorkloadEstimate> EstimateServer::Serve(EstimatorKind kind) {
  const std::shared_ptr<const EpochSnapshot> snapshot =
      session_->LatestSnapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no sealed epoch to serve from");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++serves_;
  if (snapshot->epoch_id != cached_epoch_) {
    cache_.clear();
    cached_epoch_ = snapshot->epoch_id;
  }
  const auto it = cache_.find(kind);
  if (it != cache_.end()) {
    CacheHits().Increment();
    return it->second;
  }
  ++solves_;
  CacheMisses().Increment();
  ScopedTimer span(SolveDuration());

  const std::shared_ptr<const ReportDecoder> decoder =
      session_->DecoderForVersion(snapshot->strategy_version);
  if (decoder == nullptr) {
    return Status::FailedPrecondition(
        "epoch " + std::to_string(snapshot->epoch_id) +
        " was sealed under strategy version " +
        std::to_string(snapshot->strategy_version) +
        ", which has no decoder in this session's history");
  }
  // The snapshot carries its epoch's exact report count, which affine
  // decoders (RAPPOR/OUE) need to debias the aggregate.
  return cache_
      .emplace(kind, EstimateWorkloadAnswers(*decoder, session_->workload(),
                                             snapshot->histogram,
                                             snapshot->count, kind))
      .first->second;
}

std::int64_t EstimateServer::num_serves() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serves_;
}

std::int64_t EstimateServer::num_solves() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return solves_;
}

}  // namespace wfm

// Serves workload answers from a CollectionSession's latest sealed epoch.
//
// Reconstruction is the expensive half of serving — WNNLS in particular runs
// a projected solve per request — while sealed snapshots are immutable, so
// between two Seal() calls every query of the same estimator kind has the
// same answer. The server memoizes one estimate per kind and invalidates the
// cache when a newer epoch appears, giving read-heavy traffic O(1) lookups
// with at most one solve per (epoch, kind) pair.
//
// Serving before any epoch has been sealed is a recoverable service
// condition ("no data yet"), reported as kFailedPrecondition — not a crash.
//
// The epoch decodes under the strategy version it carries
// (CollectionSession::DecoderForVersion), so an epoch sealed before a roll
// took effect still decodes with the strategy its devices used.

#ifndef WFM_COLLECT_ESTIMATE_SERVER_H_
#define WFM_COLLECT_ESTIMATE_SERVER_H_

#include <cstdint>
#include <map>
#include <mutex>

#include "collect/collection_session.h"
#include "common/status.h"
#include "estimation/estimator.h"

namespace wfm {

class EstimateServer {
 public:
  /// `session` must outlive the server.
  explicit EstimateServer(const CollectionSession* session);

  /// Workload answers from the latest sealed epoch. kFailedPrecondition if
  /// nothing has been sealed yet, or if the epoch's strategy version has no
  /// decoder in the session's history.
  StatusOr<WorkloadEstimate> Serve(EstimatorKind kind);

  /// Requests answered (cache hits + solves).
  std::int64_t num_serves() const;

  /// Requests that actually ran the estimator (cache misses).
  std::int64_t num_solves() const;

 private:
  const CollectionSession* session_;

  // One mutex guards cache and counters; the solve itself runs under it, so
  // concurrent identical requests collapse into a single solve.
  mutable std::mutex mutex_;
  int cached_epoch_ = -1;  ///< Latest epoch id the cache entries belong to.
  std::map<EstimatorKind, WorkloadEstimate> cache_;
  std::int64_t serves_ = 0;
  std::int64_t solves_ = 0;
};

}  // namespace wfm

#endif  // WFM_COLLECT_ESTIMATE_SERVER_H_

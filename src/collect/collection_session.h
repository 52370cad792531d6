// One live collection campaign: a deployed mechanism's server-side decoder,
// its workload, a sharded aggregator for the reports currently streaming in,
// and the sealed history of previous epochs.
//
// The paper's protocol is one-round — each user reports once, the server
// aggregates, then reconstructs (ldp/protocol.h). A long-running service
// repeats that round over time: reports for the current *epoch* stream into
// fresh shards, and Seal() atomically freezes the epoch into an immutable
// EpochSnapshot{histogram, count, epoch_id} while ingestion continues into a
// new shard set. Per-epoch aggregates add (aggregation is linear), so an
// estimate over any window of epochs is just the estimate on the summed
// snapshots — the sliding-window analytics pattern ("last k hours") falls out
// of WindowTotal() with no extra privacy cost, since each user's single
// report participates in at most one epoch.
//
// A session ingests whatever report shape its mechanism emits
// (ldp/reporter.h): categorical response indices for strategy mechanisms,
// dense m-vectors for additive ones, or packed n-bit vectors for
// unary-encoding frequency oracles (RAPPOR/OUE), whose batches are counted
// a packed word column at a time (ShardedAggregator::AcceptBatch).
// api/Plan::StartSession wires a mechanism's Deployment into a session +
// EstimateServer pair.
//
// Each EpochSnapshot carries the exact report count of its epoch alongside
// the histogram. For linear decoders the count is bookkeeping; for affine
// decoders it is load-bearing — the debias x̂ = (y − N·q)/(p − q) needs the
// N behind each aggregate, so the epoch cut must assign every report's
// histogram contribution and its count increment to the same epoch (which
// the exclusive seal section guarantees).
//
// Concurrency contract: Accept() and AcceptBatch() may be called from any
// number of threads (each worker passing its own shard id keeps shards
// contention-free, but any shard id is safe); Seal(), snapshot accessors,
// and WindowTotal() may run concurrently with ingestion. A reader/writer
// lock around the active aggregator makes the epoch cut exact: Seal() waits
// for in-flight batches, so every report lands in exactly one epoch.
//
// Strategy rollover (adaptive/ serving): a session can roll to a new
// deployment mid-stream. StageRoll(decoder) parks the new decoder; the next
// Seal() — an epoch boundary — makes it active, so an epoch is never split
// across strategies. Every EpochSnapshot carries the strategy_version that
// was active while its reports streamed in, and DecoderForVersion() keeps
// the whole decoder history alive, so windowed estimates spanning a roll
// decode each epoch with exactly the strategy its devices used.

#ifndef WFM_COLLECT_COLLECTION_SESSION_H_
#define WFM_COLLECT_COLLECTION_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "collect/sharded_aggregator.h"
#include "common/status.h"
#include "estimation/decoder.h"
#include "ldp/reporter.h"
#include "linalg/matrix.h"
#include "workload/workload.h"

namespace wfm {

/// An immutable, sealed epoch: the report aggregate accumulated between two
/// Seal() calls (or session start and the first Seal()).
struct EpochSnapshot {
  int epoch_id = -1;        ///< 0-based seal order; -1 means "no epoch".
  std::int64_t count = 0;   ///< Reports in this epoch.
  int strategy_version = 0; ///< Strategy active while the epoch ingested.
  Vector histogram;         ///< m-dimensional report aggregate.

  friend bool operator==(const EpochSnapshot&, const EpochSnapshot&) = default;
};

class CollectionSession {
 public:
  /// `decoder` (non-null) is the offline-prepared server half of the
  /// deployment, shared with the plan and every other session of it (its
  /// m() fixes the report dimension); `workload` is what estimates answer;
  /// `report_kind` must match what the deployment's Reporter emits.
  CollectionSession(std::shared_ptr<const ReportDecoder> decoder,
                    std::shared_ptr<const Workload> workload, int num_shards,
                    ReportKind report_kind = ReportKind::kCategorical);

  /// The session's initial (version 0) decoder. After a roll, per-version
  /// decode goes through DecoderForVersion(); this accessor stays pinned to
  /// version 0 so references held across rolls never dangle.
  const ReportDecoder& decoder() const { return *DecoderForVersion(0); }
  const Workload& workload() const { return *workload_; }
  int num_shards() const { return num_shards_; }
  int num_outputs() const { return num_outputs_; }
  ReportKind report_kind() const { return report_kind_; }

  /// Ingests a batch of reports into the current epoch, counted per batch
  /// (see ShardedAggregator::AcceptBatch). Every report's shape must match
  /// the session's report_kind(). Thread-safe; this layer ingests
  /// pre-validated streams and aborts on malformed ones — untrusted reports
  /// go through api/PlanSession (or the wire/ service), which rejects them
  /// with kInvalidArgument first.
  void AcceptBatch(int shard, std::span<const Report> reports);

  /// Ingests one report: a batch of one.
  void Accept(int shard, const Report& report) {
    AcceptBatch(shard, std::span<const Report>(&report, 1));
  }

  /// Freezes the current epoch and starts a new one. Returns the sealed
  /// snapshot (also retained in the session's history). Waits for in-flight
  /// Accept() batches, so the epoch cut is exact; new batches proceed into
  /// fresh shards as soon as the swap is done, before the O(shards x m)
  /// merge runs.
  EpochSnapshot Seal();

  /// Number of epochs sealed so far.
  int epochs_sealed() const;

  /// Latest sealed snapshot, or nullptr if nothing has been sealed.
  std::shared_ptr<const EpochSnapshot> LatestSnapshot() const;

  /// Snapshot of a sealed epoch (0 <= epoch_id < epochs_sealed()); kNotFound
  /// when the epoch has not been sealed, which the wire layer maps to an
  /// HTTP-style 404.
  StatusOr<std::shared_ptr<const EpochSnapshot>> Snapshot(int epoch_id) const;

  /// Re-inserts a sealed epoch into the history — crash recovery (replaying
  /// a persisted store) or multi-node operation (adopting another node's
  /// sealed epoch). The snapshot is validated like any cross-boundary input
  /// (histogram dimension must equal num_outputs(), entries finite, count
  /// non-negative → kInvalidArgument otherwise) and is assigned the next
  /// local epoch id, which is returned. Thread-safe; counts toward
  /// WindowTotal()/total_responses() exactly like a locally sealed epoch.
  StatusOr<int> RestoreSealedEpoch(const EpochSnapshot& snapshot);

  /// Sum of the last min(last_k, epochs_sealed()) sealed snapshots. The
  /// returned epoch_id is the newest epoch included (-1 if none sealed yet,
  /// with a zero histogram); its strategy_version is the newest included
  /// version (meaningful to callers only when the window spans one version —
  /// version-aware windows should use WindowSnapshots()).
  EpochSnapshot WindowTotal(int last_k) const;

  /// The last min(last_k, epochs_sealed()) sealed snapshots, oldest first.
  std::vector<std::shared_ptr<const EpochSnapshot>> WindowSnapshots(
      int last_k) const;

  /// Version of the strategy whose reports are currently streaming into the
  /// unsealed epoch (0 until the first roll takes effect).
  int strategy_version() const;

  /// Stages a rolled deployment. The decoder takes effect at the next
  /// Seal(): the epoch being ingested now still seals under the current
  /// version (its devices encoded with the current strategy), and ingestion
  /// after that seal is tagged with the returned new version. The staged
  /// decoder (non-null) must keep the session's report dimension m and
  /// domain size (aborts otherwise); staging twice before a seal replaces
  /// the earlier staged decoder. Returns the version the staged strategy
  /// will carry once active.
  int StageRoll(std::shared_ptr<const ReportDecoder> decoder);

  /// Decoder history: the decoder that was active for `version` (0 is the
  /// construction-time decoder, the plan's own). nullptr for versions never
  /// activated or not yet active.
  std::shared_ptr<const ReportDecoder> DecoderForVersion(int version) const;

  /// Reports accepted into the current (unsealed) epoch so far.
  std::int64_t pending_responses() const;

  /// Reports accepted over the session lifetime (sealed + pending). Exact
  /// whenever no Seal() is mid-flight (a concurrently sealing epoch is
  /// counted once its snapshot publishes).
  std::int64_t total_responses() const;

 private:
  std::shared_ptr<const Workload> workload_;
  int num_outputs_;
  int num_shards_;
  ReportKind report_kind_;

  // Accept() holds this shared; Seal() holds it exclusive only for the
  // pointer swap, so ingestion stalls for O(1), not O(shards x m).
  mutable std::shared_mutex ingest_mutex_;
  std::unique_ptr<ShardedAggregator> active_;

  mutable std::mutex snapshots_mutex_;
  std::vector<std::shared_ptr<const EpochSnapshot>> snapshots_;
  std::int64_t sealed_count_ = 0;  ///< Total reports across sealed epochs.

  // Rollover state, guarded by snapshots_mutex_. decoders_[v] is the decoder
  // for version v; index 0 is the decoder the session was built with (for a
  // PlanSession, the plan's deployment decoder). staged_decoder_ is non-null
  // between StageRoll() and the Seal() that activates it.
  std::vector<std::shared_ptr<const ReportDecoder>> decoders_;
  std::shared_ptr<const ReportDecoder> staged_decoder_;
  int active_version_ = 0;
};

}  // namespace wfm

#endif  // WFM_COLLECT_COLLECTION_SESSION_H_

// Durable epoch snapshots and strategy files.
//
// Sealed epochs are the natural unit of crash recovery: a snapshot is
// immutable and carries its exact report count. SnapshotStore persists each
// sealed epoch as one file (`epoch-<id>.wfmsnap`, the wire/wire_format.h
// snapshot encoding, written to a temp name and atomically renamed so a
// crash mid-write never leaves a half snapshot behind). On restart,
// LoadAll() replays the sealed history in epoch order and the service
// serves identical estimates without a single device re-reporting.
//
// Strategy files are the offline/online split's hand-off (paper §6.6): the
// server optimizes a strategy once, saves it, and a later process loads it
// and deploys it with PlanBuilder::Strategy(). A strategy file is exactly the
// EncodeStrategy bytes (any number of Kronecker factors, a CRC, written by
// the same temp-file-plus-rename), and loading runs DecodeStrategy, so a
// corrupted or tampered file cannot load as a weaker mechanism than the
// budget it claims.

#ifndef WFM_WIRE_SNAPSHOT_STORE_H_
#define WFM_WIRE_SNAPSHOT_STORE_H_

#include <string>
#include <vector>

#include "api/plan.h"
#include "collect/collection_session.h"
#include "common/status.h"

namespace wfm {

/// Writes one strategy to `path` as its EncodeStrategy bytes (temp file +
/// rename). kInvalidArgument, with nothing written, when
/// ValidateFactoredStrategy rejects it at `strategy.epsilon`; kInternal on
/// I/O failure.
Status SaveStrategyFile(const std::string& path,
                        const StrategySnapshot& strategy);

/// Reads one strategy from `path`. kNotFound when the file does not exist,
/// kInvalidArgument when its bytes fail DecodeStrategy (structure, CRC, or
/// the strategy's validation at its recorded budget).
StatusOr<StrategySnapshot> LoadStrategyFile(const std::string& path);

/// A directory of sealed epochs, one file per epoch.
class SnapshotStore {
 public:
  /// `dir` is created (recursively) on the first Append if absent.
  explicit SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Persists one sealed epoch as `epoch-<id>.wfmsnap`. Re-appending an
  /// epoch id overwrites its file (snapshots are immutable, so the bytes can
  /// only be identical or a deliberate repair).
  Status Append(const EpochSnapshot& snapshot);

  /// Loads every persisted snapshot, sorted by epoch_id ascending. A missing
  /// directory is an empty history (fresh start), not an error. A file that
  /// fails to decode is quarantined — renamed to `<name>.wfmsnap.corrupt`,
  /// counted into wfm_snapshots_quarantined_total — and recovery continues
  /// with every healthy epoch, so one damaged file never takes serving down.
  StatusOr<std::vector<EpochSnapshot>> LoadAll() const;

 private:
  std::string dir_;
};

}  // namespace wfm

#endif  // WFM_WIRE_SNAPSHOT_STORE_H_

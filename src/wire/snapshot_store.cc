#include "wire/snapshot_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <utility>

#include "core/factored.h"
#include "obs/metrics.h"
#include "wire/wire_format.h"

namespace wfm {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSnapshotSuffix = ".wfmsnap";

std::string EpochFileName(int epoch_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "epoch-%08d", epoch_id);
  return std::string(name) + kSnapshotSuffix;
}

// Writes `bytes` to `path + ".tmp"` and renames it over `path`, so the file
// at `path` is always either the old one or the complete new one.
Status WriteFileAtomically(const std::string& path, const WireBytes& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open " + tmp + " for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) {
      return Status::Internal("short write to " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot rename " + tmp + " to " + path + ": " +
                            ec.message());
  }
  return Status::Ok();
}

// The whole file at `path`; kNotFound when it cannot be opened.
StatusOr<WireBytes> ReadFile(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(std::string("cannot open ") + what + " file " +
                            path);
  }
  return WireBytes((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
}

// Writes one snapshot to `path` in the wire encoding; kInternal on I/O
// failure.
Status SaveSnapshotFile(const std::string& path,
                        const EpochSnapshot& snapshot) {
  return WriteFileAtomically(path, EncodeSnapshot(snapshot));
}

// Reads one wire-encoded snapshot; kNotFound when the file does not exist,
// kInvalidArgument when its contents fail to decode.
StatusOr<EpochSnapshot> LoadSnapshotFile(const std::string& path) {
  StatusOr<WireBytes> bytes = ReadFile(path, "snapshot");
  if (!bytes.ok()) return bytes.status();
  StatusOr<EpochSnapshot> decoded = DecodeSnapshot(bytes.value());
  if (!decoded.ok()) {
    return Status::InvalidArgument("snapshot file " + path +
                                   " is corrupt: " +
                                   decoded.status().message());
  }
  return decoded;
}

}  // namespace

Status SaveStrategyFile(const std::string& path,
                        const StrategySnapshot& strategy) {
  if (Status valid = ValidateFactoredStrategy(strategy.strategy,
                                              strategy.epsilon);
      !valid.ok()) {
    return Status::InvalidArgument("refusing to save an invalid strategy: " +
                                   valid.message());
  }
  return WriteFileAtomically(path, EncodeStrategy(strategy));
}

StatusOr<StrategySnapshot> LoadStrategyFile(const std::string& path) {
  StatusOr<WireBytes> bytes = ReadFile(path, "strategy");
  if (!bytes.ok()) return bytes.status();
  StatusOr<StrategySnapshot> decoded = DecodeStrategy(bytes.value());
  if (!decoded.ok()) {
    return Status::InvalidArgument("strategy file " + path + " rejected: " +
                                   decoded.status().message());
  }
  return decoded;
}

Status SnapshotStore::Append(const EpochSnapshot& snapshot) {
  if (snapshot.epoch_id < 0) {
    return Status::InvalidArgument(
        "cannot persist a snapshot without an epoch id");
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot directory " + dir_ + ": " +
                            ec.message());
  }
  return SaveSnapshotFile((fs::path(dir_) / EpochFileName(snapshot.epoch_id))
                              .string(),
                          snapshot);
}

StatusOr<std::vector<EpochSnapshot>> SnapshotStore::LoadAll() const {
  std::vector<EpochSnapshot> snapshots;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return snapshots;  // Missing directory: fresh start.
  for (const fs::directory_entry& entry : it) {
    if (entry.path().extension() != kSnapshotSuffix) continue;
    StatusOr<EpochSnapshot> loaded = LoadSnapshotFile(entry.path().string());
    if (!loaded.ok()) {
      // One corrupt file must not take down recovery of the whole history:
      // quarantine it (rename out of the .wfmsnap namespace, so neither this
      // walk nor any later one retries it) and keep loading. The rename
      // preserves the bytes for forensics.
      std::error_code rename_ec;
      fs::rename(entry.path(), fs::path(entry.path().string() + ".corrupt"),
                 rename_ec);
      MetricsRegistry::Global()
          .GetCounter("wfm_snapshots_quarantined_total")
          .Increment();
      continue;
    }
    snapshots.push_back(std::move(loaded).value());
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const EpochSnapshot& a, const EpochSnapshot& b) {
              return a.epoch_id < b.epoch_id;
            });
  return snapshots;
}

}  // namespace wfm

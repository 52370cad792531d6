// Sharded, thread-safe report aggregation: the hot path of the online
// collection phase.
//
// Aggregating reports is embarrassingly parallel — the server only ever
// needs the m-dimensional sum y, and addition commutes — so the aggregator
// is an array of fixed-size shards, one per ingest worker. Workers bump
// per-shard counters (relaxed atomics, cache-line padded so shards never
// share a line); AcceptBatch first accumulates a batch into private scratch
// counts so the atomic traffic is one add per touched counter per batch,
// not one per report. Accept() is a batch of one. The server folds shards
// together with an O(shards x m) Merge() when it wants the aggregate.
//
// Three report kinds cover every deployable mechanism (ldp/reporter.h),
// with one counting routine each:
//   * kCategorical — strategy mechanisms; a batch counts response indices,
//     with one atomic add per report below kScatterThreshold and a scratch
//     histogram from there up. Counts are kept as integers, so Merge() over
//     a quiescent aggregator is *exactly* the histogram of the report
//     stream, independent of batch split, shard assignment and thread
//     interleaving (integer sums are associative; doubles represent them
//     exactly below 2^53).
//   * kBitVector — unary-encoding frequency oracles (RAPPOR, OUE); a batch
//     counts the set bits of each packed n-bit report per coordinate, one
//     packed 64-bit word column at a time into 64 byte-wide counters that
//     drain into int64 sums every 255 reports (collect/bit_counts.h): an
//     AVX2 positional popcount where the CPU has it (a broadcast, two
//     byte shuffles, compares and subtracts per word), a table lookup per
//     packed byte otherwise, never work per bit, and no heap scratch.
//     Same integer counters as kCategorical, so the exactness guarantee
//     carries over; one report bumps up to m counters but the report total
//     by exactly one (the count feeds the affine debias x̂ = (y − Nq)/(p−q)).
//   * kDense — additive mechanisms (distributed Matrix Mechanism); a batch
//     sums real m-vector reports into scratch, then lands with atomic
//     compare-exchange adds. Still linear and thread-safe, but
//     floating-point addition is not associative, so Merge() is
//     deterministic only up to rounding under concurrent ingestion (exact
//     for integer-valued reports).
// Merge() while ingestion is still running is safe but only guaranteed to
// see a subset of the in-flight increments.

#ifndef WFM_COLLECT_SHARDED_AGGREGATOR_H_
#define WFM_COLLECT_SHARDED_AGGREGATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ldp/reporter.h"
#include "linalg/matrix.h"

namespace wfm {

/// Shape of the reports an aggregator (or session) ingests.
enum class ReportKind {
  kCategorical,  ///< Response indices in [0, m); aggregate is a histogram.
  kDense,        ///< Real m-vectors; aggregate is the coordinatewise sum.
  kBitVector,    ///< m-bit vectors; aggregate counts set bits per coordinate.
};

/// Human-readable kind name for diagnostics ("categorical" / "dense" /
/// "bit-vector").
const char* KindName(ReportKind kind);

class ShardedAggregator {
 public:
  /// `num_outputs` is m, the report dimension of the mechanism;
  /// `num_shards` is typically the number of ingest workers.
  ShardedAggregator(int num_outputs, int num_shards,
                    ReportKind kind = ReportKind::kCategorical);

  int num_outputs() const { return num_outputs_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  ReportKind kind() const { return kind_; }

  /// Records one report on the given shard: a batch of one.
  void Accept(int shard, const Report& report) {
    AcceptBatch(shard, std::span<const Report>(&report, 1));
  }

  /// Records a batch of reports on the given shard; thread-safe. Every
  /// report's shape must match kind(); a mismatch aborts, as do
  /// out-of-range entries and shard ids: this layer ingests pre-validated
  /// streams, the api/ and wire/ layers reject untrusted malformed reports
  /// with Status first.
  void AcceptBatch(int shard, std::span<const Report> reports);

  /// Folds all shards into one aggregate, O(num_shards x num_outputs).
  /// Categorical and bit vectors: the exact integer counts once ingestion
  /// has stopped. Dense: exact up to floating-point commutation.
  Vector Merge() const;

  /// Total reports recorded across all shards.
  std::int64_t num_responses() const;

 private:
  // One worker's partial aggregate. alignas keeps the hot `total` counters
  // of different shards on different cache lines; the count arrays live in
  // separate heap blocks and do not interfere. Exactly one of
  // `counts`/`dense` is populated, per the aggregator's ReportKind (the
  // integer `counts` serve both the categorical and bit-vector kinds).
  struct alignas(64) Shard {
    Shard(int num_outputs, ReportKind kind)
        : counts(kind != ReportKind::kDense ? num_outputs : 0),
          dense(kind == ReportKind::kDense ? num_outputs : 0) {}
    std::vector<std::atomic<std::int64_t>> counts;
    std::vector<std::atomic<double>> dense;
    std::atomic<std::int64_t> total{0};
  };

  Shard& GetShard(int shard);
  const Shard& GetShard(int shard) const;

  int num_outputs_;
  ReportKind kind_;
  std::vector<std::unique_ptr<Shard>> shards_;  // Shard is immovable (atomics).
};

}  // namespace wfm

#endif  // WFM_COLLECT_SHARDED_AGGREGATOR_H_

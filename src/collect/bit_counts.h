// Per-coordinate set-bit counting for bit-vector batches, the counting half
// of ShardedAggregator::AcceptBatch on a kBitVector aggregator, in a
// portable build and an AVX2 build picked once at run time.
//
// Counting runs one packed 64-bit word column at a time: for word w, a
// kernel counts bit j of word w over up to 255 reports into 64 byte-wide
// counters, one per coordinate 64w + j. Add() drains those into 64 int64
// sums after every 255 reports and then adds every sum to its counter with
// a plain load and store (the caller is the counters' only writer), so a
// batch needs no scratch memory beyond a fixed 576 bytes of stack, whatever
// its length or m.
//
//   * Portable: kSpread[b] holds bit j of byte b in byte j, so adding it to
//     a 64-bit lane bumps the eight byte counters of one packed byte at
//     once; eight lanes cover the word.
//   * AVX2: a positional population count (Klarqvist, Muła and Lemire,
//     "Efficient Computation of Positional Population Counts Using SIMD
//     Instructions", 2021). The word is broadcast, vpshufb copies each byte
//     across 8 lanes, a vpand with 0x8040201008040201 keeps lane j's bit j,
//     vpcmpeqb against the same mask turns a set bit into -1, and vpsubb
//     adds it to 64 byte counters held in two ymm registers.
//
// Counts are integers, so both builds give the same sums. Private to the
// tree (not installed), for the tests and perf_suite that check and time
// each build.

#ifndef WFM_COLLECT_BIT_COUNTS_H_
#define WFM_COLLECT_BIT_COUNTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "ldp/reporter.h"

namespace wfm::bit_counts {

/// Reports one column call may count: a byte counter holds 255.
inline constexpr std::size_t kMaxColumnReports = 255;

/// out[j], j in [0, 64), = the number of `reports` (at most
/// kMaxColumnReports, each with more than 64 * word bits) whose packed
/// word `word` has bit j set.
using ColumnFn = void (*)(std::span<const Report> reports, std::size_t word,
                          std::uint8_t* out);

struct Kernel {
  const char* name;  ///< "portable" or "avx2".
  ColumnFn column;
};

/// The byte-lane build, available everywhere.
const Kernel& Portable();

/// The AVX2 build, or nullptr where it is not compiled in or the running
/// CPU lacks AVX2.
const Kernel* Avx2();

/// The build ShardedAggregator counts with: Avx2() when there is one, else
/// Portable(). Decided on first use.
const Kernel& Active();

/// Test hook: makes Active() return `kernel` (nullptr restores the run-time
/// choice). The counts are the same either way.
void SetActiveForTesting(const Kernel* kernel);

/// Adds to counts[o], for every o in [0, counts.size()), the number of
/// `reports` whose bit o is set, with a relaxed load and store per counter.
/// The caller must be the only thread storing to `counts` for the call
/// (ShardedAggregator holds the shard's writer lock); other threads may load
/// them meanwhile. Every report must be a bit vector of dimension
/// counts.size() (aborts otherwise). Allocates nothing.
void Add(const Kernel& kernel, std::span<const Report> reports,
         std::span<std::atomic<std::int64_t>> counts);

}  // namespace wfm::bit_counts

#endif  // WFM_COLLECT_BIT_COUNTS_H_

#include "collect/bit_counts.h"

#include <algorithm>
#include <array>

#include "common/check.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define WFM_HAVE_AVX2_BIT_COUNTS 1
#include <immintrin.h>
#else
#define WFM_HAVE_AVX2_BIT_COUNTS 0
#endif

namespace wfm::bit_counts {
namespace {

// kSpread[b] holds bit j of b in byte j, so adding it to a 64-bit word
// bumps eight byte-sized counters at once, one per bit of a packed byte.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> t{};
  for (int b = 0; b < 256; ++b) {
    for (int j = 0; j < 8; ++j) {
      t[b] |= static_cast<std::uint64_t>((b >> j) & 1) << (8 * j);
    }
  }
  return t;
}();

/// Lane k's byte j counts bit j of the word's byte k, coordinate 8k + j.
void ColumnPortable(std::span<const Report> reports, std::size_t word,
                    std::uint8_t* out) {
  std::uint64_t lanes[8] = {};
  for (const Report& report : reports) {
    const std::uint64_t bits = report.bits.words()[word];
    for (int k = 0; k < 8; ++k) lanes[k] += kSpread[(bits >> (8 * k)) & 0xFFu];
  }
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      out[8 * k + j] = static_cast<std::uint8_t>(lanes[k] >> (8 * j));
    }
  }
}

const Kernel kPortable = {"portable", ColumnPortable};

#if WFM_HAVE_AVX2_BIT_COUNTS

#define WFM_AVX2 __attribute__((target("avx2")))

/// Byte i of `low` counts coordinate i, byte i of `high` coordinate 32 + i.
/// vpshufb works within each 128-bit half, and the broadcast puts the whole
/// word in both halves, so byte i of the shuffled register is byte i / 8 of
/// the word (low) or byte 4 + i / 8 (high).
WFM_AVX2 void ColumnAvx2(std::span<const Report> reports, std::size_t word,
                         std::uint8_t* out) {
  const __m256i spread_low = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i spread_high = _mm256_setr_epi8(
      4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5,  //
      6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7);
  const __m256i bit_of_lane =
      _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ull));
  __m256i low = _mm256_setzero_si256();
  __m256i high = _mm256_setzero_si256();
  for (const Report& report : reports) {
    const __m256i bits = _mm256_set1_epi64x(
        static_cast<long long>(report.bits.words()[word]));
    const __m256i set_low = _mm256_cmpeq_epi8(
        _mm256_and_si256(_mm256_shuffle_epi8(bits, spread_low), bit_of_lane),
        bit_of_lane);
    const __m256i set_high = _mm256_cmpeq_epi8(
        _mm256_and_si256(_mm256_shuffle_epi8(bits, spread_high), bit_of_lane),
        bit_of_lane);
    low = _mm256_sub_epi8(low, set_low);
    high = _mm256_sub_epi8(high, set_high);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), low);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32), high);
}

const Kernel kAvx2 = {"avx2", ColumnAvx2};

#endif  // WFM_HAVE_AVX2_BIT_COUNTS

std::atomic<const Kernel*> g_testing_override{nullptr};

}  // namespace

const Kernel& Portable() { return kPortable; }

const Kernel* Avx2() {
#if WFM_HAVE_AVX2_BIT_COUNTS
  static const bool has = __builtin_cpu_supports("avx2");
  return has ? &kAvx2 : nullptr;
#else
  return nullptr;
#endif
}

const Kernel& Active() {
  const Kernel* kernel = g_testing_override.load(std::memory_order_acquire);
  if (kernel != nullptr) return *kernel;
  static const Kernel& chosen = Avx2() != nullptr ? *Avx2() : Portable();
  return chosen;
}

void SetActiveForTesting(const Kernel* kernel) {
  g_testing_override.store(kernel, std::memory_order_release);
}

void Add(const Kernel& kernel, std::span<const Report> reports,
         std::span<std::atomic<std::int64_t>> counts) {
  const std::size_t m = counts.size();
  for (const Report& report : reports) {
    WFM_CHECK(report.is_bits())
        << "non-bit-vector report in a bit-vector batch";
    WFM_CHECK_EQ(report.bits.size(), m);
  }
  alignas(32) std::uint8_t column[64];
  std::int64_t sums[64];
  for (std::size_t word = 0; 64 * word < m; ++word) {
    const std::size_t width = std::min<std::size_t>(64, m - 64 * word);
    std::fill_n(sums, width, 0);
    for (std::size_t begin = 0; begin < reports.size();
         begin += kMaxColumnReports) {
      kernel.column(reports.subspan(begin, std::min(kMaxColumnReports,
                                                    reports.size() - begin)),
                    word, column);
      for (std::size_t j = 0; j < width; ++j) sums[j] += column[j];
    }
    // Every sum lands, zeros too: a branch on random bits mispredicts more
    // often than a store of +0 costs.
    std::atomic<std::int64_t>* out = counts.data() + 64 * word;
    for (std::size_t j = 0; j < width; ++j) {
      out[j].store(out[j].load(std::memory_order_relaxed) + sums[j],
                   std::memory_order_relaxed);
    }
  }
}

}  // namespace wfm::bit_counts

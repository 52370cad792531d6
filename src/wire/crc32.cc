#include "wire/crc32.h"

#include <array>
#include <span>

#include "wire/byte_order.h"
#include "wire/wire_format.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define WFM_HAVE_PCLMUL_CRC 1
#include <immintrin.h>
#else
#define WFM_HAVE_PCLMUL_CRC 0
#endif

namespace wfm::crc32 {
namespace {

// Table k advances a byte's contribution past k further zero bytes, so one
// step folds 8 input bytes with 8 independent lookups.
const std::array<std::array<std::uint32_t, 256>, 8>& SliceTables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

#if WFM_HAVE_PCLMUL_CRC

#define WFM_PCLMUL __attribute__((target("pclmul,sse4.1")))

// Loading 16 bytes at kShiftTable + 16 + r gives the pshufb control that
// shifts a register down by r bytes; at kShiftTable + r, the control that
// shifts it up by 16 - r bytes (0x80 lanes read as zero).
alignas(16) constexpr std::uint8_t kShiftTable[48] = {
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,  //
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,  //
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,  //
    0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F,  //
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,  //
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80};

WFM_PCLMUL inline __m128i Load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries the 128-bit remainder `x` forward over the distance its
/// constants encode and adds the block found there.
WFM_PCLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i block) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       block);
}

// In the bit-reflected domain a register's low bytes are the earliest
// message bytes. The fold constants are x^d mod P for the fold distances d
// (the low qword multiplies the low half, the high qword the high half);
// kMuPoly is the Barrett constant floor(x^64 / P) beside P itself.
WFM_PCLMUL std::uint32_t CrcPclmul(std::uint32_t seed,
                                   const std::uint8_t* data,
                                   std::size_t size) {
  if (size < 16) return Portable(seed, data, size);
  const __m128i k_fold512 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k_fold128 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k_fold64 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i k_mu_poly = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  const std::uint8_t* p = data;
  std::size_t left = size;
  // The register enters as the first 32 bits of the message.
  __m128i x =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(seed)));
  p += 16;
  left -= 16;
  if (left >= 48) {
    __m128i x1 = x;
    __m128i x2 = Load(p);
    __m128i x3 = Load(p + 16);
    __m128i x4 = Load(p + 32);
    p += 48;
    left -= 48;
    for (; left >= 64; p += 64, left -= 64) {
      x1 = Fold(x1, k_fold512, Load(p));
      x2 = Fold(x2, k_fold512, Load(p + 16));
      x3 = Fold(x3, k_fold512, Load(p + 32));
      x4 = Fold(x4, k_fold512, Load(p + 48));
    }
    x = Fold(x1, k_fold128, x2);
    x = Fold(x, k_fold128, x3);
    x = Fold(x, k_fold128, x4);
  }
  for (; left >= 16; p += 16, left -= 16) x = Fold(x, k_fold128, Load(p));
  if (left > 0) {
    // r = left < 16 bytes remain. The message is now x's 16 bytes then
    // those r: the first r bytes of x, and one full block made of x's
    // other 16 - r bytes followed by the r new ones, read as the last 16
    // bytes of the input (which overlap bytes already folded).
    const __m128i up = Load(kShiftTable + left);
    const __m128i head = _mm_shuffle_epi8(x, up);
    const __m128i down = _mm_shuffle_epi8(x, Load(kShiftTable + 16 + left));
    const __m128i block = _mm_blendv_epi8(Load(p + left - 16), down, up);
    x = Fold(head, k_fold128, block);
  }
  // 128 -> 96 -> 64 bits, each step appending 32 zero bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k_fold128, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_fold64,
                                         0x00));
  // Barrett reduction of the 64-bit remainder to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_mu_poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k_mu_poly, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x, 1)) ^ 0xFFFFFFFFu;
}

#endif  // WFM_HAVE_PCLMUL_CRC

}  // namespace

std::uint32_t Portable(std::uint32_t seed, const std::uint8_t* data,
                       std::size_t size) {
  const auto& tables = SliceTables();
  std::uint32_t crc = seed;
  const std::uint8_t* p = data;
  std::size_t left = size;
  for (; left >= 8; p += 8, left -= 8) {
    const std::uint32_t lo = GetU32(p) ^ crc;
    const std::uint32_t hi = GetU32(p + 4);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; left > 0; ++p, --left) {
    crc = tables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Crc32Fn Pclmul() {
#if WFM_HAVE_PCLMUL_CRC
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has ? &CrcPclmul : nullptr;
#else
  return nullptr;
#endif
}

Crc32Fn Active() {
  static const Crc32Fn chosen = Pclmul() != nullptr ? Pclmul() : &Portable;
  return chosen;
}

}  // namespace wfm::crc32

namespace wfm {

std::uint32_t WireCrc32(std::span<const std::uint8_t> data) {
  return crc32::Active()(crc32::kInitialRegister, data.data(), data.size());
}

}  // namespace wfm

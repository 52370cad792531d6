// The two builds of WireCrc32 (wire_format.h), both CRC-32/IEEE: initial
// value 0xFFFFFFFF, bit-reflected polynomial 0xEDB88320, final xor
// 0xFFFFFFFF.
//
//   * Portable: slicing-by-8, eight table lookups per 8 input bytes. Runs
//     everywhere, and is the reference the other build is tested against.
//   * PCLMUL: folds 4 x 128 bits per step by carry-less multiplication
//     (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//     PCLMULQDQ", Intel 2009), then 128 bits at a time, takes the last
//     partial block as one overlapped 16-byte load, and ends with a Barrett
//     reduction. Compiled with a per-function target attribute, like the
//     linalg/kernels.h builds, and picked at run time when the CPU has
//     PCLMULQDQ and SSE4.1. Inputs shorter than 16 bytes use the portable
//     loop.
//
// Both take a seed, the raw CRC register to start from, and return the
// CRC with the final xor applied. WireCrc32(data) is the seed-0xFFFFFFFF
// case; a caller that knows the register after a fixed prefix (a report
// envelope's 8-byte header, wire_format.cc) continues from it over the
// bytes after the prefix, since Fn(seed, b) ^ 0xFFFFFFFF is the register
// after b. Both return the same CRC for the same seed and bytes, so the
// wire bytes do not depend on which one ran. Private to the tree (not
// installed): the library calls WireCrc32 and Active(), and tests and
// perf_suite reach each build here.

#ifndef WFM_WIRE_CRC32_H_
#define WFM_WIRE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace wfm::crc32 {

/// The CRC of `size` bytes at `data` from the register `seed`.
using Crc32Fn = std::uint32_t (*)(std::uint32_t seed, const std::uint8_t* data,
                                  std::size_t size);

/// The register CRC-32/IEEE starts from.
inline constexpr std::uint32_t kInitialRegister = 0xFFFFFFFFu;

/// Slicing-by-8.
std::uint32_t Portable(std::uint32_t seed, const std::uint8_t* data,
                       std::size_t size);

/// The PCLMULQDQ folding build, or nullptr where it is not compiled in or
/// the running CPU lacks PCLMULQDQ or SSE4.1.
Crc32Fn Pclmul();

/// The build WireCrc32 runs: Pclmul() when there is one, else Portable.
/// Decided on first use.
Crc32Fn Active();

}  // namespace wfm::crc32

#endif  // WFM_WIRE_CRC32_H_

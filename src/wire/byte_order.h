// Little-endian integer fields, the byte order of every integer on the wire
// (wire_format.h envelopes, wire/service.h frames). Put* appends to a
// growing buffer, Store* writes at a position the caller has already sized,
// and Get* reads; all are byte-by-byte, so they do not depend on the host's
// byte order or on alignment.

#ifndef WFM_WIRE_BYTE_ORDER_H_
#define WFM_WIRE_BYTE_ORDER_H_

#include <cstdint>
#include <vector>

namespace wfm {

inline void StoreU32(std::uint8_t* p, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

inline void StoreU64(std::uint8_t* p, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

inline std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = v << 8 | p[b];
  return v;
}

}  // namespace wfm

#endif  // WFM_WIRE_BYTE_ORDER_H_

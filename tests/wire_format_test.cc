// Tests for the wire/ serialization layer: round-trip identity for every
// report kind and for snapshots/estimates, the succinctness guarantee for
// packed bit-vector reports, and the trust boundary — every structurally
// defective buffer (truncation, oversize, any single flipped bit, wrong
// magic, unknown version, non-canonical padding, out-of-range fields) is
// rejected with kInvalidArgument, never a crash. Also covers durability:
// SnapshotStore kill-and-recover serving identical estimates.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "collect/collection_session.h"
#include "collect/estimate_server.h"
#include "core/factorization.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "wire/byte_order.h"
#include "wire/crc32.h"
#include "wire/snapshot_store.h"
#include "wire/wire_format.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

// A libFuzzer target (defined at the end of this file) over the report and
// batch decoders: decodes the input both ways and aborts when either
// disagrees with the spec oracle.
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace wfm {
namespace {

// Re-stamps the CRC trailer after a test patches header/payload bytes, so
// the corruption under test (and not the checksum) is what the decoder sees.
void RestampCrc(WireBytes& buffer) {
  const std::uint32_t crc =
      WireCrc32(std::span<const std::uint8_t>(buffer.data(),
                                              buffer.size() - 4));
  buffer[buffer.size() - 4] = static_cast<std::uint8_t>(crc);
  buffer[buffer.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
  buffer[buffer.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
  buffer[buffer.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
}

Report CategoricalReport(int index) {
  Report r;
  r.index = index;
  return r;
}

Report DenseReport(Vector v) {
  Report r;
  r.dense = std::move(v);
  return r;
}

Report BitsReport(std::vector<std::uint8_t> bits) {
  Report r;
  r.bits = PackedBits(bits);
  return r;
}

// One input byte of CRC-32/IEEE straight from the reflected polynomial, one
// bit at a time: the reference every build of WireCrc32 must match.
std::uint32_t ReferenceCrc32Step(std::uint32_t crc, std::uint8_t byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k) {
    crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc;
}

std::uint32_t ReferenceCrc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) crc = ReferenceCrc32Step(crc, byte);
  return crc ^ 0xFFFFFFFFu;
}

TEST(WireCrcTest, MatchesTheStandardCheckValueAndABytewiseReference) {
  // WireCrc32 and every build compiled in and supported here (wire/crc32.h),
  // not only the one this CPU picks. The builds start from the standard
  // register and, for a buffer of at least 8 bytes, from the register after
  // its first 8 bytes (as a report envelope's fixed header is skipped).
  std::vector<std::pair<const char*, crc32::Crc32Fn>> builds = {
      {"portable", &crc32::Portable}};
  if (crc32::Pclmul() != nullptr) builds.emplace_back("pclmul", crc32::Pclmul());

  const std::string check = "123456789";
  const auto* check_bytes = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(WireCrc32(std::span<const std::uint8_t>(check_bytes, check.size())),
            0xCBF43926u);
  for (const auto& [name, crc] : builds) {
    EXPECT_EQ(crc(crc32::kInitialRegister, check_bytes, check.size()),
              0xCBF43926u)
        << name;
  }

  // Every length 0..4096 from every start offset mod 16, so the 4 x 16-byte
  // folds, the 16-byte folds, the overlapped tail and the 8-byte table
  // steps meet at every alignment and remainder. The reference runs along
  // each offset's prefixes one byte at a time.
  constexpr std::size_t kMaxLength = 4096;
  constexpr std::size_t kSkipped = 8;
  Rng rng(17);
  std::vector<std::uint8_t> buffer(kMaxLength + 16);
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* data = buffer.data() + offset;
    std::uint32_t state = crc32::kInitialRegister;
    std::uint32_t skipped_state = state;
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      if (length > 0) state = ReferenceCrc32Step(state, data[length - 1]);
      if (length == kSkipped) skipped_state = state;
      ASSERT_EQ(WireCrc32(std::span<const std::uint8_t>(data, length)),
                state ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << length;
      for (const auto& [name, crc] : builds) {
        ASSERT_EQ(crc(crc32::kInitialRegister, data, length),
                  state ^ 0xFFFFFFFFu)
            << name << " offset " << offset << " length " << length;
        if (length >= kSkipped) {
          ASSERT_EQ(crc(skipped_state, data + kSkipped, length - kSkipped),
                    state ^ 0xFFFFFFFFu)
              << name << " seeded, offset " << offset << " length "
              << length;
        }
      }
    }
  }
}

TEST(WireReportTest, CategoricalRoundTripsExactly) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const Report report = CategoricalReport(rng.UniformInt(1 << 20));
    const WireBytes wire = EncodeReport(report);
    const StatusOr<Report> decoded = DecodeReport(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), report);
  }
}

TEST(WireReportTest, DenseRoundTripsBitForBit) {
  Rng rng(12);
  for (const int m : {1, 2, 7, 64, 257}) {
    Vector v(m);
    for (double& x : v) x = rng.Normal() * 1e6;
    v[0] = 0.0;
    if (m > 1) v[1] = -0.0;  // Signed zero must survive the wire.
    const Report report = DenseReport(v);
    const StatusOr<Report> decoded = DecodeReport(EncodeReport(report));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), report);
  }
}

TEST(WireReportTest, BitVectorRoundTripsEveryWidth) {
  Rng rng(13);
  // Widths straddling byte boundaries: the padding logic differs for each
  // residue of n mod 8.
  for (int n = 1; n <= 40; ++n) {
    std::vector<std::uint8_t> bits(n);
    for (std::uint8_t& b : bits) {
      b = static_cast<std::uint8_t>(rng.UniformInt(2));
    }
    const Report report = BitsReport(bits);
    const StatusOr<Report> decoded = DecodeReport(EncodeReport(report));
    ASSERT_TRUE(decoded.ok()) << "n=" << n << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), report);
  }
}

TEST(WireReportTest, PackedBitsOccupyCeilNOver8PayloadBytes) {
  // The acceptance criterion verbatim: an n-bit report costs ceil(n/8)
  // payload bytes plus the fixed envelope — 8x smaller than byte-per-bit.
  for (const int n : {1, 7, 8, 9, 64, 1000, 1001}) {
    const Report report = BitsReport(std::vector<std::uint8_t>(n, 1));
    const WireBytes wire = EncodeReport(report);
    EXPECT_EQ(wire.size(),
              kWireEnvelopeBytes + static_cast<std::size_t>((n + 7) / 8))
        << "n=" << n;
  }
}

// The envelope of `report` written field by field from the file comment of
// wire_format.h, with the bytewise reference CRC: the spec the in-place
// encoder must reproduce.
WireBytes SpecEnvelope(const Report& report) {
  WireBytes out = {'W', 'F', 'R', 'P', kWireVersion, 0, 0, 0};
  const auto put_u32 = [&out](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  if (report.is_bits()) {
    out[5] = 2;
    put_u32(static_cast<std::uint32_t>(report.bits.size()));
    WireBytes payload((report.bits.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < report.bits.size(); ++i) {
      payload[i / 8] |= static_cast<std::uint8_t>(report.bits[i] << (i % 8));
    }
    out.insert(out.end(), payload.begin(), payload.end());
  } else if (report.is_dense()) {
    out[5] = 1;
    put_u32(static_cast<std::uint32_t>(report.dense.size()));
    for (const double v : report.dense) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      put_u32(static_cast<std::uint32_t>(bits));
      put_u32(static_cast<std::uint32_t>(bits >> 32));
    }
  } else {
    put_u32(static_cast<std::uint32_t>(report.index) + 1);
    put_u32(static_cast<std::uint32_t>(report.index));
  }
  put_u32(ReferenceCrc32(out));
  return out;
}

// One report of each kind, for n in {1, 63, 64, 65, 512}.
std::vector<Report> ReportsOfEveryKind(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Report> reports;
  for (const int n : {1, 63, 64, 65, 512}) {
    reports.push_back(CategoricalReport(n - 1));
    Vector dense(n);
    for (double& v : dense) v = rng.Normal();
    dense[0] = -0.0;
    reports.push_back(DenseReport(dense));
    std::vector<std::uint8_t> bits(n);
    for (std::uint8_t& b : bits) {
      b = static_cast<std::uint8_t>(rng.UniformInt(2));
    }
    bits[n - 1] = 1;  // The last bit sits next to the padding.
    reports.push_back(BitsReport(bits));
  }
  return reports;
}

TEST(WireReportTest, AppendReportWritesTheSpecEnvelopeAfterWhatIsThere) {
  // AppendReport writes in place onto the end of a buffer that already holds
  // bytes; EncodeReport is AppendReport onto an empty one. Both must be the
  // spec's bytes exactly, and the earlier bytes must be left alone.
  for (const Report& report : ReportsOfEveryKind(21)) {
    const WireBytes spec = SpecEnvelope(report);
    EXPECT_EQ(EncodeReport(report), spec);
    WireBytes out = {0xde, 0xad, 0xbe};
    AppendReport(out, report);
    ASSERT_EQ(out.size(), 3 + spec.size());
    EXPECT_EQ(WireBytes(out.begin(), out.begin() + 3),
              (WireBytes{0xde, 0xad, 0xbe}));
    EXPECT_EQ(WireBytes(out.begin() + 3, out.end()), spec);
  }
}

TEST(WireReportTest, GoldenEnvelopesPinTheWireBytes) {
  // One envelope per kind, pinned byte for byte: the encoders may change,
  // the wire may not (kWireVersion stays 1).
  EXPECT_EQ(EncodeReport(CategoricalReport(41)),
            (WireBytes{0x57, 0x46, 0x52, 0x50, 0x01, 0x00, 0x00, 0x00, 0x2a,
                       0x00, 0x00, 0x00, 0x29, 0x00, 0x00, 0x00, 0xcf, 0x3e,
                       0xdc, 0xd0}));
  EXPECT_EQ(EncodeReport(DenseReport({1.5, -0.0, -2.25e-3})),
            (WireBytes{0x57, 0x46, 0x52, 0x50, 0x01, 0x01, 0x00, 0x00, 0x03,
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x80, 0x3b, 0xdf, 0x4f, 0x8d, 0x97, 0x6e, 0x62, 0xbf,
                       0x21, 0x01, 0x8b, 0x76}));
  EXPECT_EQ(EncodeReport(BitsReport({1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1})),
            (WireBytes{0x57, 0x46, 0x52, 0x50, 0x01, 0x02, 0x00, 0x00, 0x0d,
                       0x00, 0x00, 0x00, 0x21, 0x11, 0x2c, 0x2a, 0x6e, 0xbd}));
}

TEST(WireReportTest, DecodeReportIntoOneReportMatchesDecodeReport) {
  // One target Report decodes every kind in turn; each result must be
  // exactly what a fresh DecodeReport gives, whatever the target held.
  Rng rng(22);
  const auto bits_report = [&rng](int n) {
    std::vector<std::uint8_t> bits(n);
    for (std::uint8_t& b : bits) {
      b = static_cast<std::uint8_t>(rng.UniformInt(2));
    }
    return BitsReport(bits);
  };
  const std::vector<Report> sequence = {
      bits_report(512), CategoricalReport(300), bits_report(65),
      DenseReport({2.0, -0.0, 1e-300, -7.5}), bits_report(512),
      bits_report(512)};
  Report target;
  const std::uint64_t* words_before = nullptr;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    const WireBytes wire = EncodeReport(sequence[k]);
    ASSERT_TRUE(DecodeReportInto(wire, target).ok()) << "step " << k;
    const StatusOr<Report> fresh = DecodeReport(wire);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(target, fresh.value()) << "step " << k;
    EXPECT_EQ(target, sequence[k]) << "step " << k;
    if (k == 5) {
      // bits-512 into a bits-512 target reuses its words.
      EXPECT_EQ(target.bits.words().data(), words_before);
    }
    words_before = target.is_bits() ? target.bits.words().data() : nullptr;
  }

  // A rejected buffer leaves the target as it was.
  const Report kept = target;
  WireBytes corrupt = EncodeReport(bits_report(512));
  corrupt[kWireHeaderBytes + 3] ^= 0x10;
  EXPECT_FALSE(DecodeReportInto(corrupt, target).ok());
  EXPECT_EQ(target, kept);
  WireBytes padded = EncodeReport(bits_report(65));
  padded[kWireHeaderBytes + 8] |= 0x80;  // A padding bit past n = 65.
  RestampCrc(padded);
  EXPECT_FALSE(DecodeReportInto(padded, target).ok());
  EXPECT_EQ(target, kept);
}

TEST(WireReportTest, DecodeReportIntoKeepsOnlyTheStorageOfItsReport) {
  // Storage is reused when it already has the incoming report's size and
  // released otherwise, so a reused Report never holds more than the
  // report it carries: a large report decoded once cannot stay pinned.
  Report target;
  ASSERT_TRUE(DecodeReportInto(EncodeReport(DenseReport(Vector(4096, 1.5))),
                               target)
                  .ok());
  EXPECT_EQ(target.dense.capacity(), 4096u);
  ASSERT_TRUE(
      DecodeReportInto(EncodeReport(DenseReport({2.0, 3.0})), target).ok());
  EXPECT_EQ(target.dense.capacity(), 2u);
  const double* dense_before = target.dense.data();
  ASSERT_TRUE(
      DecodeReportInto(EncodeReport(DenseReport({4.0, 5.0})), target).ok());
  EXPECT_EQ(target.dense.data(), dense_before);  // same size: reused
  EXPECT_EQ(target.dense, (Vector{4.0, 5.0}));

  ASSERT_TRUE(DecodeReportInto(EncodeReport(DenseReport(Vector(4096, 1.5))),
                               target)
                  .ok());
  ASSERT_TRUE(DecodeReportInto(EncodeReport(BitsReport(
                                   std::vector<std::uint8_t>(512, 1))),
                               target)
                  .ok());
  EXPECT_EQ(target.dense.capacity(), 0u);
  EXPECT_EQ(target.bits.words().size(), 8u);
  ASSERT_TRUE(
      DecodeReportInto(EncodeReport(BitsReport({1, 0, 1})), target).ok());
  EXPECT_EQ(target.bits.words().size(), 1u);
  ASSERT_TRUE(DecodeReportInto(EncodeReport(DenseReport(Vector(4096, 1.5))),
                               target)
                  .ok());
  ASSERT_TRUE(
      DecodeReportInto(EncodeReport(CategoricalReport(9)), target).ok());
  EXPECT_EQ(target.dense.capacity(), 0u);
  EXPECT_EQ(target.bits.words().data(), nullptr);
  EXPECT_EQ(target, CategoricalReport(9));
}

TEST(WireReportTest, BatchBodyRoundTripsIntoReusedReports) {
  // AppendReportBatch writes `u32 count | count x (u32 len | envelope)`;
  // DecodeReportBatchInto parses it into a vector kept across batches, which
  // grows to the largest batch and never shrinks.
  std::vector<Report> scratch;
  for (const std::uint64_t seed : {31, 32, 33}) {
    std::vector<Report> reports = ReportsOfEveryKind(seed);
    if (seed == 32) reports.resize(4);
    WireBytes body = {0x77};
    AppendReportBatch(body, reports);
    WireBytes expected = {0x77, static_cast<std::uint8_t>(reports.size()), 0,
                          0, 0};
    for (const Report& report : reports) {
      const WireBytes wire = SpecEnvelope(report);
      const std::uint32_t len = static_cast<std::uint32_t>(wire.size());
      for (int b = 0; b < 4; ++b) {
        expected.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
      }
      expected.insert(expected.end(), wire.begin(), wire.end());
    }
    ASSERT_EQ(body, expected) << "seed " << seed;

    const StatusOr<std::size_t> count = DecodeReportBatchInto(
        std::span<const std::uint8_t>(body).subspan(1), scratch);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(count.value(), reports.size());
    EXPECT_EQ(scratch.size(), 15u);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      EXPECT_EQ(scratch[i], reports[i]) << "seed " << seed << " report " << i;
    }
  }
}

TEST(WireReportTest, EveryTruncationIsRejected) {
  const WireBytes wire =
      EncodeReport(BitsReport({1, 0, 1, 1, 0, 0, 1, 0, 1}));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const StatusOr<Report> decoded =
        DecodeReport(std::span<const std::uint8_t>(wire.data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireReportTest, TrailingGarbageIsRejected) {
  WireBytes wire = EncodeReport(CategoricalReport(3));
  wire.push_back(0);
  const StatusOr<Report> decoded = DecodeReport(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireReportTest, EverySingleBitFlipIsRejected) {
  // CRC-32 detects all single-bit errors, so no flipped bit anywhere in the
  // buffer — header, payload, or trailer — may decode (as anything).
  const WireBytes wire = EncodeReport(DenseReport({1.5, -2.25, 0.0}));
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      WireBytes corrupted = wire;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const StatusOr<Report> decoded = DecodeReport(corrupted);
      ASSERT_FALSE(decoded.ok())
          << "flip of bit " << bit << " in byte " << byte << " decoded";
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireReportTest, UnsupportedVersionIsRejectedLoudly) {
  WireBytes wire = EncodeReport(CategoricalReport(0));
  wire[4] = kWireVersion + 1;  // A future format...
  RestampCrc(wire);            // ...with an internally consistent checksum.
  const StatusOr<Report> decoded = DecodeReport(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(WireReportTest, WrongMagicIsRejected) {
  WireBytes report = EncodeReport(CategoricalReport(0));
  EpochSnapshot snapshot;
  snapshot.epoch_id = 0;
  snapshot.histogram = {1.0};
  // A snapshot buffer handed to the report decoder (and vice versa) must be
  // refused on magic, not misparsed.
  EXPECT_EQ(DecodeReport(EncodeSnapshot(snapshot)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeSnapshot(report).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireReportTest, NonCanonicalPaddingIsRejected) {
  WireBytes wire = EncodeReport(BitsReport({1, 0, 1}));  // n = 3: 5 pad bits.
  wire[kWireHeaderBytes] |= 1u << 6;  // Set a bit past n in the last byte.
  RestampCrc(wire);
  const StatusOr<Report> decoded = DecodeReport(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("padding"), std::string::npos);
}

TEST(WireReportTest, IndexOutsideDeclaredAlphabetIsRejected) {
  WireBytes wire = EncodeReport(CategoricalReport(5));  // dim = 6 on the wire.
  wire[kWireHeaderBytes] = 6;  // Patch the index payload to dim.
  RestampCrc(wire);
  const StatusOr<Report> decoded = DecodeReport(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireReportTest, UnknownKindByteIsRejected) {
  WireBytes wire = EncodeReport(CategoricalReport(2));
  wire[5] = 7;
  RestampCrc(wire);
  EXPECT_EQ(DecodeReport(wire).status().code(), StatusCode::kInvalidArgument);
}

// ---- The report decoders against a spec oracle -----------------------------
//
// OracleDecodeReport and OracleDecodeBatch read a buffer field by field as
// wire_format.h lays it out, with a bytewise CRC, in the order the decoder
// checks: envelope size, magic, version, reserved bytes, CRC, kind, then the
// kind's dim, payload size, padding and index. DecoderMismatch decodes one
// input both as a report envelope into a reused Report and as a batch body
// into reused reports, and describes the first way either decoder disagrees
// with the oracle: accept or reject, the field the message names (and the
// entry, for a batch), the decoded reports bit for bit, a rejected report
// left as it was, and no storage kept past the decoded report.

/// The field a rejection names; kAccepted when there is none.
enum class Field {
  kAccepted,
  kSize,
  kMagic,
  kVersion,
  kReserved,
  kCrc,
  kKind,
  kDim,
  kPayloadSize,
  kPadding,
  kIndex,
  kBatchShort,
  kBatchEmpty,
  kBatchCount,
  kBatchTruncated,
  kBatchOverrun,
  kBatchEntry,
  kBatchTrailing,
};

const char* FieldName(Field field) {
  switch (field) {
    case Field::kAccepted: return "accepted";
    case Field::kSize: return "size";
    case Field::kMagic: return "magic";
    case Field::kVersion: return "version";
    case Field::kReserved: return "reserved";
    case Field::kCrc: return "crc";
    case Field::kKind: return "kind";
    case Field::kDim: return "dim";
    case Field::kPayloadSize: return "payload size";
    case Field::kPadding: return "padding";
    case Field::kIndex: return "index";
    case Field::kBatchShort: return "count missing";
    case Field::kBatchEmpty: return "empty";
    case Field::kBatchCount: return "count";
    case Field::kBatchTruncated: return "length missing";
    case Field::kBatchOverrun: return "overrun";
    case Field::kBatchEntry: return "entry";
    case Field::kBatchTrailing: return "trailing bytes";
  }
  return "?";
}

/// The field a decoder's rejection message names.
Field NamedField(const std::string& message) {
  const std::pair<const char*, Field> fragments[] = {
      {"buffer truncated", Field::kSize},
      {"wrong magic", Field::kMagic},
      {"wire version", Field::kVersion},
      {"reserved header bytes", Field::kReserved},
      {"CRC mismatch", Field::kCrc},
      {"unknown report kind byte", Field::kKind},
      {"dimension", Field::kDim},
      {"payload has", Field::kPayloadSize},
      {"padding bits", Field::kPadding},
      {"outside its declared alphabet", Field::kIndex},
      {"too short for its count", Field::kBatchShort},
      {"batch frame is empty", Field::kBatchEmpty},
      {"reports a", Field::kBatchCount},
      {"batch truncated before report", Field::kBatchTruncated},
      {"overruns the frame", Field::kBatchOverrun},
      {"trailing bytes", Field::kBatchTrailing},
  };
  for (const auto& [fragment, field] : fragments) {
    if (message.find(fragment) != std::string::npos) return field;
  }
  return Field::kAccepted;  // Names nothing known: never equals a rejection.
}

std::uint32_t SpecU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1])
         << 8 | static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// CRC-32/IEEE one byte per table step, the table built from
/// ReferenceCrc32Step.
std::uint32_t SpecCrc32(const std::uint8_t* data, std::size_t size) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[b] = ReferenceCrc32Step(0, static_cast<std::uint8_t>(b));
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// The spec's reading of one report envelope: the field it rejects, or
/// kAccepted with the report in `out`.
Field OracleDecodeReport(std::span<const std::uint8_t> b, Report& out) {
  if (b.size() < 16) return Field::kSize;
  if (b[0] != 'W' || b[1] != 'F' || b[2] != 'R' || b[3] != 'P') {
    return Field::kMagic;
  }
  if (b[4] != 1) return Field::kVersion;
  if (b[6] != 0 || b[7] != 0) return Field::kReserved;
  if (SpecU32(&b[b.size() - 4]) != SpecCrc32(b.data(), b.size() - 4)) {
    return Field::kCrc;
  }
  const std::uint32_t dim = SpecU32(&b[8]);
  const std::size_t payload = b.size() - 16;
  constexpr std::uint32_t kIntMax = 0x7FFFFFFF;
  out = Report();
  switch (b[5]) {
    case 0: {
      if (payload != 4) return Field::kPayloadSize;
      const std::uint32_t index = SpecU32(&b[12]);
      if (index >= dim || dim > kIntMax) return Field::kIndex;
      out.index = static_cast<int>(index);
      return Field::kAccepted;
    }
    case 1: {
      if (dim == 0 || dim > kIntMax / 8) return Field::kDim;
      if (payload != 8 * static_cast<std::size_t>(dim)) {
        return Field::kPayloadSize;
      }
      out.dense.resize(dim);
      for (std::uint32_t i = 0; i < dim; ++i) {
        const std::uint64_t bits =
            SpecU32(&b[12 + 8 * i]) |
            static_cast<std::uint64_t>(SpecU32(&b[16 + 8 * i])) << 32;
        std::memcpy(&out.dense[i], &bits, sizeof(bits));
      }
      return Field::kAccepted;
    }
    case 2: {
      if (dim == 0 || dim > kIntMax) return Field::kDim;
      if (payload != (static_cast<std::size_t>(dim) + 7) / 8) {
        return Field::kPayloadSize;
      }
      std::vector<std::uint8_t> bits(dim);
      for (std::uint32_t i = 0; i < dim; ++i) {
        bits[i] = (b[12 + i / 8] >> (i % 8)) & 1;
      }
      for (std::size_t i = dim; i < 8 * payload; ++i) {
        if ((b[12 + i / 8] >> (i % 8)) & 1) return Field::kPadding;
      }
      out.bits = PackedBits(bits);
      return Field::kAccepted;
    }
    default:
      return Field::kKind;
  }
}

/// The spec's reading of a batch body `u32 count | count x (u32 len |
/// envelope)`: the field it rejects (and in `entry`, the entry a per-entry
/// rejection names, in `entry_field` what that entry's envelope rejects),
/// or kAccepted with the reports in `out`.
Field OracleDecodeBatch(std::span<const std::uint8_t> body,
                        std::vector<Report>& out, std::uint32_t& entry,
                        Field& entry_field) {
  out.clear();
  if (body.size() < 4) return Field::kBatchShort;
  const std::uint32_t count = SpecU32(body.data());
  if (count == 0) return Field::kBatchEmpty;
  if (count > (body.size() - 4) / 20) return Field::kBatchCount;
  std::size_t at = 4;
  for (entry = 0; entry < count; ++entry) {
    if (body.size() - at < 4) return Field::kBatchTruncated;
    const std::uint32_t length = SpecU32(&body[at]);
    at += 4;
    if (body.size() - at < length) return Field::kBatchOverrun;
    Report report;
    entry_field = OracleDecodeReport(body.subspan(at, length), report);
    if (entry_field != Field::kAccepted) return Field::kBatchEntry;
    out.push_back(std::move(report));
    at += length;
  }
  if (at != body.size()) return Field::kBatchTrailing;
  return Field::kAccepted;
}

/// Same index, same shape, same bits (dense entries compared as bit
/// patterns, so NaN payloads and -0.0 count).
bool SameReport(const Report& a, const Report& b) {
  return a.index == b.index && a.bits == b.bits &&
         a.dense.size() == b.dense.size() &&
         (a.dense.empty() || std::memcmp(a.dense.data(), b.dense.data(),
                                         8 * a.dense.size()) == 0);
}

/// Storage past the report a Report carries.
bool KeepsExtraStorage(const Report& r) {
  return r.dense.capacity() != r.dense.size() ||
         (r.bits.empty() && r.bits.words().data() != nullptr);
}

/// How often each verdict came up, keyed "report <field>" and "batch
/// <field>[/<entry field>]", so the test can check its mutations reach every
/// check.
std::map<std::string, int>& VerdictCounts() {
  static std::map<std::string, int> counts;
  return counts;
}

/// Decodes `input` as one envelope into a Report and as a batch body into
/// reports, both kept across calls, and returns the first disagreement with
/// the oracle ("" when there is none).
std::string DecoderMismatch(std::span<const std::uint8_t> input) {
  static Report reused;
  static std::vector<Report> reused_batch;

  Report expected;
  const Field want = OracleDecodeReport(input, expected);
  const Report before = reused;
  const Status got = DecodeReportInto(input, reused);
  ++VerdictCounts()[std::string("report ") + FieldName(want)];
  const Field named = got.ok() ? Field::kAccepted : NamedField(got.message());
  if (named != want || got.ok() != (want == Field::kAccepted)) {
    return std::string("report: oracle ") + FieldName(want) + ", decoder '" +
           got.ToString() + "'";
  }
  if (!got.ok() && got.code() != StatusCode::kInvalidArgument) {
    return "report: rejected with a code other than kInvalidArgument";
  }
  if (got.ok() ? !SameReport(reused, expected) : !SameReport(reused, before)) {
    return got.ok() ? "report: decoded report differs from the oracle's"
                    : "report: rejected buffer changed the target";
  }
  if (KeepsExtraStorage(reused)) return "report: storage kept past the report";

  std::vector<Report> expected_batch;
  std::uint32_t entry = 0;
  Field entry_field = Field::kAccepted;
  const Field want_batch =
      OracleDecodeBatch(input, expected_batch, entry, entry_field);
  const std::size_t size_before = reused_batch.size();
  const StatusOr<std::size_t> count =
      DecodeReportBatchInto(input, reused_batch);
  std::string verdict = FieldName(want_batch);
  if (want_batch == Field::kBatchEntry) {
    verdict += std::string("/") + FieldName(entry_field);
  }
  ++VerdictCounts()["batch " + verdict];
  if (count.ok() != (want_batch == Field::kAccepted)) {
    return "batch: oracle " + verdict + ", decoder '" +
           (count.ok() ? std::string("OK") : count.status().message()) + "'";
  }
  if (!count.ok()) {
    const std::string& message = count.status().message();
    const std::string entry_prefix =
        "batch report " + std::to_string(entry) + " rejected: ";
    const bool agrees =
        want_batch == Field::kBatchEntry
            ? message.rfind(entry_prefix, 0) == 0 &&
                  NamedField(message.substr(entry_prefix.size())) ==
                      entry_field
            : NamedField(message) == want_batch;
    if (!agrees) {
      return "batch: oracle " + verdict + ", decoder '" + message + "'";
    }
    if (reused_batch.size() < size_before) return "batch: reports shrank";
    return "";
  }
  if (count.value() != expected_batch.size() ||
      reused_batch.size() != std::max(size_before, expected_batch.size())) {
    return "batch: wrong count or reports size";
  }
  for (std::size_t i = 0; i < expected_batch.size(); ++i) {
    if (!SameReport(reused_batch[i], expected_batch[i])) {
      return "batch: report " + std::to_string(i) +
             " differs from the oracle's";
    }
    if (KeepsExtraStorage(reused_batch[i])) {
      return "batch: report " + std::to_string(i) + " keeps extra storage";
    }
  }
  return "";
}

/// A uniform draw from [0, n).
std::size_t Pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.UniformInt(static_cast<int>(n)));
}

/// Writes the CRC of all but the last 4 bytes into them (a buffer under 4
/// bytes is left alone), so the mutation under test, not the checksum, is
/// what the decoder sees.
void SpecRestamp(WireBytes& b) {
  if (b.size() < 4) return;
  const std::uint32_t crc = SpecCrc32(b.data(), b.size() - 4);
  for (int k = 0; k < 4; ++k) {
    b[b.size() - 4 + k] = static_cast<std::uint8_t>(crc >> (8 * k));
  }
}

void SpecStoreU32(std::uint8_t* p, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) p[k] = static_cast<std::uint8_t>(v >> (8 * k));
}

/// Dims and indices at the decoder's boundaries: zero, byte and word edges,
/// the int and dense-size limits, and the top of u32.
constexpr std::uint32_t kEdgeValues[] = {
    0,          1,          2,          7,          8,          9,
    12,         13,         63,         64,         65,         511,
    512,        513,        0x0FFFFFFF, 0x10000000, 0x7FFFFFFE, 0x7FFFFFFF,
    0x80000000, 0xFFFFFFFE, 0xFFFFFFFF};

/// One structure-aware mutation of a report envelope: a bit flip, a byte
/// overwrite, a truncation, appended bytes, a header byte (0-7) changed, a
/// kind swap, an edge dim, an edge payload word, a set padding bit, or a
/// payload grown or shrunk. All but the first four restamp the CRC.
WireBytes MutateEnvelope(WireBytes b, Rng& rng) {
  const auto pick = [&rng](std::size_t n) { return Pick(rng, n); };
  switch (rng.UniformInt(10)) {
    case 0:
      b[pick(b.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
      return b;
    case 1:
      b[pick(b.size())] = static_cast<std::uint8_t>(pick(256));
      return b;
    case 2:
      b.resize(pick(b.size()));
      return b;
    case 3:
      for (std::size_t k = 1 + pick(3); k > 0; --k) {
        b.push_back(static_cast<std::uint8_t>(pick(256)));
      }
      return b;
    case 4: {
      const std::size_t at = pick(8);
      const std::uint8_t header[] = {'W', 'F', 'R', 'P', kWireVersion, 0, 0, 0};
      // Half the time a near miss: one bit off the byte's expected value.
      b[at] = rng.UniformInt(2) == 0
                  ? static_cast<std::uint8_t>(header[at] ^ (1u << pick(8)))
                  : static_cast<std::uint8_t>(pick(256));
      break;
    }
    case 5: {
      constexpr std::uint8_t kKinds[] = {0, 1, 2, 3, 255};
      b[5] = kKinds[pick(5)];
      break;
    }
    case 6:
      SpecStoreU32(&b[8], kEdgeValues[pick(std::size(kEdgeValues))]);
      break;
    case 7:
      if (b.size() >= 20) {
        std::uint32_t value = kEdgeValues[pick(std::size(kEdgeValues))];
        // Indices next to the declared dim too.
        if (rng.UniformInt(2) == 0) {
          value = SpecU32(&b[8]) - 1 + static_cast<std::uint32_t>(pick(3));
        }
        SpecStoreU32(&b[12], value);
      }
      break;
    case 8:
      if (b.size() > 16) {
        b[b.size() - 5] |= static_cast<std::uint8_t>(0x80u >> pick(8));
      }
      break;
    default: {
      // Grow or shrink the payload by up to 9 bytes, keeping the header.
      const std::size_t change = 1 + pick(9);
      if (rng.UniformInt(2) == 0 && b.size() - 4 > 12 + change) {
        b.erase(b.end() - 4 - static_cast<std::ptrdiff_t>(change), b.end() - 4);
      } else {
        b.insert(b.end() - 4, change, static_cast<std::uint8_t>(pick(256)));
      }
      break;
    }
  }
  SpecRestamp(b);
  return b;
}

/// The (offset, length) of each entry's envelope in a well-formed body.
std::vector<std::pair<std::size_t, std::size_t>> BatchEntries(
    const WireBytes& body) {
  std::vector<std::pair<std::size_t, std::size_t>> entries;
  std::size_t at = 4;
  for (std::uint32_t i = SpecU32(body.data()); i > 0; --i) {
    const std::size_t length = SpecU32(&body[at]);
    entries.emplace_back(at + 4, length);
    at += 4 + length;
  }
  return entries;
}

/// One structure-aware mutation of a well-formed batch body: an entry's
/// envelope mutated with its length fixed up or left stale, an edge count,
/// an edge or off-by-one entry length, a truncation, trailing bytes, a bit
/// flip, or nothing (a valid batch into reports that held another).
WireBytes MutateBatch(const WireBytes& body, Rng& rng) {
  const auto entries = BatchEntries(body);
  const auto [offset, length] = entries[Pick(rng, entries.size())];
  WireBytes b = body;
  switch (rng.UniformInt(8)) {
    case 0:
    case 1: {
      const WireBytes envelope(body.begin() + offset,
                               body.begin() + offset + length);
      const WireBytes mutated = MutateEnvelope(envelope, rng);
      b.erase(b.begin() + offset, b.begin() + offset + length);
      b.insert(b.begin() + offset, mutated.begin(), mutated.end());
      if (rng.UniformInt(2) == 0) {
        SpecStoreU32(&b[offset - 4],
                     static_cast<std::uint32_t>(mutated.size()));
      }
      return b;
    }
    case 2: {
      const std::uint32_t count = SpecU32(b.data());
      const auto fits = static_cast<std::uint32_t>((b.size() - 4) / 20);
      const std::uint32_t counts[] = {0,    1,        count - 1, count + 1,
                                      fits, fits + 1, 0xFFFFFFFF};
      SpecStoreU32(b.data(), counts[rng.UniformInt(7)]);
      return b;
    }
    case 3: {
      const std::uint32_t lengths[] = {
          0, 15, 16, static_cast<std::uint32_t>(length) - 1,
          static_cast<std::uint32_t>(length) + 1, 0xFFFFFFFF};
      SpecStoreU32(&b[offset - 4], lengths[rng.UniformInt(6)]);
      return b;
    }
    case 4:
      b.resize(Pick(rng, b.size()));
      return b;
    case 5:
      b.push_back(static_cast<std::uint8_t>(rng.UniformInt(256)));
      return b;
    case 6:
      b[Pick(rng, b.size())] ^= static_cast<std::uint8_t>(1u << Pick(rng, 8));
      return b;
    default:
      return b;
  }
}

TEST(WireReportTest, DecodersAgreeWithTheSpecOracleUnderMutation) {
  Rng rng(41);
  const auto random_bits = [&rng](int n) {
    std::vector<std::uint8_t> bits(n);
    for (std::uint8_t& b : bits) b = static_cast<std::uint8_t>(Pick(rng, 2));
    return BitsReport(bits);
  };
  std::vector<WireBytes> envelopes;
  for (const int index : {0, 1, 41, 255, 65535, 0x7FFFFFFE}) {
    envelopes.push_back(EncodeReport(CategoricalReport(index)));
  }
  for (const int n : {1, 3, 8}) {
    Vector dense(n);
    for (double& v : dense) v = rng.Normal();
    dense[0] = -0.0;
    if (n == 8) dense[7] = std::numeric_limits<double>::quiet_NaN();
    envelopes.push_back(EncodeReport(DenseReport(dense)));
  }
  for (const int n : {1, 13, 64, 65, 512, 512, 512}) {
    envelopes.push_back(EncodeReport(random_bits(n)));
  }

  // 256-report bodies: dense-prefix's categorical batch, rappor-prefix's
  // 512-bit batch, and one of every kind.
  std::vector<WireBytes> bodies(3);
  std::vector<Report> categorical(256), bits(256), mixed(256);
  for (int i = 0; i < 256; ++i) {
    categorical[i].index = rng.UniformInt(256);
    bits[i] = random_bits(512);
    mixed[i] = i % 3 == 0   ? CategoricalReport(rng.UniformInt(1000))
               : i % 3 == 1 ? DenseReport({rng.Normal(), rng.Normal()})
                            : random_bits(1 + rng.UniformInt(100));
  }
  AppendReportBatch(bodies[0], categorical);
  AppendReportBatch(bodies[1], bits);
  AppendReportBatch(bodies[2], mixed);

  // The libFuzzer entry point runs the same check (and aborts on a
  // disagreement); the seeds pass it.
  for (const WireBytes& input : envelopes) {
    EXPECT_EQ(LLVMFuzzerTestOneInput(input.data(), input.size()), 0);
  }
  for (const WireBytes& input : bodies) {
    EXPECT_EQ(LLVMFuzzerTestOneInput(input.data(), input.size()), 0);
  }

  VerdictCounts().clear();
  constexpr int kEnvelopeMutations = 100000;
  constexpr int kBatchMutations = 6000;
  for (const WireBytes& envelope : envelopes) {
    ASSERT_EQ(DecoderMismatch(envelope), "");
  }
  for (int t = 0; t < kEnvelopeMutations; ++t) {
    const WireBytes input =
        MutateEnvelope(envelopes[Pick(rng, envelopes.size())], rng);
    ASSERT_EQ(DecoderMismatch(input), "") << "envelope mutation " << t;
  }
  for (int t = 0; t < kBatchMutations; ++t) {
    const WireBytes input = MutateBatch(bodies[t % 3], rng);
    ASSERT_EQ(DecoderMismatch(input), "") << "batch mutation " << t;
  }

  // Test premise: the mutations reach every check of both decoders.
  std::string seen;
  for (const auto& [verdict, n] : VerdictCounts()) {
    seen += verdict + "=" + std::to_string(n) + " ";
  }
  for (const char* verdict :
       {"report accepted", "report size", "report magic", "report version",
        "report reserved", "report crc", "report kind", "report dim",
        "report payload size", "report padding", "report index",
        "batch accepted", "batch count missing", "batch empty",
        "batch count", "batch length missing", "batch overrun",
        "batch trailing bytes", "batch entry/size", "batch entry/magic",
        "batch entry/version", "batch entry/reserved", "batch entry/crc",
        "batch entry/kind", "batch entry/dim", "batch entry/payload size",
        "batch entry/padding", "batch entry/index"}) {
    EXPECT_GT(VerdictCounts()[verdict], 0) << verdict << "; seen: " << seen;
  }
}

TEST(WireSnapshotTest, RoundTripsBitForBit) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    EpochSnapshot snapshot;
    snapshot.epoch_id = trial;
    snapshot.count = rng.UniformInt(1 << 30);
    snapshot.histogram.resize(1 + rng.UniformInt(64));
    for (double& v : snapshot.histogram) v = rng.Normal() * 1e9;
    const StatusOr<EpochSnapshot> decoded =
        DecodeSnapshot(EncodeSnapshot(snapshot));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), snapshot);
  }
}

TEST(WireSnapshotTest, NonFiniteHistogramEntriesAreRejected) {
  EpochSnapshot snapshot;
  snapshot.epoch_id = 0;
  snapshot.count = 1;
  snapshot.histogram = {1.0, std::numeric_limits<double>::quiet_NaN()};
  WireBytes wire = EncodeSnapshot(snapshot);
  const StatusOr<EpochSnapshot> decoded = DecodeSnapshot(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("finite"), std::string::npos);
}

TEST(WireSnapshotTest, VersionedSnapshotRoundTripsBitForBit) {
  Rng rng(22);
  for (const int version : {1, 2, 7, 1000}) {
    EpochSnapshot snapshot;
    snapshot.epoch_id = version;
    snapshot.count = rng.UniformInt(1 << 30);
    snapshot.strategy_version = version;
    snapshot.histogram.resize(8);
    for (double& v : snapshot.histogram) v = rng.Normal() * 1e6;
    const WireBytes wire = EncodeSnapshot(snapshot);
    // Kind 1 carries exactly 4 bytes more than the legacy layout.
    EXPECT_EQ(wire[5], 1);
    EXPECT_EQ(wire.size(), kWireEnvelopeBytes + 16 + 8 * 8);
    const StatusOr<EpochSnapshot> decoded = DecodeSnapshot(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), snapshot);
  }
}

TEST(WireSnapshotTest, VersionZeroStaysOnTheLegacyEncoding) {
  // Canonical form: version 0 (every pre-rollover producer) must emit kind 0
  // byte-identically to the historical encoding, so old consumers keep
  // decoding new producers that never roll.
  EpochSnapshot snapshot;
  snapshot.epoch_id = 3;
  snapshot.count = 12;
  snapshot.histogram = {1.0, 2.0, 3.0};
  const WireBytes wire = EncodeSnapshot(snapshot);
  EXPECT_EQ(wire[5], 0);
  EXPECT_EQ(wire.size(), kWireEnvelopeBytes + 12 + 8 * 3);
}

TEST(WireSnapshotTest, VersionedKindCarryingVersionZeroIsRejected) {
  // A kind-1 buffer declaring version 0 is the non-canonical twin of a legal
  // kind-0 buffer; accepting it would give one snapshot two encodings.
  EpochSnapshot snapshot;
  snapshot.epoch_id = 0;
  snapshot.count = 5;
  snapshot.strategy_version = 2;
  snapshot.histogram = {4.0, 1.0};
  WireBytes wire = EncodeSnapshot(snapshot);
  // Patch the version word (payload offset 12) down to zero.
  for (int i = 0; i < 4; ++i) wire[kWireHeaderBytes + 12 + i] = 0;
  RestampCrc(wire);
  const StatusOr<EpochSnapshot> decoded = DecodeSnapshot(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(WireSnapshotTest, UnknownSnapshotKindIsRejected) {
  EpochSnapshot snapshot;
  snapshot.epoch_id = 0;
  snapshot.count = 1;
  snapshot.histogram = {1.0};
  WireBytes wire = EncodeSnapshot(snapshot);
  wire[5] = 2;
  RestampCrc(wire);
  EXPECT_EQ(DecodeSnapshot(wire).status().code(),
            StatusCode::kInvalidArgument);
}

// Prefix(4) ⊗ Histogram(2)-shaped: two RR factors splitting ε = 1.
StrategySnapshot TwoFactorStrategy() {
  StrategySnapshot strategy;
  strategy.version = 2;
  strategy.epsilon = 1.0;
  strategy.strategy = {{RandomizedResponseMechanism::BuildStrategy(4, 0.5),
                        RandomizedResponseMechanism::BuildStrategy(2, 0.5)},
                       {0.5, 0.5}};
  return strategy;
}

// One factor of a hand-assembled kind-1 strategy payload; m and n are the
// header fields, which the rejection tests may make lie about q.
struct WireFactor {
  Matrix q;
  std::uint32_t m = 0;
  std::uint32_t n = 0;
  double eps = 0.0;
};

std::vector<WireFactor> TwoFactorFields() {
  std::vector<WireFactor> fields;
  const StrategySnapshot strategy = TwoFactorStrategy();
  for (std::size_t i = 0; i < 2; ++i) {
    const Matrix& q = strategy.strategy.factors[i];
    fields.push_back({q, static_cast<std::uint32_t>(q.rows()),
                      static_cast<std::uint32_t>(q.cols()),
                      strategy.strategy.epsilons[i]});
  }
  return fields;
}

// A kind-1 strategy envelope written field by field from the layout in
// wire_format.h (strategy version 2), with a valid CRC.
WireBytes FactoredStrategyWire(std::uint32_t dim, std::uint32_t k, double eps,
                               const std::vector<WireFactor>& factors) {
  WireBytes wire = {'W', 'F', 'S', 'T', kWireVersion, 1, 0, 0};
  PutU32(wire, dim);
  PutU32(wire, k);
  PutU32(wire, 2);
  PutU64(wire, std::bit_cast<std::uint64_t>(eps));
  for (const WireFactor& f : factors) {
    PutU32(wire, f.m);
    PutU32(wire, f.n);
    PutU64(wire, std::bit_cast<std::uint64_t>(f.eps));
    for (std::size_t i = 0; i < f.q.size(); ++i) {
      PutU64(wire, std::bit_cast<std::uint64_t>(f.q.data()[i]));
    }
  }
  wire.resize(wire.size() + 4);
  RestampCrc(wire);
  return wire;
}

TEST(WireStrategyTest, RoundTripsBitForBit) {
  for (const double eps : {0.5, 1.0, 4.0}) {
    StrategySnapshot strategy;
    strategy.version = 3;
    strategy.epsilon = eps;
    strategy.strategy = {{RandomizedResponseMechanism::BuildStrategy(16, eps)},
                         {eps}};
    const Matrix& q = strategy.strategy.factors[0];
    const StatusOr<StrategySnapshot> decoded =
        DecodeStrategy(EncodeStrategy(strategy));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().version, strategy.version);
    EXPECT_EQ(decoded.value().epsilon, strategy.epsilon);
    const Matrix& got = decoded.value().strategy.factors[0];
    ASSERT_EQ(got.rows(), q.rows());
    ASSERT_EQ(got.cols(), q.cols());
    for (int r = 0; r < q.rows(); ++r) {
      for (int c = 0; c < q.cols(); ++c) {
        EXPECT_EQ(got(r, c), q(r, c));
      }
    }
  }
}

TEST(WireStrategyTest, DecodeRevalidatesTheLdpGuarantee) {
  // The decoder must not let a client rebuild its randomizer from a matrix
  // that is not actually an eps-LDP strategy for the claimed epsilon — a
  // tampered (or buggy) server would otherwise silently void the privacy
  // guarantee of every report the client sends.
  StrategySnapshot strategy;
  strategy.version = 1;
  strategy.epsilon = 1.0;
  strategy.strategy = {{RandomizedResponseMechanism::BuildStrategy(4, 2.0)},
                       {1.0}};
  WireBytes wire = EncodeStrategy(strategy);  // Claims eps=1, built for 2.
  const StatusOr<StrategySnapshot> decoded = DecodeStrategy(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("strategy"), std::string::npos);
}

TEST(WireStrategyTest, EveryTruncationIsRejected) {
  StrategySnapshot strategy;
  strategy.version = 1;
  strategy.epsilon = 1.0;
  strategy.strategy = {{RandomizedResponseMechanism::BuildStrategy(4, 1.0)},
                       {1.0}};
  for (const WireBytes& wire :
       {EncodeStrategy(strategy), EncodeStrategy(TwoFactorStrategy())}) {
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const StatusOr<StrategySnapshot> decoded =
          DecodeStrategy(std::span<const std::uint8_t>(wire.data(), len));
      ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireStrategyTest, FactoredStrategyRoundTripsInTheDocumentedLayout) {
  const StrategySnapshot strategy = TwoFactorStrategy();
  const WireBytes wire = EncodeStrategy(strategy);
  EXPECT_EQ(wire[5], 1);  // Kind 1: k >= 2 factors.
  EXPECT_EQ(wire, FactoredStrategyWire(8, 2, 1.0, TwoFactorFields()));
  const StatusOr<StrategySnapshot> decoded = DecodeStrategy(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().version, strategy.version);
  EXPECT_EQ(decoded.value().epsilon, strategy.epsilon);
  EXPECT_EQ(decoded.value().strategy.epsilons, strategy.strategy.epsilons);
  ASSERT_EQ(decoded.value().strategy.factors.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(decoded.value().strategy.factors[i].ApproxEquals(
        strategy.strategy.factors[i], 0.0));
  }
}

TEST(WireStrategyTest, EveryFlippedByteIsRejected) {
  const WireBytes good = EncodeStrategy(TwoFactorStrategy());
  for (std::size_t i = 0; i < good.size(); ++i) {
    WireBytes wire = good;
    wire[i] ^= 0xff;
    const StatusOr<StrategySnapshot> decoded = DecodeStrategy(wire);
    ASSERT_FALSE(decoded.ok()) << "flipped byte " << i << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireStrategyTest, FactoredPayloadsThatLieAreRejected) {
  // Each buffer is structurally intact (CRC restamped) and differs from a
  // valid two-factor payload in one field, and the message names the check
  // that rejects it.
  auto expect_rejected = [](const WireBytes& wire, const std::string& check) {
    const StatusOr<StrategySnapshot> decoded = DecodeStrategy(wire);
    ASSERT_FALSE(decoded.ok()) << check;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << check;
    EXPECT_NE(decoded.status().message().find(check), std::string::npos)
        << decoded.status().message();
  };
  ASSERT_TRUE(
      DecodeStrategy(FactoredStrategyWire(8, 2, 1.0, TwoFactorFields())).ok());

  // One factor must travel as kind 0: kind 1 is canonical only for k >= 2.
  std::vector<WireFactor> one = TwoFactorFields();
  one.resize(1);
  one[0].eps = 1.0;
  expect_rejected(FactoredStrategyWire(4, 1, 1.0, one), "kind 1 needs");

  // The factor domains compose to 8.
  expect_rejected(FactoredStrategyWire(9, 2, 1.0, TwoFactorFields()),
                  "do not compose to the header dim 9");
  // Shares 0.5 + 0.5 over a total of 0.75.
  expect_rejected(FactoredStrategyWire(8, 2, 0.75, TwoFactorFields()),
                  "budgets sum to");

  std::vector<WireFactor> over = TwoFactorFields();
  over[0].eps = 0.25;  // Factor 0 is 0.5-LDP; Σ ε_i = 0.75 <= 1 still.
  expect_rejected(FactoredStrategyWire(8, 2, 1.0, over),
                  "factor 0 is not a valid");

  std::vector<WireFactor> wide = TwoFactorFields();
  wide[1].m = (1u << 15) + 1;
  expect_rejected(FactoredStrategyWire(8, 2, 1.0, wide),
                  "factor 1 dimensions 32769 x 2 out of range");
}

TEST(WireStrategyTest, NonFiniteEpsilonAndEntriesAreRejected) {
  StrategySnapshot strategy;
  strategy.version = 1;
  strategy.epsilon = 1.0;
  strategy.strategy = {{RandomizedResponseMechanism::BuildStrategy(4, 1.0)},
                       {1.0}};
  const WireBytes good = EncodeStrategy(strategy);
  {
    WireBytes wire = good;  // Zero out the epsilon f64 (payload offset 8).
    for (int i = 0; i < 8; ++i) wire[kWireHeaderBytes + 8 + i] = 0;
    RestampCrc(wire);
    EXPECT_EQ(DecodeStrategy(wire).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    WireBytes wire = good;  // NaN into the first matrix entry (offset 16).
    for (int i = 0; i < 8; ++i) {
      wire[kWireHeaderBytes + 16 + i] = (i == 7) ? 0x7f : 0xff;
    }
    RestampCrc(wire);
    EXPECT_EQ(DecodeStrategy(wire).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(WireEstimateTest, RoundTripsBitForBit) {
  Rng rng(31);
  WorkloadEstimate estimate;
  estimate.data_vector.resize(16);
  estimate.query_answers.resize(5);
  for (double& v : estimate.data_vector) v = rng.Normal();
  for (double& v : estimate.query_answers) v = rng.Normal();
  const StatusOr<WorkloadEstimate> decoded =
      DecodeEstimate(EncodeEstimate(estimate));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().data_vector, estimate.data_vector);
  EXPECT_EQ(decoded.value().query_answers, estimate.query_answers);
}

// ---- durability ------------------------------------------------------------

std::unique_ptr<CollectionSession> MakeSession(int n, int num_shards) {
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const HistogramWorkload>(n);
  const auto stats =
      std::make_shared<const WorkloadStats>(WorkloadStats::From(*workload));
  const FactorizationAnalysis analysis(q, *stats);
  return std::make_unique<CollectionSession>(
      std::make_shared<const ReportDecoder>(
          std::vector<Matrix>{analysis.ReconstructionB()}, stats),
      std::move(workload), num_shards);
}

TEST(SnapshotStoreTest, KillAndRecoverServesIdenticalEstimates) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "wfm_store_recover")
          .string();
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);

  const int n = 10;
  Rng rng(51);
  Vector expected_data, expected_answers;
  std::int64_t expected_count = 0;
  {
    // "Process one": seal three epochs, persisting each, then die.
    auto session = MakeSession(n, /*num_shards=*/2);
    for (int epoch = 0; epoch < 3; ++epoch) {
      std::vector<Report> reports(4000);
      for (Report& r : reports) r.index = rng.UniformInt(n);
      session->AcceptBatch(0, reports);
      ASSERT_TRUE(store.Append(session->Seal()).ok());
    }
    EstimateServer server(session.get());
    const WorkloadEstimate before =
        server.ServeWindow(3, EstimatorKind::kWnnls).value();
    expected_data = before.data_vector;
    expected_answers = before.query_answers;
    expected_count = session->total_responses();
  }

  // "Process two": a fresh session replays the store and serves the same
  // numbers without a single device re-reporting.
  auto recovered = MakeSession(n, /*num_shards=*/2);
  const StatusOr<std::vector<EpochSnapshot>> persisted = store.LoadAll();
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  ASSERT_EQ(persisted.value().size(), 3u);
  for (const EpochSnapshot& snapshot : persisted.value()) {
    ASSERT_TRUE(recovered->RestoreSealedEpoch(snapshot).ok());
  }
  EXPECT_EQ(recovered->total_responses(), expected_count);
  EstimateServer server(recovered.get());
  const WorkloadEstimate after =
      server.ServeWindow(3, EstimatorKind::kWnnls).value();
  EXPECT_EQ(after.data_vector, expected_data);
  EXPECT_EQ(after.query_answers, expected_answers);
}

TEST(SnapshotStoreTest, MissingDirectoryIsAFreshStart) {
  SnapshotStore store((std::filesystem::path(::testing::TempDir()) /
                       "wfm_store_never_created")
                          .string());
  const StatusOr<std::vector<EpochSnapshot>> loaded = store.LoadAll();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(SnapshotStoreTest, CorruptFileIsQuarantinedOnLoad) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "wfm_store_corrupt")
          .string();
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  EpochSnapshot healthy;
  healthy.epoch_id = 0;
  healthy.count = 5;
  healthy.histogram = {5.0, 0.0};
  ASSERT_TRUE(store.Append(healthy).ok());
  EpochSnapshot doomed;
  doomed.epoch_id = 1;
  doomed.count = 3;
  doomed.histogram = {0.0, 3.0};
  ASSERT_TRUE(store.Append(doomed).ok());

  // Flip one payload byte on disk: the restart trust boundary must refuse
  // the file — but quarantine it and keep serving the healthy epochs
  // rather than failing the whole recovery.
  const std::string path = dir + "/epoch-00000001.wfmsnap";
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekp(static_cast<std::streamoff>(kWireHeaderBytes));
  const char corrupted = 0x5a;
  file.write(&corrupted, 1);
  file.close();

  const StatusOr<std::vector<EpochSnapshot>> loaded = store.LoadAll();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].epoch_id, 0);
  EXPECT_EQ(loaded.value()[0].count, 5);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
}

TEST(SnapshotStoreTest, RefusesSnapshotsWithoutAnEpochId) {
  SnapshotStore store((std::filesystem::path(::testing::TempDir()) /
                       "wfm_store_noid")
                          .string());
  EpochSnapshot unsealed;
  unsealed.histogram = {0.0};
  EXPECT_EQ(store.Append(unsealed).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wfm

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string mismatch =
      wfm::DecoderMismatch(std::span<const std::uint8_t>(data, size));
  if (!mismatch.empty()) {
    std::fprintf(stderr, "decoder disagrees with the spec oracle: %s\n",
                 mismatch.c_str());
    std::abort();
  }
  return 0;
}

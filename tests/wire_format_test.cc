// Tests for the wire/ serialization layer: round-trip identity for every
// report kind and for snapshots/estimates, the succinctness guarantee for
// packed bit-vector reports, and the trust boundary — every structurally
// defective buffer (truncation, oversize, any single flipped bit, wrong
// magic, unknown version, non-canonical padding, out-of-range fields) is
// rejected with kInvalidArgument, never a crash. Also covers the durability
// half: MergeSnapshots exactness against single-stream aggregation and
// SnapshotStore kill-and-recover serving identical estimates.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
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
#include "wire/crc32.h"
#include "wire/snapshot_store.h"
#include "wire/wire_format.h"
#include "workload/histogram.h"
#include "workload/prefix.h"

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
  // not only the one this CPU picks.
  std::vector<std::pair<const char*, crc32::Crc32Fn>> builds = {
      {"wire", [](const std::uint8_t* data, std::size_t size) {
         return WireCrc32(std::span<const std::uint8_t>(data, size));
       }},
      {"portable", &crc32::Portable}};
  if (crc32::Pclmul() != nullptr) builds.emplace_back("pclmul", crc32::Pclmul());

  const std::string check = "123456789";
  for (const auto& [name, crc] : builds) {
    EXPECT_EQ(crc(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
              0xCBF43926u)
        << name;
  }

  // Every length 0..4096 from every start offset mod 16, so the 4 x 16-byte
  // folds, the 16-byte folds, the overlapped tail and the 8-byte table
  // steps meet at every alignment and remainder. The reference runs along
  // each offset's prefixes one byte at a time.
  constexpr std::size_t kMaxLength = 4096;
  Rng rng(17);
  std::vector<std::uint8_t> buffer(kMaxLength + 16);
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* data = buffer.data() + offset;
    std::uint32_t state = 0xFFFFFFFFu;
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      if (length > 0) state = ReferenceCrc32Step(state, data[length - 1]);
      for (const auto& [name, crc] : builds) {
        ASSERT_EQ(crc(data, length), state ^ 0xFFFFFFFFu)
            << name << " offset " << offset << " length " << length;
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

TEST(WireStrategyTest, RoundTripsBitForBit) {
  for (const double eps : {0.5, 1.0, 4.0}) {
    StrategySnapshot strategy;
    strategy.version = 3;
    strategy.epsilon = eps;
    strategy.q = RandomizedResponseMechanism::BuildStrategy(16, eps);
    const StatusOr<StrategySnapshot> decoded =
        DecodeStrategy(EncodeStrategy(strategy));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().version, strategy.version);
    EXPECT_EQ(decoded.value().epsilon, strategy.epsilon);
    ASSERT_EQ(decoded.value().q.rows(), strategy.q.rows());
    ASSERT_EQ(decoded.value().q.cols(), strategy.q.cols());
    for (int r = 0; r < strategy.q.rows(); ++r) {
      for (int c = 0; c < strategy.q.cols(); ++c) {
        EXPECT_EQ(decoded.value().q(r, c), strategy.q(r, c));
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
  strategy.q = RandomizedResponseMechanism::BuildStrategy(4, 2.0);
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
  strategy.q = RandomizedResponseMechanism::BuildStrategy(4, 1.0);
  const WireBytes wire = EncodeStrategy(strategy);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const StatusOr<StrategySnapshot> decoded =
        DecodeStrategy(std::span<const std::uint8_t>(wire.data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireStrategyTest, NonFiniteEpsilonAndEntriesAreRejected) {
  StrategySnapshot strategy;
  strategy.version = 1;
  strategy.epsilon = 1.0;
  strategy.q = RandomizedResponseMechanism::BuildStrategy(4, 1.0);
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

// ---- cross-process merge and durability -----------------------------------

std::unique_ptr<CollectionSession> MakeSession(int n, int num_shards) {
  const Matrix q = RandomizedResponseMechanism::BuildStrategy(n, 1.0);
  auto workload = std::make_shared<const HistogramWorkload>(n);
  ReportDecoder decoder = ReportDecoder::FromAnalysis(
      FactorizationAnalysis(q, WorkloadStats::From(*workload)));
  return std::make_unique<CollectionSession>(std::move(decoder),
                                             std::move(workload), num_shards);
}

TEST(MergeSnapshotsTest, MergeOfShardedEpochsMatchesSingleStreamExactly) {
  // Acceptance criterion: cross-process EpochSnapshot merge == single-process
  // aggregation of the combined stream, exactly. Three "nodes" each collect a
  // slice of one report stream; their wire-shipped snapshots merge into the
  // same histogram and count one node ingesting everything produces.
  const int n = 12;
  Rng rng(41);
  std::vector<Report> stream(30000);
  for (Report& r : stream) r.index = rng.UniformInt(n);

  auto single = MakeSession(n, /*num_shards=*/2);
  single->AcceptBatch(0, stream);
  const EpochSnapshot reference = single->Seal();

  std::vector<EpochSnapshot> parts;
  const std::size_t per_node = stream.size() / 3;
  for (int node = 0; node < 3; ++node) {
    auto session = MakeSession(n, /*num_shards=*/2);
    const std::size_t begin = node * per_node;
    const std::size_t len =
        node == 2 ? stream.size() - begin : per_node;
    session->AcceptBatch(0,
                         std::span<const Report>(stream.data() + begin, len));
    // Ship each node's snapshot through the wire encoding, as the service
    // endpoints would.
    const StatusOr<EpochSnapshot> shipped =
        DecodeSnapshot(EncodeSnapshot(session->Seal()));
    ASSERT_TRUE(shipped.ok());
    parts.push_back(shipped.value());
  }

  const StatusOr<EpochSnapshot> merged =
      MergeSnapshots(std::span<const EpochSnapshot>(parts));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().histogram, reference.histogram);
  EXPECT_EQ(merged.value().count, reference.count);
}

TEST(MergeSnapshotsTest, RejectsEmptyAndMismatchedInputs) {
  EXPECT_EQ(MergeSnapshots({}).status().code(), StatusCode::kInvalidArgument);
  EpochSnapshot a, b;
  a.histogram = {1.0, 2.0};
  b.histogram = {1.0};
  const std::vector<EpochSnapshot> parts{a, b};
  EXPECT_EQ(MergeSnapshots(std::span<const EpochSnapshot>(parts))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
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

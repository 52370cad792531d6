#include "wire/wire_format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "common/check.h"
#include "core/factored.h"
#include "wire/byte_order.h"
#include "wire/crc32.h"

namespace wfm {
namespace {

// Object-type magics ("WFRP" = report, "WFSN" = snapshot, "WFES" = estimate,
// "WFST" = strategy).
constexpr std::array<std::uint8_t, 4> kReportMagic = {'W', 'F', 'R', 'P'};
constexpr std::array<std::uint8_t, 4> kSnapshotMagic = {'W', 'F', 'S', 'N'};
constexpr std::array<std::uint8_t, 4> kEstimateMagic = {'W', 'F', 'E', 'S'};
constexpr std::array<std::uint8_t, 4> kStrategyMagic = {'W', 'F', 'S', 'T'};

// Report `kind` header byte.
constexpr std::uint8_t kKindCategorical = 0;
constexpr std::uint8_t kKindDense = 1;
constexpr std::uint8_t kKindPackedBits = 2;

// Snapshot `kind` header byte: the version-0 legacy layout vs the
// strategy-versioned one (see the header comment).
constexpr std::uint8_t kSnapshotKindLegacy = 0;
constexpr std::uint8_t kSnapshotKindVersioned = 1;

// Strategy `kind` header byte: one dense factor vs k >= 2 Kronecker factors
// (see the header comment).
constexpr std::uint8_t kStrategyKindDense = 0;
constexpr std::uint8_t kStrategyKindFactored = 1;

// ---- little-endian doubles (integers: wire/byte_order.h) -------------------

void PutF64(WireBytes& out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

double GetF64(const std::uint8_t* p) {
  return std::bit_cast<double>(GetU64(p));
}

// Packed bit-vector payload <-> PackedBits words: byte b of the payload is
// byte b % 8, little-endian, of word b / 8. A plain copy on little-endian
// hosts.
void WordsToBytes(std::span<const std::uint64_t> words, std::uint8_t* out,
                  std::size_t num_bytes) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, words.data(), num_bytes);
  } else {
    for (std::size_t b = 0; b < num_bytes; ++b) {
      out[b] = static_cast<std::uint8_t>(words[b / 8] >> (8 * (b % 8)));
    }
  }
}

// `words` may still hold an earlier report of the same size: the payload
// overwrites its first num_bytes bytes, and the bytes past them are padding,
// zero in every PackedBits.
void BytesToWords(const std::uint8_t* in, std::size_t num_bytes,
                  std::span<std::uint64_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(words.data(), in, num_bytes);
  } else {
    std::fill(words.begin(), words.end(), 0);
    for (std::size_t b = 0; b < num_bytes; ++b) {
      words[b / 8] |= static_cast<std::uint64_t>(in[b]) << (8 * (b % 8));
    }
  }
}

// ---- envelope helpers ------------------------------------------------------

void PutHeader(WireBytes& out, const std::array<std::uint8_t, 4>& magic,
               std::uint8_t kind, std::uint32_t dim) {
  out.insert(out.end(), magic.begin(), magic.end());
  out.push_back(kWireVersion);
  out.push_back(kind);
  out.push_back(0);  // reserved
  out.push_back(0);  // reserved
  PutU32(out, dim);
}

void PutTrailer(WireBytes& out) {
  PutU32(out, WireCrc32(std::span<const std::uint8_t>(out.data(), out.size())));
}

Status CrcMismatch(const char* what) {
  return Status::InvalidArgument(std::string(what) +
                                 " CRC mismatch: payload corrupted");
}

/// Checks everything common to all envelopes: minimum size, magic, version,
/// reserved bytes, and the CRC over the whole buffer. On success `kind` and
/// `dim` hold the header fields and the payload spans
/// buffer[kWireHeaderBytes, buffer.size() - kWireTrailerBytes).
Status CheckEnvelope(std::span<const std::uint8_t> buffer,
                     const std::array<std::uint8_t, 4>& magic,
                     const char* what, std::uint8_t& kind,
                     std::uint32_t& dim) {
  if (buffer.size() < kWireEnvelopeBytes) {
    return Status::InvalidArgument(
        std::string(what) + " buffer truncated: " +
        std::to_string(buffer.size()) + " bytes, envelope needs at least " +
        std::to_string(kWireEnvelopeBytes));
  }
  if (!std::equal(magic.begin(), magic.end(), buffer.begin())) {
    return Status::InvalidArgument(std::string(what) +
                                   " buffer has the wrong magic");
  }
  if (buffer[4] != kWireVersion) {
    return Status::InvalidArgument(
        std::string(what) + " wire version " + std::to_string(buffer[4]) +
        " is not supported (this build speaks version " +
        std::to_string(kWireVersion) + ")");
  }
  if (buffer[6] != 0 || buffer[7] != 0) {
    return Status::InvalidArgument(std::string(what) +
                                   " reserved header bytes are not zero");
  }
  const std::uint32_t stored_crc = GetU32(&buffer[buffer.size() - 4]);
  const std::uint32_t actual_crc = WireCrc32(buffer.first(buffer.size() - 4));
  if (stored_crc != actual_crc) return CrcMismatch(what);
  kind = buffer[5];
  dim = GetU32(&buffer[8]);
  return Status::Ok();
}

// ---- strategy factors ------------------------------------------------------

// 2^15 caps each side of a strategy factor far above the paper's largest
// experiment, and is checked before the m * n payload-size multiply, so
// m * n * 8 stays comfortably inside size_t.
Status CheckStrategySides(std::uint32_t m, std::uint32_t n, const char* what) {
  constexpr std::uint32_t kMaxSide = 1u << 15;
  if (m == 0 || m > kMaxSide || n == 0 || n > kMaxSide) {
    return Status::InvalidArgument(std::string(what) + " dimensions " +
                                   std::to_string(m) + " x " +
                                   std::to_string(n) + " out of range");
  }
  return Status::Ok();
}

void PutMatrix(WireBytes& out, const Matrix& q) {
  for (std::size_t i = 0; i < q.size(); ++i) PutF64(out, q.data()[i]);
}

// Reads m x n row-major doubles at `p` into `q`; every entry must be finite.
Status GetMatrix(const std::uint8_t* p, std::uint32_t m, std::uint32_t n,
                 const char* what, Matrix& q) {
  q.ResizeUninitialized(static_cast<int>(m), static_cast<int>(n));
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double v = GetF64(p + 8 * i);
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          std::string(what) + " entry is not finite at row " +
          std::to_string(i / n) + ", column " + std::to_string(i % n));
    }
    q.data()[i] = v;
  }
  return Status::Ok();
}

Status CheckPayloadSize(std::span<const std::uint8_t> buffer,
                        std::size_t expected, const char* what) {
  const std::size_t actual = buffer.size() - kWireEnvelopeBytes;
  if (actual != expected) {
    return Status::InvalidArgument(
        std::string(what) + " payload has " + std::to_string(actual) +
        " bytes, header implies " + std::to_string(expected));
  }
  return Status::Ok();
}

// ---- report envelopes ----------------------------------------------------

/// A report kind's first 8 envelope bytes (magic, version, kind, two zero
/// reserved bytes) as one host-order word, and the CRC register after them,
/// from which the envelope's CRC continues over bytes 8 onward.
struct ReportHeader {
  std::uint64_t bytes;
  std::uint32_t crc_state;
};

constexpr ReportHeader MakeReportHeader(std::uint8_t kind) {
  const std::array<std::uint8_t, 8> bytes = {
      kReportMagic[0], kReportMagic[1], kReportMagic[2], kReportMagic[3],
      kWireVersion,    kind,            0,               0};
  std::uint32_t crc = crc32::kInitialRegister;
  for (const std::uint8_t byte : bytes) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return {std::bit_cast<std::uint64_t>(bytes), crc};
}

// Indexed by kind byte.
constexpr std::array<ReportHeader, 3> kReportHeaders = {
    MakeReportHeader(kKindCategorical), MakeReportHeader(kKindDense),
    MakeReportHeader(kKindPackedBits)};

/// The kind whose header `buffer` starts with, or -1 when the buffer is
/// shorter than an envelope or its first 8 bytes are no report header.
int MatchReportHeader(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < kWireEnvelopeBytes) return -1;
  const std::uint8_t kind = buffer[5];
  if (static_cast<std::size_t>(kind) >= kReportHeaders.size()) return -1;
  std::uint64_t head;
  std::memcpy(&head, buffer.data(), sizeof(head));
  return head == kReportHeaders[kind].bytes ? kind : -1;
}

/// Bytes a report's envelope occupies on the wire.
std::size_t ReportWireSize(const Report& report) {
  if (report.is_bits()) {
    return kWireEnvelopeBytes + (report.bits.size() + 7) / 8;
  }
  if (report.is_dense()) return kWireEnvelopeBytes + 8 * report.dense.size();
  return kWireEnvelopeBytes + 4;
}

/// Writes `report`'s envelope at `envelope` and returns its size,
/// ReportWireSize(report): the payload, then the kind's fixed header in one
/// store, dim, and the CRC continued from the header's register.
std::size_t WriteReport(const Report& report, std::uint8_t* envelope,
                        crc32::Crc32Fn crc) {
  std::uint8_t* payload = envelope + kWireHeaderBytes;
  std::uint8_t kind;
  std::uint32_t dim;
  std::size_t payload_bytes;
  if (report.is_bits()) {
    kind = kKindPackedBits;
    dim = static_cast<std::uint32_t>(report.bits.size());
    payload_bytes = (report.bits.size() + 7) / 8;
    // PackedBits keeps its padding bits zero, so the payload is canonical.
    WordsToBytes(report.bits.words(), payload, payload_bytes);
  } else if (report.is_dense()) {
    kind = kKindDense;
    dim = static_cast<std::uint32_t>(report.dense.size());
    payload_bytes = 8 * report.dense.size();
    for (std::size_t i = 0; i < report.dense.size(); ++i) {
      StoreU64(payload + 8 * i, std::bit_cast<std::uint64_t>(report.dense[i]));
    }
  } else {
    WFM_CHECK_GE(report.index, 0) << "encoding an unpopulated report";
    kind = kKindCategorical;
    // dim carries the alphabet size when known; a lone index does not know
    // its m, so dim is index + 1 (the tightest bound the client can assert —
    // the server validates the index against the deployment's m anyway).
    dim = static_cast<std::uint32_t>(report.index) + 1;
    payload_bytes = 4;
    StoreU32(payload, static_cast<std::uint32_t>(report.index));
  }
  const ReportHeader& header = kReportHeaders[kind];
  std::memcpy(envelope, &header.bytes, sizeof(header.bytes));
  StoreU32(envelope + 8, dim);
  StoreU32(payload + payload_bytes,
           crc(header.crc_state, envelope + 8, 4 + payload_bytes));
  return kWireEnvelopeBytes + payload_bytes;
}

/// DecodeReportInto with the CRC build passed in, so a batch looks it up
/// once.
Status DecodeReportWith(std::span<const std::uint8_t> buffer, Report& report,
                        crc32::Crc32Fn crc) {
  const int kind = MatchReportHeader(buffer);
  if (kind < 0) {
    // Not one of the three report headers: the field-by-field checks name
    // the defect, and a buffer that passes them all has an unknown kind.
    std::uint8_t kind_byte = 0;
    std::uint32_t dim = 0;
    if (Status env =
            CheckEnvelope(buffer, kReportMagic, "report", kind_byte, dim);
        !env.ok()) {
      return env;
    }
    return Status::InvalidArgument("unknown report kind byte " +
                                   std::to_string(kind_byte));
  }
  const std::size_t crc_end = buffer.size() - kWireTrailerBytes;
  if (GetU32(buffer.data() + crc_end) !=
      crc(kReportHeaders[kind].crc_state, buffer.data() + 8, crc_end - 8)) {
    return CrcMismatch("report");
  }
  const std::uint32_t dim = GetU32(buffer.data() + 8);
  const std::uint8_t* payload = buffer.data() + kWireHeaderBytes;
  // Every check runs before the first write, so a rejected buffer leaves
  // `report` as it was. Storage of another shape or size is released (a
  // vector is released by moving an empty one in; clear() keeps capacity),
  // so `report` never holds more than the report it now carries.
  switch (kind) {
    case kKindCategorical: {
      if (Status s = CheckPayloadSize(buffer, 4, "categorical report");
          !s.ok()) {
        return s;
      }
      const std::uint32_t index = GetU32(payload);
      if (index >= dim || dim > static_cast<std::uint32_t>(INT32_MAX)) {
        return Status::InvalidArgument(
            "categorical report index " + std::to_string(index) +
            " outside its declared alphabet of " + std::to_string(dim));
      }
      report.index = static_cast<int>(index);
      if (report.dense.capacity() != 0) report.dense = std::vector<double>();
      if (report.bits.words().data() != nullptr) report.bits = PackedBits();
      return Status::Ok();
    }
    case kKindDense: {
      if (dim == 0 || dim > static_cast<std::uint32_t>(INT32_MAX) / 8) {
        return Status::InvalidArgument("dense report dimension " +
                                       std::to_string(dim) + " out of range");
      }
      if (Status s =
              CheckPayloadSize(buffer, 8 * static_cast<std::size_t>(dim),
                               "dense report");
          !s.ok()) {
        return s;
      }
      report.index = -1;
      report.bits = PackedBits();
      if (report.dense.capacity() != dim) report.dense = std::vector<double>();
      report.dense.resize(dim);
      for (std::uint32_t i = 0; i < dim; ++i) {
        report.dense[i] = GetF64(payload + 8 * static_cast<std::size_t>(i));
      }
      return Status::Ok();
    }
    default: {  // kKindPackedBits
      if (dim == 0 || dim > static_cast<std::uint32_t>(INT32_MAX)) {
        return Status::InvalidArgument("bit-vector report dimension " +
                                       std::to_string(dim) + " out of range");
      }
      const std::size_t packed_bytes = (static_cast<std::size_t>(dim) + 7) / 8;
      if (Status s = CheckPayloadSize(buffer, packed_bytes,
                                      "packed bit-vector report");
          !s.ok()) {
        return s;
      }
      if (dim % 8 != 0) {
        // Canonical encoding: bits past dim in the final byte must be zero.
        const std::uint8_t padding =
            static_cast<std::uint8_t>(payload[packed_bytes - 1] >>
                                      (dim % 8));
        if (padding != 0) {
          return Status::InvalidArgument(
              "packed bit-vector report has non-zero padding bits");
        }
      }
      report.index = -1;
      if (report.dense.capacity() != 0) report.dense = std::vector<double>();
      if (report.bits.size() != dim) {
        report.bits = PackedBits::Zeros(static_cast<int>(dim));
      }
      BytesToWords(payload, packed_bytes, report.bits.mutable_words());
      return Status::Ok();
    }
  }
}

}  // namespace

void AppendReport(WireBytes& out, const Report& report) {
  const std::size_t start = out.size();
  out.resize(start + ReportWireSize(report));
  WriteReport(report, out.data() + start, crc32::Active());
}

WireBytes EncodeReport(const Report& report) {
  WireBytes out;
  AppendReport(out, report);
  return out;
}

Status DecodeReportInto(std::span<const std::uint8_t> buffer, Report& report) {
  return DecodeReportWith(buffer, report, crc32::Active());
}

StatusOr<Report> DecodeReport(std::span<const std::uint8_t> buffer) {
  Report report;
  if (Status s = DecodeReportInto(buffer, report); !s.ok()) return s;
  return report;
}

void AppendReportBatch(WireBytes& out, std::span<const Report> reports) {
  std::size_t size = 4;
  for (const Report& report : reports) size += 4 + ReportWireSize(report);
  std::size_t at = out.size();
  out.resize(at + size);
  StoreU32(out.data() + at, static_cast<std::uint32_t>(reports.size()));
  at += 4;
  const crc32::Crc32Fn crc = crc32::Active();
  for (const Report& report : reports) {
    const std::size_t length = WriteReport(report, out.data() + at + 4, crc);
    StoreU32(out.data() + at, static_cast<std::uint32_t>(length));
    at += 4 + length;
  }
}

StatusOr<std::size_t> DecodeReportBatchInto(
    std::span<const std::uint8_t> body, std::vector<Report>& reports) {
  if (body.size() < 4) {
    return Status::InvalidArgument("batch frame too short for its count");
  }
  const std::uint32_t count = GetU32(body.data());
  if (count == 0) return Status::InvalidArgument("batch frame is empty");
  // The count is untrusted: bound it by what the body can hold (every entry
  // is a u32 length plus at least one report envelope) before it sizes
  // anything.
  const std::size_t max_count = (body.size() - 4) / (4 + kWireEnvelopeBytes);
  if (count > max_count) {
    return Status::InvalidArgument(
        "batch count " + std::to_string(count) + " exceeds the " +
        std::to_string(max_count) + " reports a " +
        std::to_string(body.size()) + "-byte body can hold");
  }
  if (reports.size() < count) reports.resize(count);
  const crc32::Crc32Fn crc = crc32::Active();
  std::size_t offset = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (body.size() - offset < 4) {
      return Status::InvalidArgument("batch truncated before report " +
                                     std::to_string(i));
    }
    const std::uint32_t entry = GetU32(body.data() + offset);
    offset += 4;
    if (body.size() - offset < entry) {
      return Status::InvalidArgument("batch report " + std::to_string(i) +
                                     " overruns the frame");
    }
    if (Status s = DecodeReportWith(body.subspan(offset, entry), reports[i],
                                    crc);
        !s.ok()) {
      return Status::InvalidArgument("batch report " + std::to_string(i) +
                                     " rejected: " + s.message());
    }
    offset += entry;
  }
  if (offset != body.size()) {
    return Status::InvalidArgument("batch carries trailing bytes");
  }
  return static_cast<std::size_t>(count);
}

WireBytes EncodeSnapshot(const EpochSnapshot& snapshot) {
  WireBytes out;
  const std::size_t m = snapshot.histogram.size();
  // Canonical: version 0 keeps the legacy kind-0 layout byte for byte, so a
  // deployment that never rolls interoperates with pre-rollover peers.
  const bool versioned = snapshot.strategy_version > 0;
  const std::size_t fixed = versioned ? 16 : 12;
  out.reserve(kWireEnvelopeBytes + fixed + 8 * m);
  PutHeader(out, kSnapshotMagic,
            versioned ? kSnapshotKindVersioned : kSnapshotKindLegacy,
            static_cast<std::uint32_t>(m));
  PutU32(out, static_cast<std::uint32_t>(snapshot.epoch_id));
  PutU64(out, static_cast<std::uint64_t>(snapshot.count));
  if (versioned) {
    PutU32(out, static_cast<std::uint32_t>(snapshot.strategy_version));
  }
  for (const double v : snapshot.histogram) PutF64(out, v);
  PutTrailer(out);
  return out;
}

StatusOr<EpochSnapshot> DecodeSnapshot(std::span<const std::uint8_t> buffer) {
  std::uint8_t kind = 0;
  std::uint32_t dim = 0;
  if (Status env = CheckEnvelope(buffer, kSnapshotMagic, "snapshot", kind, dim);
      !env.ok()) {
    return env;
  }
  if (kind != kSnapshotKindLegacy && kind != kSnapshotKindVersioned) {
    return Status::InvalidArgument("snapshot kind byte must be 0 or 1, got " +
                                   std::to_string(kind));
  }
  const bool versioned = kind == kSnapshotKindVersioned;
  const std::size_t fixed = versioned ? 16 : 12;
  if (dim == 0 || dim > static_cast<std::uint32_t>(INT32_MAX) / 8) {
    return Status::InvalidArgument("snapshot dimension " +
                                   std::to_string(dim) + " out of range");
  }
  if (Status s = CheckPayloadSize(
          buffer, fixed + 8 * static_cast<std::size_t>(dim), "snapshot");
      !s.ok()) {
    return s;
  }
  const std::uint8_t* payload = buffer.data() + kWireHeaderBytes;
  EpochSnapshot snapshot;
  snapshot.epoch_id = static_cast<int>(GetU32(payload));
  snapshot.count = static_cast<std::int64_t>(GetU64(payload + 4));
  if (snapshot.epoch_id < -1) {
    return Status::InvalidArgument("snapshot epoch id " +
                                   std::to_string(snapshot.epoch_id) +
                                   " out of range");
  }
  if (snapshot.count < 0) {
    return Status::InvalidArgument("snapshot report count is negative: " +
                                   std::to_string(snapshot.count));
  }
  if (versioned) {
    const std::uint32_t version = GetU32(payload + 12);
    // Canonical encoding: version 0 must travel as kind 0, and versions
    // never approach 2^31 (one roll per epoch at most).
    if (version == 0 || version > static_cast<std::uint32_t>(INT32_MAX)) {
      return Status::InvalidArgument("versioned snapshot carries strategy "
                                     "version " + std::to_string(version) +
                                     ", expected a positive int32");
    }
    snapshot.strategy_version = static_cast<int>(version);
  }
  snapshot.histogram.resize(dim);
  for (std::uint32_t i = 0; i < dim; ++i) {
    const double v = GetF64(payload + fixed + 8 * static_cast<std::size_t>(i));
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "snapshot histogram entry is not finite at coordinate " +
          std::to_string(i));
    }
    snapshot.histogram[i] = v;
  }
  return snapshot;
}

WireBytes EncodeEstimate(const WorkloadEstimate& estimate) {
  WireBytes out;
  const std::size_t n = estimate.data_vector.size();
  const std::size_t q = estimate.query_answers.size();
  out.reserve(kWireEnvelopeBytes + 4 + 8 * (n + q));
  PutHeader(out, kEstimateMagic, 0, static_cast<std::uint32_t>(n));
  PutU32(out, static_cast<std::uint32_t>(q));
  for (const double v : estimate.data_vector) PutF64(out, v);
  for (const double v : estimate.query_answers) PutF64(out, v);
  PutTrailer(out);
  return out;
}

StatusOr<WorkloadEstimate> DecodeEstimate(
    std::span<const std::uint8_t> buffer) {
  std::uint8_t kind = 0;
  std::uint32_t dim = 0;
  if (Status env = CheckEnvelope(buffer, kEstimateMagic, "estimate", kind, dim);
      !env.ok()) {
    return env;
  }
  if (kind != 0) {
    return Status::InvalidArgument("estimate kind byte must be zero, got " +
                                   std::to_string(kind));
  }
  if (buffer.size() < kWireEnvelopeBytes + 4) {
    return Status::InvalidArgument("estimate buffer truncated");
  }
  const std::uint8_t* payload = buffer.data() + kWireHeaderBytes;
  const std::uint32_t num_queries = GetU32(payload);
  if (dim > static_cast<std::uint32_t>(INT32_MAX) / 8 ||
      num_queries > static_cast<std::uint32_t>(INT32_MAX) / 8) {
    return Status::InvalidArgument("estimate dimensions out of range");
  }
  if (Status s = CheckPayloadSize(
          buffer,
          4 + 8 * (static_cast<std::size_t>(dim) +
                   static_cast<std::size_t>(num_queries)),
          "estimate");
      !s.ok()) {
    return s;
  }
  WorkloadEstimate estimate;
  estimate.data_vector.resize(dim);
  for (std::uint32_t i = 0; i < dim; ++i) {
    estimate.data_vector[i] = GetF64(payload + 4 + 8 * static_cast<std::size_t>(i));
  }
  estimate.query_answers.resize(num_queries);
  const std::uint8_t* answers = payload + 4 + 8 * static_cast<std::size_t>(dim);
  for (std::uint32_t i = 0; i < num_queries; ++i) {
    estimate.query_answers[i] = GetF64(answers + 8 * static_cast<std::size_t>(i));
  }
  return estimate;
}

WireBytes EncodeStrategy(const StrategySnapshot& snapshot) {
  const FactoredStrategy& strategy = snapshot.strategy;
  const std::size_t k = strategy.factors.size();
  WFM_CHECK_GE(k, 1u) << "encoding an empty strategy";
  WFM_CHECK_EQ(strategy.epsilons.size(), k);
  WFM_CHECK_GE(snapshot.version, 0);
  WireBytes out;
  if (k == 1) {
    const Matrix& q = strategy.factors[0];
    WFM_CHECK(!q.empty()) << "encoding an empty strategy";
    out.reserve(kWireEnvelopeBytes + 16 + 8 * q.size());
    PutHeader(out, kStrategyMagic, kStrategyKindDense,
              static_cast<std::uint32_t>(q.cols()));
    PutU32(out, static_cast<std::uint32_t>(q.rows()));
    PutU32(out, static_cast<std::uint32_t>(snapshot.version));
    PutF64(out, snapshot.epsilon);
    PutMatrix(out, q);
  } else {
    std::size_t payload = 16;
    for (const Matrix& q : strategy.factors) payload += 16 + 8 * q.size();
    out.reserve(kWireEnvelopeBytes + payload);
    PutHeader(out, kStrategyMagic, kStrategyKindFactored,
              static_cast<std::uint32_t>(strategy.cols()));
    PutU32(out, static_cast<std::uint32_t>(k));
    PutU32(out, static_cast<std::uint32_t>(snapshot.version));
    PutF64(out, snapshot.epsilon);
    for (std::size_t i = 0; i < k; ++i) {
      const Matrix& q = strategy.factors[i];
      PutU32(out, static_cast<std::uint32_t>(q.rows()));
      PutU32(out, static_cast<std::uint32_t>(q.cols()));
      PutF64(out, strategy.epsilons[i]);
      PutMatrix(out, q);
    }
  }
  PutTrailer(out);
  return out;
}

StatusOr<StrategySnapshot> DecodeStrategy(
    std::span<const std::uint8_t> buffer) {
  std::uint8_t kind = 0;
  std::uint32_t dim = 0;
  if (Status env = CheckEnvelope(buffer, kStrategyMagic, "strategy", kind, dim);
      !env.ok()) {
    return env;
  }
  if (kind != kStrategyKindDense && kind != kStrategyKindFactored) {
    return Status::InvalidArgument("strategy kind byte must be 0 or 1, got " +
                                   std::to_string(kind));
  }
  if (buffer.size() < kWireEnvelopeBytes + 16) {
    return Status::InvalidArgument("strategy buffer truncated");
  }
  const std::uint8_t* payload = buffer.data() + kWireHeaderBytes;
  const std::size_t payload_size = buffer.size() - kWireEnvelopeBytes;
  // Kind 0 leads with m, kind 1 with the factor count k.
  const std::uint32_t lead = GetU32(payload);
  const std::uint32_t version = GetU32(payload + 4);
  const double epsilon = GetF64(payload + 8);
  if (version > static_cast<std::uint32_t>(INT32_MAX)) {
    return Status::InvalidArgument("strategy version " +
                                   std::to_string(version) + " out of range");
  }
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "strategy epsilon is not a positive finite value");
  }
  StrategySnapshot snapshot;
  snapshot.version = static_cast<int>(version);
  snapshot.epsilon = epsilon;
  FactoredStrategy& strategy = snapshot.strategy;
  if (kind == kStrategyKindDense) {
    if (Status s = CheckStrategySides(lead, dim, "strategy"); !s.ok()) return s;
    if (Status s = CheckPayloadSize(
            buffer,
            16 + 8 * static_cast<std::size_t>(lead) *
                     static_cast<std::size_t>(dim),
            "strategy");
        !s.ok()) {
      return s;
    }
    Matrix& q = strategy.factors.emplace_back();
    if (Status s = GetMatrix(payload + 16, lead, dim, "strategy", q); !s.ok()) {
      return s;
    }
    strategy.epsilons.push_back(epsilon);
  } else {
    // Canonical: one factor always travels as kind 0.
    if (lead < 2) {
      return Status::InvalidArgument(
          "factored strategy carries " + std::to_string(lead) +
          " factors; kind 1 needs at least 2");
    }
    // Every factor takes at least 24 payload bytes, so the loop ends within
    // the buffer whatever k claims; the domains compose below dim * 2^15.
    std::size_t offset = 16;
    std::uint64_t composed = 1;
    for (std::uint32_t i = 0; i < lead; ++i) {
      const std::string what = "strategy factor " + std::to_string(i);
      if (payload_size - offset < 16) {
        return Status::InvalidArgument(what + " header overruns the payload");
      }
      const std::uint32_t m = GetU32(payload + offset);
      const std::uint32_t n = GetU32(payload + offset + 4);
      const double share = GetF64(payload + offset + 8);
      offset += 16;
      if (Status s = CheckStrategySides(m, n, what.c_str()); !s.ok()) return s;
      const std::size_t bytes =
          8 * static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
      if (payload_size - offset < bytes) {
        return Status::InvalidArgument(what + " overruns the payload");
      }
      Matrix& q = strategy.factors.emplace_back();
      if (Status s = GetMatrix(payload + offset, m, n, what.c_str(), q);
          !s.ok()) {
        return s;
      }
      strategy.epsilons.push_back(share);
      offset += bytes;
      composed *= n;
      if (composed > dim) break;
    }
    if (composed != dim) {
      return Status::InvalidArgument(
          "strategy factor domains do not compose to the header dim " +
          std::to_string(dim));
    }
    if (offset != payload_size) {
      return Status::InvalidArgument("strategy payload carries trailing bytes");
    }
  }
  // The strategy governs what leaves a device: a client must never rebuild
  // its randomizer from bytes that are not a genuine epsilon-LDP strategy
  // for the budget it was promised.
  if (Status valid = ValidateFactoredStrategy(strategy, epsilon); !valid.ok()) {
    return valid;
  }
  return snapshot;
}

}  // namespace wfm

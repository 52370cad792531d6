// Versioned, compact wire encodings for everything that crosses a process
// boundary in a deployment: the per-user Report, the per-epoch
// EpochSnapshot, the served WorkloadEstimate, and the versioned
// StrategySnapshot that adaptive serving ships to clients after a roll.
//
// Every object shares the same envelope (all integers little-endian):
//
//   bytes 0..3    magic     four ASCII bytes naming the object type
//                           ("WFRP" report, "WFSN" snapshot, "WFES" estimate,
//                            "WFST" strategy)
//   byte  4       version   format version; this header implements version 1
//   byte  5       kind      payload variant (per object, below)
//   bytes 6..7    reserved  must be zero
//   bytes 8..11   u32 dim   object dimension (see per-object layout below)
//   ...           payload   fixed size, derived from the header
//   last 4 bytes  u32 CRC-32 (IEEE 802.3, poly 0xEDB88320) of every byte
//                           before it — headers included
//
// Report payloads (dim = m, the report dimension):
//   kind 0  categorical     u32 response index in [0, dim)
//   kind 1  dense           dim IEEE-754 doubles (little-endian bit pattern)
//   kind 2  packed bits     ceil(dim / 8) bytes; bit i of the report is bit
//                           (i % 8) — LSB first — of byte (i / 8). Bits past
//                           dim in the last byte must be zero (the encoding
//                           is canonical; a set padding bit is corruption).
//
// The packed layout is what makes per-user communication succinct: an n-bit
// RAPPOR/OUE report costs ceil(n/8) payload bytes plus the fixed
// kEnvelopeBytes, not one byte per bit. It is also Report::bits' in-memory
// layout (PackedBits, little-endian words), so encode and decode copy it.
//
// Batches of reports (the body of a kAcceptBatch frame, wire/service.h) are
// `u32 count | count x (u32 len | report envelope)`.
//
// A report envelope's first 8 bytes (magic, version, kind, reserved) are a
// constant for each of the three kinds, so the codec handles them as one
// 8-byte word: the encoder stores the kind's word, and the decoder compares
// the buffer's first 8 bytes against the word of the kind byte it carries.
// The CRC then runs over bytes 8 onward only, continued from the register
// the constant header leaves (computed at compile time per kind), which
// gives the CRC of the whole prefix as the layout above defines it. Only a
// buffer whose first 8 bytes are no report header goes through the field by
// field checks, which name the defective field.
//
// Reports are encoded and decoded in place, because ingest handles one per
// user: AppendReport writes an envelope straight onto the end of a caller's
// buffer (sized once, CRC written last), and DecodeReportInto parses one
// into a caller's Report, reusing its PackedBits words or dense storage when
// they already have the incoming report's size and releasing them
// otherwise, so a Report holds no more than the report it carries.
// AppendReportBatch and DecodeReportBatchInto do the same for a batch body,
// so a client that keeps its request buffer and a server that keeps its
// decoded reports across batches allocate nothing per report. What reused
// reports hold is bounded by the bytes decoded into them, so a caller that
// keeps reports across untrusted batches bounds those bytes
// (wire/service.cc releases a connection's reports every few MB of frames).
// EncodeReport and DecodeReport wrap them, so there is one encoder and one
// decoder, and the wire bytes are the same whichever entry point produced
// them.
//
// Snapshot payloads (dim = m) come in two kinds: kind 0 is u32 epoch_id,
// u64 count, then dim doubles of histogram — the pre-rollover layout,
// byte-identical to what older peers emit and accept. Kind 1 inserts a
// u32 strategy_version (>= 1) between count and histogram; encoding is
// canonical, so a snapshot sealed under version 0 always goes out as kind 0
// and a kind-1 buffer carrying version 0 is rejected as corruption.
//
// Estimate payload (dim = n): u32 num_queries, then dim doubles
// of data_vector followed by num_queries doubles of query_answers.
//
// Strategy payloads (dim = n, the composed domain size) carry a
// FactoredStrategy Q = Q_0 ⊗ ... ⊗ Q_{k-1} in two kinds. Kind 0 is one
// dense factor: u32 m, u32 version, f64 epsilon, then m * n doubles of Q in
// row-major order; its one epsilon is both the budget and the factor's
// share. Kind 1 is k >= 2 factors: u32 k, u32 version, f64 epsilon, then
// per factor u32 m_i, u32 n_i, f64 epsilon_i and m_i * n_i row-major
// doubles, with dim = Π n_i. Encoding is canonical, like snapshots: one
// factor always goes out as kind 0 (byte-identical to what older peers
// emit, while older decoders reject kind 1 by its kind byte), and a kind-1
// buffer carrying k < 2 is rejected. Each factor side
// is at most 2^15. Decoding re-validates the strategy with
// ValidateFactoredStrategy (core/factored.h: every factor an
// epsilon_i-LDP strategy by column sums, non-negativity and the
// e^epsilon_i ratio bound, and Σ epsilon_i <= epsilon), so a client that
// rebuilds its encoder from a kGetStrategy response, or a server that loads
// a strategy file, can never be tricked into randomizing under a worse
// privacy guarantee than it was promised.
//
// Decoding treats the buffer as untrusted bytes off a network or disk: any
// structural defect — short or oversized buffer, wrong magic, unknown
// version or kind, CRC mismatch, non-canonical bit padding, out-of-range
// categorical index — returns kInvalidArgument and never aborts. Version
// bumps are breaking by design: a decoder only accepts the versions it
// implements, so old servers reject new-format reports loudly instead of
// misparsing them.

#ifndef WFM_WIRE_WIRE_FORMAT_H_
#define WFM_WIRE_WIRE_FORMAT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "api/plan.h"
#include "collect/collection_session.h"
#include "common/status.h"
#include "estimation/estimator.h"
#include "ldp/reporter.h"

namespace wfm {

/// Raw wire bytes.
using WireBytes = std::vector<std::uint8_t>;

/// The wire-format version this library speaks.
inline constexpr std::uint8_t kWireVersion = 1;

/// Fixed envelope overhead of every wire object: the 12-byte header plus the
/// 4-byte CRC trailer. A packed bit-vector report is exactly
/// kWireEnvelopeBytes + ceil(n / 8) bytes on the wire.
inline constexpr std::size_t kWireHeaderBytes = 12;
inline constexpr std::size_t kWireTrailerBytes = 4;
inline constexpr std::size_t kWireEnvelopeBytes =
    kWireHeaderBytes + kWireTrailerBytes;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. Two builds, picked
/// once at run time (wire/crc32.h): carry-less-multiply folding (PCLMULQDQ)
/// where the CPU has it, slicing-by-8 (8 bytes per table step) everywhere
/// else and for inputs under 16 bytes. They agree bit for bit, so the wire
/// bytes do not depend on the host. Exposed so tests and tools can craft or
/// verify envelopes byte by byte.
std::uint32_t WireCrc32(std::span<const std::uint8_t> data);

/// Appends one report's envelope to `out`. Bit-vector reports are packed 8
/// bits per byte; categorical and dense reports keep their natural
/// fixed-width layout.
void AppendReport(WireBytes& out, const Report& report);

/// One report's envelope as a fresh buffer (AppendReport onto an empty one).
WireBytes EncodeReport(const Report& report);

/// Parses an untrusted report buffer into `report`, overwriting all three of
/// its shapes, reusing its storage when the size matches and releasing it
/// otherwise (see file comment).
/// kInvalidArgument on any structural defect (see file comment), in which
/// case `report` is left unchanged. The parsed Report still passes through
/// the serving layer's semantic validation (shape vs. deployment, dimension
/// m) before it can touch an aggregate.
Status DecodeReportInto(std::span<const std::uint8_t> buffer, Report& report);

/// DecodeReportInto into a fresh Report.
StatusOr<Report> DecodeReport(std::span<const std::uint8_t> buffer);

/// Appends a batch body, `u32 count | count x (u32 len | report envelope)`,
/// to `out`, reserving its full size first.
void AppendReportBatch(WireBytes& out, std::span<const Report> reports);

/// Parses an untrusted batch body into reports[0, count) and returns count.
/// The count is checked against what the body can hold before `reports`
/// grows to it; `reports` never shrinks, and each entry is overwritten with
/// DecodeReportInto. kInvalidArgument on an empty or truncated batch, a
/// lying count or entry length, trailing bytes, or any entry DecodeReport
/// would reject; the entries are then unspecified (but valid) Reports.
StatusOr<std::size_t> DecodeReportBatchInto(std::span<const std::uint8_t> body,
                                            std::vector<Report>& reports);

/// Serializes a sealed epoch snapshot (histogram + count + epoch id +
/// strategy version): the kSeal response and the crash-recovery file.
WireBytes EncodeSnapshot(const EpochSnapshot& snapshot);

/// Parses an untrusted snapshot buffer; kInvalidArgument on any structural
/// defect, including non-finite histogram entries or a negative count.
StatusOr<EpochSnapshot> DecodeSnapshot(std::span<const std::uint8_t> buffer);

/// Serializes a served estimate (data vector + workload answers).
WireBytes EncodeEstimate(const WorkloadEstimate& estimate);

/// Parses an untrusted estimate buffer; kInvalidArgument on any structural
/// defect.
StatusOr<WorkloadEstimate> DecodeEstimate(std::span<const std::uint8_t> buffer);

/// Serializes a versioned strategy with k >= 1 factors (the kGetStrategy
/// response body and the strategy file's bytes): kind 0 for k = 1, kind 1
/// otherwise.
WireBytes EncodeStrategy(const StrategySnapshot& strategy);

/// Parses an untrusted strategy buffer; kInvalidArgument on any structural
/// defect or when ValidateFactoredStrategy rejects the carried strategy at
/// the carried budget.
StatusOr<StrategySnapshot> DecodeStrategy(std::span<const std::uint8_t> buffer);

}  // namespace wfm

#endif  // WFM_WIRE_WIRE_FORMAT_H_

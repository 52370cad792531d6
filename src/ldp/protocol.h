// Server-side aggregation and end-to-end protocol simulation.
//
// A deployment looks like:
//   1. the analyst optimizes (or picks) a strategy Q offline;
//   2. each user runs LocalRandomizer::Respond on their type;
//   3. the server aggregates responses into the histogram y (collect/:
//      ShardedAggregator fans ingestion across workers and
//      CollectionSession::Seal() cuts the stream into immutable epoch
//      snapshots, each one instance of the paper's one-round protocol);
//   4. the server reconstructs through a ReportDecoder and the report count
//      N: x_hat = B y (unbiased, Theorem 3.10; B = ⊗ B_i on Kronecker
//      domains) or the WNNLS consistent estimate (Appendix A), then answers
//      W x_hat (collect/EstimateServer caches this step per sealed epoch).
//
// Unary-encoding frequency oracles (RAPPOR, OUE) follow the same four steps
// with one twist in step 4: their n-bit reports debias *affinely*, not
// linearly —
//
//   x_hat = (y − N·q·1) / (p − q),
//
// where y counts set bits per coordinate, N is the number of reports behind
// y, p = P(reported bit = 1 | true bit = 1) and q = P(reported bit = 1 |
// true bit = 0). The formula applies exactly when every coordinate of the
// report is an independent Bernoulli whose success probability depends only
// on whether the one-hot bit is set: unary encoding UE(p, q)
// (mechanisms/unary_encoding.h), whose "RAPPOR" registry entry picks
// p = 1−f, q = f with f = 1/(1+e^{ε/2}) and whose "OUE" entry picks p = 1/2,
// q = 1/(e^ε+1). It reduces to the linear
// x_hat = B y when q = 0. Because N enters the decode, the server must track
// report counts alongside aggregates — EpochSnapshot::count carries exactly
// that, and an affine ReportDecoder consumes it (estimation/decoder.h).
//
// api/plan.h is the front door over this whole pipeline: Plan::For(workload)
// .Epsilon(eps).Mechanism(name).Build() performs step 1 and hands out
// Client() (step 2) and StartSession() (steps 3-4) for any registered
// mechanism.
//
// For experiments, SimulateResponseHistogram draws the aggregate directly:
// users of one type are exchangeable, so their response counts are a
// multinomial draw — equivalent in distribution to looping over users, but
// O(n * m) instead of O(N). SimulateResponseHistogramPerUser is that loop,
// kept as the reference the fast path is tested against.
//
// Wire format (wire/wire_format.h). When steps 2-4 span processes — devices
// reporting over a network, collector nodes shipping sealed epochs to a
// coordinator, a server persisting epochs for crash recovery — the objects
// crossing the boundary use one versioned little-endian envelope:
//
//   magic(4) | version(1) | kind(1) | reserved(2) | u32 dim | payload |
//   u32 CRC-32
//
// Reports ("WFRP") come in the three shapes above: kind 0 categorical (a u32
// response index), kind 1 dense (dim doubles), kind 2 packed bits — an n-bit
// RAPPOR/OUE report occupies ceil(n/8) payload bytes, bit i stored LSB-first
// at bit (i mod 8) of byte (i div 8), padding bits required zero so every
// bit vector has exactly one encoding. In memory a bit vector is a
// PackedBits (ldp/reporter.h) with the same layout in 64-bit words, so
// encode and decode copy words and the collect/ side counts packed bytes;
// no stage unpacks to a byte per bit. Epoch snapshots ("WFSN") carry
// epoch_id, the exact report count N (load-bearing for the affine debias
// above), and the m-dim histogram; per-epoch histograms and counts add, so
// wire-shipped snapshots merge across nodes bit-identically to single-node
// aggregation. Served estimates ("WFES") carry x_hat and the workload
// answers. Version bumps are breaking by design: decoders reject any version
// they do not implement, plus any truncated, oversized, bit-flipped,
// wrong-magic, or non-canonically padded buffer, with kInvalidArgument —
// never an abort. wire/service.h speaks these encodings over TCP and maps
// them onto api/PlanSession; its kMetrics frame type additionally serves
// the process's obs/ telemetry registry (ingest counters, accept/reject
// tallies, request latencies) so operators can watch steps 2-4 run live.
//
// Exactly-once ingest (wire/service.h). Step 3 over a real network must
// survive retries without double counting: a torn connection after the
// server ingested a report but before its ack reached the device would
// otherwise re-deliver a counted report. Every kAccept/kAcceptBatch payload
// therefore opens with a 16-byte idempotency tag — u64 client_id | u64
// sequence, little-endian, ahead of the encoded report(s). client_id 0
// means untagged (fire-and-forget, no dedup); otherwise the server keeps a
// bounded per-client window of seen sequences and acknowledges a re-sent
// sequence as a duplicate WITHOUT touching any aggregate, so a device may
// retry the same tagged frame any number of times and its report counts
// exactly once. The accept ack carries one flag byte (0 fresh, 1
// duplicate). Ingest can also be refused outright under load: when
// admission control is on and a shard's unsealed backlog is at its bound,
// the server answers kUnavailable (HTTP-wise: a 503) whose payload leads
// with a u32 Retry-After hint in milliseconds — the report was NOT counted,
// and the client should back off and re-send the same tagged frame, which
// stays exactly-once by the same window.
//
// Strategy rollover (src/adaptive). Step 1 can recur mid-deployment: when
// the AdaptiveController detects population drift it re-optimizes Q and
// stages the result through PlanSession::RollStrategy, which takes effect at
// the next Seal(). Strategies are versioned, and the version binds the whole
// pipeline together: every epoch snapshot records the strategy version its
// reports were encoded under (so kind-1 "WFSN" buffers append a u32 version;
// version 0 keeps the legacy kind-0 encoding, canonically), and the server
// decodes each epoch with that version's strategy — no epoch ever mixes
// strategies, so each device's single report stays eps-LDP under exactly the
// strategy it polled. Networked fleets poll via the kGetStrategy frame: an
// empty-payload request answered with a "WFST" strategy object carrying the
// version, epsilon and the strategy's k >= 1 factors (kind 0: one row-major
// m x n matrix; kind 1: each factor's m_i, n_i, epsilon_i and matrix, see
// wire/wire_format.h), from which a device builds its StrategyReporter;
// DecodeStrategy re-validates the eps-LDP guarantee
// (ValidateFactoredStrategy) so a tampered or buggy server cannot silently
// void a device's privacy. Deployments whose mechanism is not
// strategy-based answer kGetStrategy with kFailedPrecondition (HTTP-wise: a
// 409).

#ifndef WFM_LDP_PROTOCOL_H_
#define WFM_LDP_PROTOCOL_H_

#include "core/factorization.h"
#include "ldp/local_randomizer.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"

namespace wfm {

/// Draws the response histogram y = M_Q(x) exactly, one multinomial per user
/// type. Entries of x must be non-negative integers (counts).
Vector SimulateResponseHistogram(const Matrix& q, const Vector& x, Rng& rng);

/// Reference implementation that loops over individual users through
/// LocalRandomizer; distributionally identical to SimulateResponseHistogram
/// (used in tests and examples).
Vector SimulateResponseHistogramPerUser(const Matrix& q, const Vector& x, Rng& rng);

}  // namespace wfm

#endif  // WFM_LDP_PROTOCOL_H_

// A socket front end for a deployed plan: the network face of
// api/PlanSession, speaking the wire_format.h encodings over a minimal
// length-prefixed TCP framing — hardened for real-world faults (deadlines,
// idempotent retry, overload shedding).
//
// One CollectionServer owns one PlanSession. Every frame a client sends maps
// onto the session surface it already has:
//
//   kAccept        -> PlanSession::Accept        (ingest one wire report)
//   kSeal          -> PlanSession::Seal          (freeze the epoch; returns
//                                                 the sealed snapshot)
//   kEstimate      -> PlanSession::Estimate      (serve the latest estimate)
//   kGetSnapshot   -> PlanSession::Snapshot      (fetch a sealed epoch)
//   kPushSnapshot  -> PlanSession::RestoreSealedEpoch
//                                                (adopt another node's epoch)
//   kPing          -> liveness probe
//   kShutdown      -> stop accepting connections (drains, then exits)
//   kMetrics       -> obs/MetricsRegistry::Global().Snapshot()
//                                                (render the process-wide
//                                                 telemetry registry; one
//                                                 format byte selects
//                                                 Prometheus text or JSON)
//   kGetStrategy   -> PlanSession::CurrentStrategy
//                                                (the versioned strategy
//                                                 clients should encode
//                                                 under right now — how a
//                                                 networked client survives
//                                                 an adaptive roll)
//   kAcceptBatch   -> PlanSession::AcceptBatch   (atomic whole-batch ingest:
//                                                 all reports land or none)
//
// Framing (all integers little-endian):
//   request   u32 length | u8 type | payload[length - 1]
//   response  u32 length | u16 status | payload[length - 2]
//
// Ingest frames (kAccept, kAcceptBatch) open with a 16-byte idempotency tag:
//   u64 client_id | u64 sequence | <body>
// where kAccept's body is one wire report and kAcceptBatch's is
// `u32 count | count x (u32 len | wire report)`. A client_id of zero means
// untagged (no retry protection); a nonzero client_id makes re-delivery
// exactly-once: the server keeps a per-client sliding window of recently
// ingested sequence numbers, and a retried frame whose (client_id, sequence)
// was already counted is acknowledged (response payload byte 1 instead of 0)
// WITHOUT touching any counter. A retried batch therefore changes nothing —
// the estimate stays bit-identical no matter how many times the network
// re-delivers a frame.
//
// Response status is HTTP-flavored: 200 OK, 400 kInvalidArgument,
// 404 kNotFound, 409 kFailedPrecondition, 500 kInternal, and 503
// kUnavailable when admission control sheds an ingest frame (see below; the
// 503 payload opens with a u32 Retry-After hint in milliseconds). Error
// responses carry the Status message as UTF-8 payload. Every request body is
// untrusted: malformed frames and payloads are answered with 400 and the
// connection stays up — a bad client cannot crash collection or poison an
// aggregate (wire decode rejects structural defects, then
// PlanSession::Accept rejects semantic ones). An oversized frame (length
// prefix past ServiceOptions::max_frame_bytes) is drained and answered 400,
// keeping the connection usable.
//
// Deadlines: every socket read and write on a connection carries a poll
// deadline. Once the first byte of a frame arrives, the rest must land
// within ServiceOptions::io_timeout_ms or the connection is evicted (the
// slow-loris defense: a peer drip-feeding bytes cannot pin a thread).
// Between frames, ServiceOptions::idle_timeout_ms (0 = wait forever) bounds
// how long an idle connection may hold its thread. Evictions count into
// wfm_wire_timeouts_total.
//
// Overload shedding: with ServiceOptions::max_unsealed_reports_per_shard
// set, each shard admits at most that many reports per epoch; ingest frames
// beyond the bound are shed with 503 + Retry-After instead of growing the
// backlog, so estimate serving stays healthy while clients back off. A Seal
// drains the backlog. Duplicate (retried) frames are acknowledged even
// under shedding — re-delivery of counted work costs nothing. Sheds count
// into wfm_wire_shed_total.
//
// Threading: one acceptor thread plus one thread per live connection.
// Reports land on shard (connection id % num_shards), so concurrent clients
// spread over the sharded aggregator without coordinating.
//
// Buffers: a client builds each ingest frame in place in a request buffer
// it keeps, and writes the length prefix and that buffer with one sendmsg;
// a connection decodes into reports it keeps (wire_format.h,
// DecodeReportBatchInto). Steady batch ingest therefore allocates a few
// small objects per batch, none per report (tests/wire_alloc_test.cc).
//
// Stop() is graceful: it stops accepting, lets every in-flight request
// finish and write its full response, and only force-closes connections
// that are still mid-frame after ServiceOptions::drain_timeout_ms. A client
// that got an acknowledgment before the server stopped is guaranteed its
// report was ingested.
//
// Telemetry: every served request is accounted in the obs registry
// (per-type request counters and latency histograms, per-status-code
// response counters, byte totals, connection counts, plus the fault-layer
// counters wfm_wire_timeouts_total / wfm_wire_deduped_total /
// wfm_wire_shed_total — see README "Fault tolerance" for the catalog).
// Accounting happens after the handler runs but before the response is
// written, so once a client has its response, its request is visible to any
// later kMetrics scrape — and a scrape, which renders inside the handler,
// never counts itself.
//
// Durability: with ServiceOptions::snapshot_dir set, every sealed epoch
// (kSeal) is appended to a SnapshotStore, and Start() replays the store
// through RestoreSealedEpoch before accepting traffic — kill the process,
// restart it on the same directory, and estimates over sealed history are
// identical.

#ifndef WFM_WIRE_SERVICE_H_
#define WFM_WIRE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/plan.h"
#include "common/status.h"
#include "wire/wire_format.h"

namespace wfm {

/// Request frame types.
enum class WireMessageType : std::uint8_t {
  kAccept = 1,
  kSeal = 2,
  kEstimate = 3,
  kGetSnapshot = 4,
  kPushSnapshot = 5,
  kPing = 6,
  kShutdown = 7,
  /// Scrape the process-wide obs registry. Payload is one format byte (a
  /// MetricsFormat value); the 200 response payload is the rendered text.
  kMetrics = 8,
  /// Fetch the versioned strategy currently active on the server (empty
  /// payload; the 200 response is a WFST strategy object). Clients poll
  /// after each seal and rebuild their randomizer when the version moves —
  /// 409 when the deployment is not strategy-based.
  kGetStrategy = 9,
  /// Atomic whole-batch ingest: an idempotency tag, then
  /// `u32 count | count x (u32 len | wire report)`. All reports land or
  /// none; one (client_id, sequence) pair covers the whole batch.
  kAcceptBatch = 10,
};

/// Exposition format selector carried in a kMetrics request payload.
enum class MetricsFormat : std::uint8_t {
  kPrometheus = 0,
  kJson = 1,
};

/// HTTP-flavored response codes carried in the u16 status field.
inline constexpr std::uint16_t kWireStatusOk = 200;
inline constexpr std::uint16_t kWireStatusBadRequest = 400;
inline constexpr std::uint16_t kWireStatusNotFound = 404;
inline constexpr std::uint16_t kWireStatusConflict = 409;
inline constexpr std::uint16_t kWireStatusInternal = 500;
/// Admission control shed an ingest frame. The payload opens with a u32
/// Retry-After hint in milliseconds; retrying after the hint (with the same
/// idempotency tag) is always safe.
inline constexpr std::uint16_t kWireStatusUnavailable = 503;

/// Maps a Status code onto the wire's response status field.
std::uint16_t WireStatusCode(const Status& status);

struct ServiceOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// via CollectionServer::port()).
  int port = 0;
  /// Shards of the underlying PlanSession's aggregator.
  int num_shards = 4;
  /// When non-empty, sealed epochs persist here and Start() recovers from
  /// the directory's contents.
  std::string snapshot_dir;
  /// Once the first byte of a frame has arrived, the remainder (and any
  /// response write) must complete within this deadline or the connection is
  /// evicted — the slow-loris defense. <= 0 disables the deadline.
  int io_timeout_ms = 5000;
  /// How long an idle connection may sit between frames before it is
  /// evicted. 0 waits forever (long-lived clients are the common case).
  int idle_timeout_ms = 0;
  /// How long Stop() waits for in-flight requests to finish and their
  /// responses to flush before force-closing the stragglers.
  int drain_timeout_ms = 2000;
  /// Per-shard admission bound: reports admitted into the current (unsealed)
  /// epoch per shard before further ingest frames are shed with 503.
  /// 0 = unlimited (no shedding).
  std::int64_t max_unsealed_reports_per_shard = 0;
  /// Retry-After hint carried in 503 responses, in milliseconds.
  int retry_after_ms = 50;
  /// Sequence numbers remembered per client for duplicate suppression.
  /// Anything older than the newest `dedup_window` sequences is treated as
  /// already-delivered. 0 disables dedup (tags are ignored).
  int dedup_window = 4096;
  /// Largest frame the server will read. Anything past it is drained and
  /// answered 400 without ever being buffered (configurable so tests can
  /// exercise the cap cheaply).
  std::uint32_t max_frame_bytes = 64u << 20;
};

/// Client-side transport knobs: deadlines, identity, and the retry policy.
struct WireOptions {
  /// TCP connect deadline. <= 0 blocks indefinitely.
  int connect_timeout_ms = 5000;
  /// Deadline for writing one request and reading its full response.
  /// <= 0 blocks indefinitely.
  int io_timeout_ms = 5000;
  /// Transparent retries for idempotent requests on transient failures
  /// (connection reset, deadline expiry, 503). 0 = fail fast (the default:
  /// callers opt in to retry semantics).
  int max_retries = 0;
  /// Exponential backoff base; attempt k sleeps ~base * 2^k plus jitter,
  /// capped at retry_max_ms. A 503's Retry-After hint takes precedence when
  /// it is longer.
  int retry_base_ms = 10;
  int retry_max_ms = 1000;
  /// Idempotency identity stamped on ingest frames. 0 auto-generates a
  /// random nonzero id per connected client — set it explicitly when a
  /// logical device must keep its identity across reconnects.
  std::uint64_t client_id = 0;
};

/// Transport-fault observability for one client: how many times the retry
/// layer saved a request, and what it saw along the way.
struct WireClientStats {
  std::int64_t retries = 0;       ///< Re-sent requests (any transient cause).
  std::int64_t timeouts = 0;      ///< I/O deadlines that expired.
  std::int64_t reconnects = 0;    ///< New TCP connections after a failure.
  std::int64_t dedup_acks = 0;    ///< Server acks that flagged a duplicate.
  std::int64_t shed_retries = 0;  ///< 503 responses that triggered a retry.
};

/// One response as seen by the client: HTTP-flavored status plus raw payload
/// bytes (a wire object on success, a UTF-8 message on error).
struct WireResponse {
  std::uint16_t status = 0;
  WireBytes payload;

  bool ok() const { return status == kWireStatusOk; }
};

/// The serving process: owns the PlanSession and the listening socket.
class CollectionServer {
 public:
  /// Builds the session from `plan` (shape validation, decoder, estimator
  /// caching all come from the plan's deployment).
  CollectionServer(const Plan& plan, ServiceOptions options);
  ~CollectionServer();

  CollectionServer(const CollectionServer&) = delete;
  CollectionServer& operator=(const CollectionServer&) = delete;

  /// Binds, recovers persisted epochs (if snapshot_dir is set), and starts
  /// the acceptor thread. kInternal when the socket cannot be bound;
  /// kInvalidArgument when a persisted snapshot fails validation (corrupt
  /// snapshot files were already quarantined by SnapshotStore::LoadAll).
  Status Start();

  /// Graceful stop: stops accepting, drains in-flight requests (each
  /// finishes and flushes its response), then force-closes any connection
  /// still mid-frame after drain_timeout_ms and joins every thread.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Blocks until a kShutdown frame (or Stop()) ends the serving loop.
  void WaitUntilShutdown();

  /// Bound TCP port (resolved after Start() when options.port == 0).
  int port() const { return port_; }

  /// The session behind the socket — the in-process view of the same state,
  /// used by tests to cross-check networked results bit for bit.
  PlanSession& session() { return *session_; }

 private:
  struct ClientDedupWindow;

  void AcceptLoop();
  void ServeConnection(int fd, int connection_id);
  /// `reports` is the connection's decode storage, reused across frames.
  WireResponse HandleRequest(std::uint8_t type,
                             std::span<const std::uint8_t> payload, int shard,
                             std::vector<Report>& reports);
  WireResponse HandleIngest(std::span<const std::uint8_t> payload, int shard,
                            bool batch, std::vector<Report>& reports);
  /// The one admit step for decoded reports (a kAccept body is a batch of
  /// one): a 503 when they would push the shard's unsealed backlog past
  /// max_unsealed_reports_per_shard, else PlanSession::AcceptBatch and, on
  /// success, the backlog add.
  WireResponse Admit(int shard, std::span<const Report> reports);
  /// Admit under the client's dedup lock; the reports are admitted only for
  /// fresh (client_id, sequence) pairs.
  WireResponse AdmitTagged(std::uint64_t client_id, std::uint64_t sequence,
                           int shard, std::span<const Report> reports);

  std::unique_ptr<PlanSession> session_;
  ServiceOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  /// Set by Stop()/kShutdown: connections finish their in-flight request,
  /// flush the response, and exit instead of waiting for the next frame.
  std::atomic<bool> draining_{false};
  std::thread acceptor_;
  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;
  std::vector<int> live_fds_;  ///< Open connection sockets (under the mutex).

  /// Per-shard count of reports admitted into the current epoch (the
  /// shedding measure; reset by kSeal).
  std::vector<std::atomic<std::int64_t>> shard_backlog_;

  /// Sliding dedup windows by client id (under dedup_mutex_; each window
  /// has its own lock held across its ingest so concurrent re-deliveries of
  /// the same sequence cannot double-count).
  std::mutex dedup_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<ClientDedupWindow>>
      dedup_windows_;
};

/// A blocking client for the service. One TCP connection; not thread-safe
/// (use one client per thread — each connection gets its own server shard).
///
/// With WireOptions::max_retries > 0, idempotent requests (Accept,
/// AcceptBatch, Ping, Estimate, GetSnapshot, Metrics, GetStrategy) retry
/// transparently on transient failures — connection loss, expired deadlines,
/// 503 sheds — reconnecting as needed with exponential backoff plus jitter,
/// honoring the server's Retry-After hint. Ingest retries reuse the original
/// (client_id, sequence) tag, so the server's dedup window makes delivery
/// exactly-once no matter how often the transport fails. Seal, PushSnapshot,
/// and Shutdown are NOT retried (sealing twice is two epochs, not one).
class CollectionClient {
 public:
  /// Connects to 127.0.0.1:port. kInternal when the connection fails,
  /// kDeadlineExceeded when it times out.
  static StatusOr<CollectionClient> Connect(int port,
                                            WireOptions options = {});

  CollectionClient(CollectionClient&& other) noexcept;
  CollectionClient& operator=(CollectionClient&& other) noexcept;
  ~CollectionClient();

  /// Ships one report; OK when the server ingested it (or had already
  /// ingested a retried delivery of it — exactly-once either way).
  Status Accept(const Report& report);

  /// Ships a batch as one atomic, idempotent unit: all reports land or none,
  /// and a retried batch can never double-count.
  Status AcceptBatch(std::span<const Report> reports);

  /// Seals the server's current epoch and returns the sealed snapshot.
  /// Never retried: a re-delivered seal would cut a second epoch.
  StatusOr<EpochSnapshot> Seal();

  /// Fetches the estimate over the latest sealed epoch.
  StatusOr<WorkloadEstimate> Estimate(
      EstimatorKind kind = EstimatorKind::kWnnls);

  /// Fetches one sealed epoch's snapshot (kNotFound when not sealed).
  StatusOr<EpochSnapshot> GetSnapshot(int epoch_id);

  /// Ships a sealed epoch to the server (multi-node merge); returns the
  /// epoch id the server assigned locally. Never retried.
  StatusOr<int> PushSnapshot(const EpochSnapshot& snapshot);

  /// Scrapes the server's metrics registry: the live /metrics surface.
  /// Returns the rendered exposition text (obs/exposition.h), byte-exact
  /// with an in-process rendering of the same registry state.
  StatusOr<std::string> Metrics(
      MetricsFormat format = MetricsFormat::kPrometheus);

  /// Fetches the strategy the server is currently collecting under, with
  /// the session version it carries — decode-validated, so its k >= 1
  /// factors are guaranteed to be a genuine epsilon-LDP strategy. Clients
  /// compare the version against the one they encode under and swap their
  /// StrategyReporter when it moves (kFailedPrecondition for deployments
  /// with no strategy).
  StatusOr<StrategySnapshot> GetStrategy();

  /// Liveness probe.
  Status Ping();

  /// Asks the server to stop serving (drains in-flight connections).
  Status Shutdown();

  /// Sends one raw frame and returns the raw response — the hook tests use
  /// to deliver deliberately malformed requests. Not retried; subject to the
  /// client's I/O deadline.
  StatusOr<WireResponse> RawRequest(std::uint8_t type,
                                    std::span<const std::uint8_t> payload);

  /// What the fault-tolerance layer did on this client's behalf.
  const WireClientStats& stats() const { return stats_; }

  /// The idempotency identity this client stamps on ingest frames.
  std::uint64_t client_id() const { return options_.client_id; }

 private:
  CollectionClient(int fd, int port, WireOptions options)
      : fd_(fd), port_(port), options_(options) {}

  /// Re-establishes the TCP connection after a transport failure.
  Status Reconnect();
  /// One request with up to max_retries transparent re-sends. `sequence`
  /// applies to ingest frames (0 for plain idempotent requests);
  /// `dup_out` reports whether the final ack flagged a duplicate.
  StatusOr<WireResponse> RetryingRequest(std::uint8_t type,
                                         std::span<const std::uint8_t> payload,
                                         bool* dup_out = nullptr);
  /// Starts request_ over with the idempotency tag and the next sequence.
  void StartIngestRequest();
  /// Sends request_ as an ingest frame, retrying per options_.
  Status SendIngestRequest(WireMessageType type);

  int fd_ = -1;
  int port_ = 0;
  WireOptions options_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t backoff_state_ = 0;  ///< xorshift state for retry jitter.
  WireClientStats stats_;
  /// The ingest frame body, built in place and kept across requests so its
  /// storage is reused; retries resend these same bytes. Released after a
  /// frame above the service's 4 MiB retention cap.
  WireBytes request_;
};

}  // namespace wfm

#endif  // WFM_WIRE_SERVICE_H_

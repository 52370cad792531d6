#include "wire/service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <random>
#include <set>
#include <utility>

#include "common/check.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "wire/byte_order.h"
#include "wire/snapshot_store.h"

namespace wfm {
namespace {

// How often blocked socket waits re-check the drain flag. Bounds Stop()
// latency for idle connections without busy-waiting.
constexpr int kPollTickMs = 50;

// Chunk size for draining oversized frames without buffering them.
constexpr std::size_t kDrainChunkBytes = 64 * 1024;

// Bounds on the decoded reports a connection keeps between frames. Their
// storage only ever comes from bytes decoded into them, and a decoded
// Report holds no more than its own report (wire_format.h), so once the
// frames served since the last release pass kMaxRetainedFrameBytes, or a
// frame held more than kMaxRetainedReports reports, the reports are
// released. A client therefore cannot make a connection keep more than
// about that many bytes plus one frame, however it sizes or orders its
// batches, while steady traffic reuses the storage for hundreds of batches
// between releases. The same byte cap bounds the frame buffers themselves:
// a server connection's frame body and a client's request buffer are
// released after a frame larger than kMaxRetainedFrameBytes, so an idle
// connection that once carried a large frame does not keep it.
constexpr std::size_t kMaxRetainedReports = 4096;
constexpr std::size_t kMaxRetainedFrameBytes = std::size_t{4} << 20;

// ---- request telemetry ----------------------------------------------------

// Telemetry slot names, indexed by request type byte. Byte 0 is no frame
// type, so its slot counts unknown types; a byte with no name (the retired 4
// and 5) counts there too.
constexpr const char* kSlotNames[] = {
    "unknown", "accept",   "seal",    "estimate",     nullptr,        nullptr,
    "ping",    "shutdown", "metrics", "get_strategy", "accept_batch",
};

// Per-request accounting handles, resolved from the obs registry once (at
// the first served connection) and reused as raw pointers thereafter so the
// serving loop never touches the registry map.
struct WireTelemetry {
  /// One slot per type byte in kSlotNames; the unnamed ones stay null and
  /// are never indexed.
  static constexpr int kNumSlots = static_cast<int>(std::size(kSlotNames));

  Counter* requests[kNumSlots];
  Histogram* latency[kNumSlots];
  Counter* responses_200;
  Counter* responses_400;
  Counter* responses_404;
  Counter* responses_409;
  Counter* responses_500;
  Counter* responses_503;
  Counter* bytes_read;
  Counter* bytes_written;
  Counter* connections;
  Gauge* connections_active;
  Counter* timeouts;  ///< I/O deadline expiries (evictions + client waits).
  Counter* deduped;   ///< Retried ingest frames suppressed by the window.
  Counter* shed;      ///< Ingest frames refused by admission control.
  Counter* retries;   ///< Client-side transparent re-sends.

  Counter& ResponseCounter(std::uint16_t status) const {
    switch (status) {
      case kWireStatusOk:
        return *responses_200;
      case kWireStatusBadRequest:
        return *responses_400;
      case kWireStatusNotFound:
        return *responses_404;
      case kWireStatusConflict:
        return *responses_409;
      case kWireStatusUnavailable:
        return *responses_503;
      default:
        return *responses_500;
    }
  }
};

/// Telemetry slot for a (possibly unknown) request type byte.
int RequestSlot(std::uint8_t type) {
  return type < WireTelemetry::kNumSlots && kSlotNames[type] != nullptr ? type
                                                                        : 0;
}

const WireTelemetry& Telemetry() {
  static const WireTelemetry* const telemetry = [] {
    auto* t = new WireTelemetry();
    MetricsRegistry& registry = MetricsRegistry::Global();
    for (int i = 0; i < WireTelemetry::kNumSlots; ++i) {
      if (kSlotNames[i] == nullptr) continue;
      t->requests[i] = &registry.GetCounter(
          std::string("wfm_wire_requests_") + kSlotNames[i] + "_total");
      t->latency[i] = &registry.GetHistogram(
          std::string("wfm_wire_request_") + kSlotNames[i] + "_duration_ns");
    }
    t->responses_200 = &registry.GetCounter("wfm_wire_responses_200_total");
    t->responses_400 = &registry.GetCounter("wfm_wire_responses_400_total");
    t->responses_404 = &registry.GetCounter("wfm_wire_responses_404_total");
    t->responses_409 = &registry.GetCounter("wfm_wire_responses_409_total");
    t->responses_500 = &registry.GetCounter("wfm_wire_responses_500_total");
    t->responses_503 = &registry.GetCounter("wfm_wire_responses_503_total");
    t->bytes_read = &registry.GetCounter("wfm_wire_bytes_read_total");
    t->bytes_written = &registry.GetCounter("wfm_wire_bytes_written_total");
    t->connections = &registry.GetCounter("wfm_wire_connections_total");
    t->connections_active = &registry.GetGauge("wfm_wire_connections_active");
    t->timeouts = &registry.GetCounter("wfm_wire_timeouts_total");
    t->deduped = &registry.GetCounter("wfm_wire_deduped_total");
    t->shed = &registry.GetCounter("wfm_wire_shed_total");
    t->retries = &registry.GetCounter("wfm_wire_retries_total");
    return t;
  }();
  return *telemetry;
}

// ---- deadline-bounded socket I/O -------------------------------------------

enum class IoResult { kOk, kClosed, kTimeout, kStopped };

std::int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Reads exactly `size` bytes. `deadline_ms` <= 0 waits forever; `stop`, when
// set, aborts the wait between polls (the graceful-drain hook). Uses
// MSG_DONTWAIT + poll so a deadline can interrupt a stalled peer.
IoResult ReadBytes(int fd, std::uint8_t* data, std::size_t size,
                   int deadline_ms, const std::atomic<bool>* stop) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t done = 0;
  while (done < size) {
    const ssize_t got = ::recv(fd, data + done, size - done, MSG_DONTWAIT);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return IoResult::kClosed;  // orderly peer close
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return IoResult::kClosed;
    }
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return IoResult::kStopped;
    }
    int wait = kPollTickMs;
    if (deadline_ms > 0) {
      const std::int64_t elapsed = ElapsedMs(start);
      if (elapsed >= deadline_ms) return IoResult::kTimeout;
      wait = static_cast<int>(
          std::min<std::int64_t>(wait, deadline_ms - elapsed));
    }
    pollfd p{fd, POLLIN, 0};
    ::poll(&p, 1, wait);
  }
  return IoResult::kOk;
}

// Writes `head` then `body` as one stream, with one sendmsg per attempt, so
// a frame's length prefix and its payload leave without being copied into
// one buffer first. MSG_NOSIGNAL everywhere: a peer that hangs up
// mid-response must surface as an error return, not a process-killing
// SIGPIPE.
IoResult WriteFrame(int fd, std::span<const std::uint8_t> head,
                    std::span<const std::uint8_t> body, int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t size = head.size() + body.size();
  std::size_t done = 0;
  while (done < size) {
    const std::size_t head_done = std::min(done, head.size());
    const std::size_t body_done = done - head_done;
    iovec parts[2] = {
        {const_cast<std::uint8_t*>(head.data()) + head_done,
         head.size() - head_done},
        {const_cast<std::uint8_t*>(body.data()) + body_done,
         body.size() - body_done}};
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = 2;
    const ssize_t put = ::sendmsg(fd, &message, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (put > 0) {
      done += static_cast<std::size_t>(put);
      continue;
    }
    if (put == 0) return IoResult::kClosed;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return IoResult::kClosed;
    }
    int wait = kPollTickMs;
    if (deadline_ms > 0) {
      const std::int64_t elapsed = ElapsedMs(start);
      if (elapsed >= deadline_ms) return IoResult::kTimeout;
      wait = static_cast<int>(
          std::min<std::int64_t>(wait, deadline_ms - elapsed));
    }
    pollfd p{fd, POLLOUT, 0};
    ::poll(&p, 1, wait);
  }
  return IoResult::kOk;
}

// Reads and discards `size` bytes under one overall deadline — how an
// oversized frame is consumed without ever being buffered, keeping the
// connection usable for the next request.
IoResult DiscardBytes(int fd, std::uint64_t size, int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  std::uint8_t scratch[kDrainChunkBytes];
  std::uint64_t remaining = size;
  while (remaining > 0) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, sizeof(scratch)));
    int budget = -1;
    if (deadline_ms > 0) {
      const std::int64_t elapsed = ElapsedMs(start);
      if (elapsed >= deadline_ms) return IoResult::kTimeout;
      budget = static_cast<int>(deadline_ms - elapsed);
    }
    const IoResult got = ReadBytes(fd, scratch, chunk, budget, nullptr);
    if (got != IoResult::kOk) return got;
    remaining -= chunk;
  }
  return IoResult::kOk;
}

IoResult SendResponse(int fd, const WireResponse& response, int deadline_ms) {
  std::uint8_t header[6];
  StoreU32(header, static_cast<std::uint32_t>(2 + response.payload.size()));
  header[4] = static_cast<std::uint8_t>(response.status);
  header[5] = static_cast<std::uint8_t>(response.status >> 8);
  return WriteFrame(fd, header, response.payload, deadline_ms);
}

WireResponse OkResponse(WireBytes payload = {}) {
  return WireResponse{kWireStatusOk, std::move(payload)};
}

// Ingest ack payload: one byte, 0 = freshly counted, 1 = duplicate delivery
// of work the server had already counted.
WireResponse IngestAck(bool duplicate) {
  return OkResponse(WireBytes{static_cast<std::uint8_t>(duplicate ? 1 : 0)});
}

WireResponse ErrorResponse(const Status& status) {
  WireResponse response;
  response.status = WireStatusCode(status);
  const std::string& message = status.message();
  response.payload.assign(message.begin(), message.end());
  return response;
}

// The 503 shed response: u32 Retry-After hint (milliseconds), then the
// human-readable reason.
WireResponse ShedResponse(int retry_after_ms, int shard, std::int64_t cap) {
  WireResponse response;
  response.status = kWireStatusUnavailable;
  const std::uint32_t hint =
      retry_after_ms > 0 ? static_cast<std::uint32_t>(retry_after_ms) : 0;
  PutU32(response.payload, hint);
  const std::string message =
      "shard " + std::to_string(shard) + " at admission cap " +
      std::to_string(cap) + " unsealed reports; retry after " +
      std::to_string(retry_after_ms) + "ms or seal the epoch";
  response.payload.insert(response.payload.end(), message.begin(),
                          message.end());
  return response;
}

// Pulls the Retry-After hint out of a 503 payload (0 when absent).
std::uint32_t RetryAfterHintMs(const WireResponse& response) {
  if (response.status != kWireStatusUnavailable ||
      response.payload.size() < 4) {
    return 0;
  }
  return GetU32(response.payload.data());
}

Status StatusFromResponse(const WireResponse& response) {
  std::span<const std::uint8_t> text(response.payload);
  if (response.status == kWireStatusUnavailable && text.size() >= 4) {
    text = text.subspan(4);  // Skip the Retry-After hint.
  }
  const std::string message(text.begin(), text.end());
  switch (response.status) {
    case kWireStatusOk:
      return Status::Ok();
    case kWireStatusBadRequest:
      return Status::InvalidArgument(message);
    case kWireStatusNotFound:
      return Status::NotFound(message);
    case kWireStatusConflict:
      return Status::FailedPrecondition(message);
    case kWireStatusUnavailable:
      return Status::Unavailable(message);
    default:
      return Status::Internal(message);
  }
}

}  // namespace

std::uint16_t WireStatusCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return kWireStatusOk;
    case StatusCode::kInvalidArgument:
      return kWireStatusBadRequest;
    case StatusCode::kNotFound:
      return kWireStatusNotFound;
    case StatusCode::kFailedPrecondition:
      return kWireStatusConflict;
    case StatusCode::kInternal:
      return kWireStatusInternal;
    case StatusCode::kUnavailable:
      return kWireStatusUnavailable;
    case StatusCode::kDeadlineExceeded:
      return kWireStatusInternal;
  }
  return kWireStatusInternal;
}

// ---- server ---------------------------------------------------------------

// One client's idempotency state: the newest sequence plus every sequence in
// the trailing window. The lock is held across the ingest of a fresh
// sequence, so concurrent re-deliveries of the same (client_id, sequence)
// serialize and exactly one of them counts.
struct CollectionServer::ClientDedupWindow {
  std::mutex mu;
  bool any = false;
  std::uint64_t max_seq = 0;
  std::set<std::uint64_t> seen;
};

CollectionServer::CollectionServer(const Plan& plan, ServiceOptions options)
    : session_(plan.StartSession(options.num_shards)),
      options_(std::move(options)),
      shard_backlog_(static_cast<std::size_t>(options_.num_shards)) {}

CollectionServer::~CollectionServer() { Stop(); }

Status CollectionServer::Start() {
  WFM_CHECK(!running_.load()) << "Start() called twice";
  // Replay persisted epochs before the socket opens, so the first estimate
  // a client sees is the last epoch sealed before the crash, and the next
  // seal numbers after every epoch on disk.
  if (!options_.snapshot_dir.empty()) {
    SnapshotStore store(options_.snapshot_dir);
    StatusOr<std::vector<EpochSnapshot>> persisted = store.LoadAll();
    if (!persisted.ok()) return persisted.status();
    for (const EpochSnapshot& snapshot : persisted.value()) {
      StatusOr<int> restored = session_->RestoreSealedEpoch(snapshot);
      if (!restored.ok()) return restored.status();
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind() failed on port " +
                            std::to_string(options_.port));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }

  draining_.store(false);
  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void CollectionServer::Stop() {
  // Graceful phase: connections finish the request they are handling, flush
  // its response, and exit at the next between-frames poll tick.
  draining_.store(true);
  if (running_.exchange(false) && listen_fd_ >= 0) {
    // Shutting down the listener unblocks accept(); the loop then exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();

  const auto drain_start = std::chrono::steady_clock::now();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(threads_mutex_);
      if (live_fds_.empty()) break;
    }
    if (ElapsedMs(drain_start) >= options_.drain_timeout_ms) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Force phase: anything still connected is mid-frame against a stalled
  // peer; a half-open shutdown unblocks its recv so the joins below cannot
  // deadlock on a client that never finishes.
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    to_join.swap(connection_threads_);
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
  // Close the listener only after every connection thread is joined: the
  // kShutdown handler reads listen_fd_ to unblock the acceptor, so tearing
  // the fd down earlier would race that read (and risk closing a recycled
  // descriptor out from under it).
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void CollectionServer::WaitUntilShutdown() {
  if (acceptor_.joinable()) acceptor_.join();
}

void CollectionServer::AcceptLoop() {
  int next_connection_id = 0;
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // listener closed by Stop()/kShutdown
    const int id = next_connection_id++;
    std::lock_guard<std::mutex> lock(threads_mutex_);
    live_fds_.push_back(fd);
    connection_threads_.emplace_back(
        [this, fd, id] { ServeConnection(fd, id); });
  }
}

void CollectionServer::ServeConnection(int fd, int connection_id) {
  const WireTelemetry& telemetry = Telemetry();
  telemetry.connections->Increment();
  telemetry.connections_active->Add(1.0);
  // Each connection pins one shard; concurrent clients therefore spread
  // round-robin over the session's sharded aggregator.
  const int shard = connection_id % options_.num_shards;
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  // The frame and its decoded reports live as long as the connection, so a
  // steady stream of batches reuses their storage instead of allocating per
  // report. `retained_frame_bytes` counts the frame bytes served since the
  // reports were last released; a frame above kMaxRetainedFrameBytes
  // releases its own buffer too.
  WireBytes body;
  std::vector<Report> reports;
  std::size_t retained_frame_bytes = 0;
  for (;;) {
    // Between frames: wait for the first byte under the idle budget,
    // checking the drain flag each tick so Stop() can reclaim the thread
    // without cutting anyone's response.
    std::uint8_t length_bytes[4];
    const IoResult first =
        ReadBytes(fd, length_bytes, 1, options_.idle_timeout_ms, &draining_);
    if (first == IoResult::kTimeout) {
      telemetry.timeouts->Increment();  // idle eviction
      break;
    }
    if (first != IoResult::kOk) break;  // peer closed, or draining
    // A frame has begun: the rest must land within the I/O deadline or the
    // peer is evicted (slow-loris defense).
    if (ReadBytes(fd, length_bytes + 1, 3, options_.io_timeout_ms, nullptr) !=
        IoResult::kOk) {
      telemetry.timeouts->Increment();
      break;
    }
    const std::uint32_t length = GetU32(length_bytes);
    if (length < 1 || length > options_.max_frame_bytes) {
      // Oversized (or empty) frame: drain the declared body without ever
      // buffering it, answer 400, and keep serving — the frame cap must not
      // cost the client its connection.
      if (length >= 1 &&
          DiscardBytes(fd, length, options_.io_timeout_ms) != IoResult::kOk) {
        telemetry.timeouts->Increment();
        break;
      }
      const WireResponse response = ErrorResponse(Status::InvalidArgument(
          "frame length " + std::to_string(length) + " outside [1, " +
          std::to_string(options_.max_frame_bytes) + "]"));
      telemetry.bytes_read->Add(4 + static_cast<std::int64_t>(length));
      telemetry.ResponseCounter(response.status).Increment();
      telemetry.bytes_written->Add(
          6 + static_cast<std::int64_t>(response.payload.size()));
      if (SendResponse(fd, response, options_.io_timeout_ms) !=
          IoResult::kOk) {
        break;
      }
      continue;
    }
    body.resize(length);
    if (ReadBytes(fd, body.data(), length, options_.io_timeout_ms, nullptr) !=
        IoResult::kOk) {
      telemetry.timeouts->Increment();
      break;
    }
    const std::uint8_t type = body[0];
    const int slot = RequestSlot(type);
    const std::span<const std::uint8_t> payload(body.data() + 1, length - 1);
    ScopedTimer span(*telemetry.latency[slot]);
    const WireResponse response = HandleRequest(type, payload, shard, reports);
    span.Stop();
    retained_frame_bytes += length;
    if (retained_frame_bytes > kMaxRetainedFrameBytes ||
        reports.size() > kMaxRetainedReports) {
      reports = std::vector<Report>();  // `= {}` would keep the capacity
      retained_frame_bytes = 0;
    }
    if (length > kMaxRetainedFrameBytes) body = WireBytes();
    // Account after the handler but before the response goes out: once a
    // client holds its response, the request is visible to any later
    // kMetrics scrape — and a scrape, rendered inside HandleRequest above,
    // never observes its own accounting.
    telemetry.requests[slot]->Increment();
    telemetry.bytes_read->Add(4 + static_cast<std::int64_t>(length));
    telemetry.ResponseCounter(response.status).Increment();
    telemetry.bytes_written->Add(
        6 + static_cast<std::int64_t>(response.payload.size()));
    const IoResult sent = SendResponse(fd, response, options_.io_timeout_ms);
    if (sent == IoResult::kTimeout) telemetry.timeouts->Increment();
    if (sent != IoResult::kOk) break;
    if (type == static_cast<std::uint8_t>(WireMessageType::kShutdown)) {
      // Response is out; now unblock the acceptor and drain the rest.
      draining_.store(true);
      if (running_.exchange(false)) {
        ::shutdown(listen_fd_, SHUT_RDWR);
      }
      break;
    }
    if (draining_.load(std::memory_order_relaxed)) break;
  }
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    std::erase(live_fds_, fd);
  }
  telemetry.connections_active->Add(-1.0);
  ::close(fd);
}

WireResponse CollectionServer::Admit(int shard,
                                     std::span<const Report> reports) {
  const std::int64_t num_reports = static_cast<std::int64_t>(reports.size());
  std::atomic<std::int64_t>& backlog =
      shard_backlog_[static_cast<std::size_t>(shard)];
  const std::int64_t cap = options_.max_unsealed_reports_per_shard;
  if (cap > 0 && backlog.load(std::memory_order_relaxed) + num_reports > cap) {
    Telemetry().shed->Add(num_reports);
    return ShedResponse(options_.retry_after_ms, shard, cap);
  }
  if (Status accepted = session_->AcceptBatch(shard, reports); !accepted.ok()) {
    return ErrorResponse(accepted);
  }
  backlog.fetch_add(num_reports, std::memory_order_relaxed);
  return IngestAck(/*duplicate=*/false);
}

WireResponse CollectionServer::AdmitTagged(std::uint64_t client_id,
                                           std::uint64_t sequence, int shard,
                                           std::span<const Report> reports) {
  ClientDedupWindow* window;
  {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    std::unique_ptr<ClientDedupWindow>& slot = dedup_windows_[client_id];
    if (slot == nullptr) slot = std::make_unique<ClientDedupWindow>();
    window = slot.get();
  }
  std::lock_guard<std::mutex> lock(window->mu);
  const std::uint64_t span = static_cast<std::uint64_t>(options_.dedup_window);
  if (window->any && sequence <= window->max_seq) {
    // Older than the window: long since delivered (acknowledging is the only
    // safe answer for a retry). Inside the window: consult the exact set.
    if (window->max_seq - sequence >= span ||
        window->seen.count(sequence) > 0) {
      Telemetry().deduped->Add(static_cast<std::int64_t>(reports.size()));
      return IngestAck(/*duplicate=*/true);
    }
  }
  // Fresh work: duplicates bypass admission control above (re-delivery of
  // counted reports costs nothing), but new reports are subject to it.
  WireResponse response = Admit(shard, reports);
  if (!response.ok()) {
    // Not recorded: the frame never counted, so a (corrected) retry is not a
    // duplicate.
    return response;
  }
  window->seen.insert(sequence);
  if (!window->any || sequence > window->max_seq) {
    window->max_seq = sequence;
    window->any = true;
  }
  if (window->max_seq >= span) {
    window->seen.erase(window->seen.begin(),
                       window->seen.lower_bound(window->max_seq - span + 1));
  }
  return response;
}

WireResponse CollectionServer::HandleIngest(
    std::span<const std::uint8_t> payload, int shard, bool batch,
    std::vector<Report>& reports) {
  if (payload.size() < 16) {
    return ErrorResponse(Status::InvalidArgument(
        "ingest frame too short for its 16-byte idempotency tag"));
  }
  const std::uint64_t client_id = GetU64(payload.data());
  const std::uint64_t sequence = GetU64(payload.data() + 8);
  const std::span<const std::uint8_t> body = payload.subspan(16);

  // Decode into the connection's reports. A batch that fails to decode
  // returns here, before anything is admitted or counted.
  std::size_t count = 1;
  if (!batch) {
    if (reports.empty()) reports.resize(1);
    if (Status decoded = DecodeReportInto(body, reports.front());
        !decoded.ok()) {
      return ErrorResponse(decoded);
    }
  } else {
    StatusOr<std::size_t> decoded = DecodeReportBatchInto(body, reports);
    if (!decoded.ok()) return ErrorResponse(decoded.status());
    count = decoded.value();
  }
  const std::span<const Report> decoded(reports.data(), count);

  if (client_id != 0 && options_.dedup_window > 0) {
    return AdmitTagged(client_id, sequence, shard, decoded);
  }
  // Untagged ingest: no retry protection, but admission control still holds.
  return Admit(shard, decoded);
}

WireResponse CollectionServer::HandleRequest(
    std::uint8_t type, std::span<const std::uint8_t> payload, int shard,
    std::vector<Report>& reports) {
  switch (static_cast<WireMessageType>(type)) {
    case WireMessageType::kAccept:
      return HandleIngest(payload, shard, /*batch=*/false, reports);
    case WireMessageType::kAcceptBatch:
      return HandleIngest(payload, shard, /*batch=*/true, reports);
    case WireMessageType::kSeal: {
      if (!payload.empty()) {
        return ErrorResponse(
            Status::InvalidArgument("seal request carries a payload"));
      }
      const EpochSnapshot snapshot = session_->Seal();
      // The seal drained every admitted report into a sealed epoch; the
      // admission backlog restarts from zero.
      for (std::atomic<std::int64_t>& backlog : shard_backlog_) {
        backlog.store(0, std::memory_order_relaxed);
      }
      if (!options_.snapshot_dir.empty()) {
        SnapshotStore store(options_.snapshot_dir);
        if (Status saved = store.Append(snapshot); !saved.ok()) {
          return ErrorResponse(saved);
        }
      }
      return OkResponse(EncodeSnapshot(snapshot));
    }
    case WireMessageType::kEstimate: {
      if (payload.size() != 1 || payload[0] > 1) {
        return ErrorResponse(Status::InvalidArgument(
            "estimate request payload must be one estimator-kind byte"));
      }
      const EstimatorKind kind = payload[0] == 0 ? EstimatorKind::kUnbiased
                                                 : EstimatorKind::kWnnls;
      StatusOr<WorkloadEstimate> estimate = session_->Estimate(kind);
      if (!estimate.ok()) return ErrorResponse(estimate.status());
      return OkResponse(EncodeEstimate(estimate.value()));
    }
    case WireMessageType::kPing:
      return OkResponse();
    case WireMessageType::kShutdown:
      return OkResponse();
    case WireMessageType::kMetrics: {
      if (payload.size() != 1 ||
          payload[0] > static_cast<std::uint8_t>(MetricsFormat::kJson)) {
        return ErrorResponse(Status::InvalidArgument(
            "metrics request payload must be one format byte (0 Prometheus, "
            "1 JSON)"));
      }
      const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
      const std::string text =
          static_cast<MetricsFormat>(payload[0]) == MetricsFormat::kPrometheus
              ? ToPrometheusText(snapshot)
              : ToJson(snapshot);
      return OkResponse(WireBytes(text.begin(), text.end()));
    }
    case WireMessageType::kGetStrategy: {
      if (!payload.empty()) {
        return ErrorResponse(Status::InvalidArgument(
            "get-strategy request carries a payload"));
      }
      StatusOr<StrategySnapshot> strategy = session_->CurrentStrategy();
      if (!strategy.ok()) return ErrorResponse(strategy.status());
      return OkResponse(EncodeStrategy(strategy.value()));
    }
    default:
      return ErrorResponse(Status::InvalidArgument(
          "unknown request type " + std::to_string(type)));
  }
}

// ---- client ---------------------------------------------------------------

namespace {

// A nonzero 64-bit identity for a client that did not pin one. Random so
// independent fleet members almost surely never collide.
std::uint64_t GenerateClientId() {
  std::random_device rd;
  std::uint64_t id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  if (id == 0) id = 1;
  return id;
}

// Opens a TCP connection to 127.0.0.1:port within connect_timeout_ms.
StatusOr<int> ConnectFd(int port, int connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Status::Internal("connect() to 127.0.0.1:" +
                              std::to_string(port) + " failed");
    }
    pollfd p{fd, POLLOUT, 0};
    const int waited =
        ::poll(&p, 1, connect_timeout_ms > 0 ? connect_timeout_ms : -1);
    if (waited <= 0) {
      ::close(fd);
      return Status::DeadlineExceeded("connect() to 127.0.0.1:" +
                                      std::to_string(port) + " timed out");
    }
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0) {
      ::close(fd);
      return Status::Internal("connect() to 127.0.0.1:" +
                              std::to_string(port) + " failed: " +
                              std::strerror(error));
    }
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

// True when a transport-level failure is worth a reconnect-and-retry: the
// request may or may not have been processed, which is exactly what the
// idempotency tag makes safe.
bool IsTransientTransport(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kInternal;
}

}  // namespace

StatusOr<CollectionClient> CollectionClient::Connect(int port,
                                                     WireOptions options) {
  StatusOr<int> fd = ConnectFd(port, options.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  if (options.client_id == 0) options.client_id = GenerateClientId();
  return CollectionClient(fd.value(), port, options);
}

CollectionClient::CollectionClient(CollectionClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(other.port_),
      options_(other.options_),
      next_sequence_(other.next_sequence_),
      backoff_state_(other.backoff_state_),
      stats_(other.stats_),
      request_(std::move(other.request_)) {}

CollectionClient& CollectionClient::operator=(
    CollectionClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = other.port_;
    options_ = other.options_;
    next_sequence_ = other.next_sequence_;
    backoff_state_ = other.backoff_state_;
    stats_ = other.stats_;
    request_ = std::move(other.request_);
  }
  return *this;
}

CollectionClient::~CollectionClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status CollectionClient::Reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  StatusOr<int> fd = ConnectFd(port_, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = fd.value();
  ++stats_.reconnects;
  return Status::Ok();
}

StatusOr<WireResponse> CollectionClient::RawRequest(
    std::uint8_t type, std::span<const std::uint8_t> payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client is disconnected");
  std::uint8_t prefix[5];
  StoreU32(prefix, static_cast<std::uint32_t>(1 + payload.size()));
  prefix[4] = type;
  const auto fail = [this](IoResult result, const char* what) -> Status {
    ::close(fd_);
    fd_ = -1;
    if (result == IoResult::kTimeout) {
      ++stats_.timeouts;
      Telemetry().timeouts->Increment();
      return Status::DeadlineExceeded(std::string(what) +
                                      " timed out; connection dropped");
    }
    return Status::Internal(std::string(what) +
                            " failed (connection closed?)");
  };
  if (const IoResult wrote =
          WriteFrame(fd_, prefix, payload, options_.io_timeout_ms);
      wrote != IoResult::kOk) {
    return fail(wrote, "request write");
  }
  std::uint8_t header[6];
  if (const IoResult got =
          ReadBytes(fd_, header, 6, options_.io_timeout_ms, nullptr);
      got != IoResult::kOk) {
    return fail(got, "response read");
  }
  const std::uint32_t length = GetU32(header);
  if (length < 2 || length > (64u << 20)) {
    ::close(fd_);
    fd_ = -1;
    return Status::Internal("malformed response frame length " +
                            std::to_string(length));
  }
  WireResponse response;
  response.status = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(header[4]) |
      static_cast<std::uint16_t>(header[5]) << 8);
  response.payload.resize(length - 2);
  if (!response.payload.empty()) {
    if (const IoResult got =
            ReadBytes(fd_, response.payload.data(), response.payload.size(),
                      options_.io_timeout_ms, nullptr);
        got != IoResult::kOk) {
      return fail(got, "response payload read");
    }
  }
  return response;
}

StatusOr<WireResponse> CollectionClient::RetryingRequest(
    std::uint8_t type, std::span<const std::uint8_t> payload, bool* dup_out) {
  if (backoff_state_ == 0) {
    backoff_state_ = options_.client_id | 0x9e3779b97f4a7c15ull;
  }
  const auto backoff = [this](int attempt, std::uint32_t hint_ms) {
    std::int64_t delay = options_.retry_base_ms;
    for (int i = 0; i < attempt && delay < options_.retry_max_ms; ++i) {
      delay *= 2;
    }
    delay = std::min<std::int64_t>(delay, options_.retry_max_ms);
    // xorshift64 jitter in [0, delay/2]: desynchronizes a fleet retrying
    // into the same recovering server.
    backoff_state_ ^= backoff_state_ << 13;
    backoff_state_ ^= backoff_state_ >> 7;
    backoff_state_ ^= backoff_state_ << 17;
    const std::int64_t half = delay / 2;
    const std::int64_t jitter =
        static_cast<std::int64_t>(backoff_state_ % (half + 1));
    delay = std::max<std::int64_t>(half + jitter, hint_ms);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  };

  Status last = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    if (fd_ < 0) {
      if (Status reconnected = Reconnect(); !reconnected.ok()) {
        last = reconnected;
        if (attempt >= options_.max_retries) return last;
        ++stats_.retries;
        Telemetry().retries->Increment();
        backoff(attempt, 0);
        continue;
      }
    }
    StatusOr<WireResponse> response = RawRequest(type, payload);
    if (response.ok()) {
      const WireResponse& r = response.value();
      if (r.status == kWireStatusUnavailable &&
          attempt < options_.max_retries) {
        ++stats_.shed_retries;
        ++stats_.retries;
        Telemetry().retries->Increment();
        backoff(attempt, RetryAfterHintMs(r));
        continue;
      }
      if (dup_out != nullptr && r.ok() && !r.payload.empty() &&
          r.payload[0] == 1) {
        *dup_out = true;
        ++stats_.dedup_acks;
      }
      return response;
    }
    last = response.status();
    if (!IsTransientTransport(last) || attempt >= options_.max_retries) {
      return last;
    }
    ++stats_.retries;
    Telemetry().retries->Increment();
    backoff(attempt, 0);
  }
}

void CollectionClient::StartIngestRequest() {
  request_.clear();
  PutU64(request_, options_.client_id);
  PutU64(request_, next_sequence_++);
}

Status CollectionClient::SendIngestRequest(WireMessageType type) {
  bool duplicate = false;
  StatusOr<WireResponse> response = RetryingRequest(
      static_cast<std::uint8_t>(type), request_, &duplicate);
  if (request_.size() > kMaxRetainedFrameBytes) request_ = WireBytes();
  if (!response.ok()) return response.status();
  return StatusFromResponse(response.value());
}

Status CollectionClient::Accept(const Report& report) {
  StartIngestRequest();
  AppendReport(request_, report);
  return SendIngestRequest(WireMessageType::kAccept);
}

Status CollectionClient::AcceptBatch(std::span<const Report> reports) {
  if (reports.empty()) {
    return Status::InvalidArgument("cannot ship an empty batch");
  }
  StartIngestRequest();
  AppendReportBatch(request_, reports);
  return SendIngestRequest(WireMessageType::kAcceptBatch);
}

StatusOr<EpochSnapshot> CollectionClient::Seal() {
  // Never retried: a seal is not idempotent (each delivery cuts an epoch).
  if (fd_ < 0) {
    if (Status reconnected = Reconnect(); !reconnected.ok()) {
      return reconnected;
    }
  }
  StatusOr<WireResponse> response =
      RawRequest(static_cast<std::uint8_t>(WireMessageType::kSeal), {});
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return StatusFromResponse(response.value());
  return DecodeSnapshot(response.value().payload);
}

StatusOr<WorkloadEstimate> CollectionClient::Estimate(EstimatorKind kind) {
  const std::uint8_t kind_byte = kind == EstimatorKind::kUnbiased ? 0 : 1;
  StatusOr<WireResponse> response = RetryingRequest(
      static_cast<std::uint8_t>(WireMessageType::kEstimate),
      std::span<const std::uint8_t>(&kind_byte, 1));
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return StatusFromResponse(response.value());
  return DecodeEstimate(response.value().payload);
}

StatusOr<std::string> CollectionClient::Metrics(MetricsFormat format) {
  const std::uint8_t format_byte = static_cast<std::uint8_t>(format);
  StatusOr<WireResponse> response = RetryingRequest(
      static_cast<std::uint8_t>(WireMessageType::kMetrics),
      std::span<const std::uint8_t>(&format_byte, 1));
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return StatusFromResponse(response.value());
  return std::string(response.value().payload.begin(),
                     response.value().payload.end());
}

StatusOr<StrategySnapshot> CollectionClient::GetStrategy() {
  StatusOr<WireResponse> response = RetryingRequest(
      static_cast<std::uint8_t>(WireMessageType::kGetStrategy), {});
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return StatusFromResponse(response.value());
  return DecodeStrategy(response.value().payload);
}

Status CollectionClient::Ping() {
  StatusOr<WireResponse> response = RetryingRequest(
      static_cast<std::uint8_t>(WireMessageType::kPing), {});
  if (!response.ok()) return response.status();
  return StatusFromResponse(response.value());
}

Status CollectionClient::Shutdown() {
  StatusOr<WireResponse> response =
      RawRequest(static_cast<std::uint8_t>(WireMessageType::kShutdown), {});
  if (!response.ok()) return response.status();
  return StatusFromResponse(response.value());
}

}  // namespace wfm

#include "protocol/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "protocol/retry_policy.h"

namespace promises {

namespace {

using SteadyClock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

Clock* RealClock() {
  static SystemClock clock;
  return &clock;
}

/// Milliseconds left until `deadline`, clamped at 0. A default
/// (epoch) deadline means "unbounded" and reports a negative value,
/// which poll() treats as infinite.
int RemainingMs(SteadyClock::time_point deadline) {
  if (deadline == SteadyClock::time_point{}) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(std::min<int64_t>(
                                     left.count(), 1'000'000));
}

Status WriteAll(int fd, const char* data, size_t len) {
  size_t written = 0;
  while (written < len) {
    ssize_t n = ::send(fd, data + written, len - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(int fd, char* data, size_t len,
               SteadyClock::time_point deadline) {
  size_t got = 0;
  while (got < len) {
    if (deadline != SteadyClock::time_point{}) {
      int wait_ms = RemainingMs(deadline);
      if (wait_ms == 0) {
        return Status::DeadlineExceeded("recv deadline exceeded");
      }
      pollfd pfd{fd, POLLIN, 0};
      int pr = ::poll(&pfd, 1, wait_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return Errno("poll");
      }
      if (pr == 0) {
        return Status::DeadlineExceeded("recv deadline exceeded");
      }
    }
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      return Status::Unavailable("connection closed");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

SteadyClock::time_point DeadlineFromTimeout(int64_t timeout_ms) {
  if (timeout_ms <= 0) return SteadyClock::time_point{};
  return SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Reply envelope for a shed request: same message id back to the
/// sender, overload header attached, nothing else — the cheapest
/// possible "no".
Envelope OverloadReply(const Envelope& request, OverloadHeader header) {
  Envelope reply;
  reply.message_id = request.message_id;
  reply.from = request.to;
  reply.to = request.from;
  reply.overload = std::move(header);
  return reply;
}

/// Failure reply used for malformed frames and handler errors.
Envelope FailureReply(const std::string& to, const std::string& error) {
  Envelope fail;
  fail.message_id = MessageId(1);
  fail.to = to;
  ActionResultBody r;
  r.ok = false;
  r.error = error;
  fail.action_result = std::move(r);
  return fail;
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  // One buffer, one send: with TCP_NODELAY a separate header write
  // would leave as its own segment and wake the peer's reader twice.
  std::string frame(8, '\0');
  uint64_t len = payload.size();
  for (int i = 7; i >= 0; --i) {
    frame[i] = static_cast<char>(len & 0xff);
    len >>= 8;
  }
  frame += payload;
  return WriteAll(fd, frame.data(), frame.size());
}

Result<std::string> ReadFrame(int fd, int64_t timeout_ms) {
  SteadyClock::time_point deadline = DeadlineFromTimeout(timeout_ms);
  char header[8];
  PROMISES_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header), deadline));
  uint64_t len = 0;
  for (char c : header) {
    len = (len << 8) | static_cast<unsigned char>(c);
  }
  constexpr uint64_t kMaxFrame = 64ull << 20;  // 64 MiB sanity cap
  if (len > kMaxFrame) {
    return Status::InvalidArgument("oversized frame (" +
                                   std::to_string(len) + " bytes)");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    PROMISES_RETURN_IF_ERROR(ReadAll(fd, payload.data(), len, deadline));
  }
  return payload;
}

TcpEndpointServer::Connection::~Connection() { ::close(fd); }

TcpEndpointServer::~TcpEndpointServer() { Stop(); }

Status TcpEndpointServer::Start(uint16_t port, EndpointHandler handler) {
  return Start(port, std::move(handler), TcpServerOptions{});
}

Status TcpEndpointServer::Start(uint16_t port, EndpointHandler handler,
                                TcpServerOptions options) {
  if (listen_fd_.load() >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  handler_ = std::move(handler);
  options_ = options;
  if (options_.workers == 0) options_.workers = 1;
  clock_ = options_.clock != nullptr ? options_.clock : RealClock();
  admission_ =
      std::make_unique<AdmissionController>(options_.admission, clock_);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(fd, 64) < 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  stopping_ = false;
  draining_ = false;
  requests_ = 0;
  if (options_.begin_in_warmup) admission_->BeginWarmup();
  listen_fd_.store(fd);
  worker_threads_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.background_start) {
    Status st = options_.background_start();
    if (!st.ok()) {
      // The service refused to come up; serving without it would
      // silently drop the maintenance the owner asked for.
      Stop();
      return st;
    }
  }
  return Status::OK();
}

void TcpEndpointServer::Stop() { StopInternal(options_.drain_ms); }

bool TcpEndpointServer::StopGraceful(DurationMs drain_deadline_ms) {
  return StopInternal(drain_deadline_ms);
}

bool TcpEndpointServer::StopInternal(DurationMs drain_ms) {
  int fd = listen_fd_.exchange(-1);
  if (fd < 0) return true;
  if (options_.background_stop) options_.background_stop();

  bool drained = true;
  if (drain_ms > 0) {
    // Graceful drain: the listener closes first (no new connections),
    // readers stay up so in-flight replies still reach their clients
    // but answer any *new* frame with a "draining" shed, and the
    // workers get up to drain_ms of wall clock to finish the admitted
    // backlog. Wall clock on purpose: the injected clock may be
    // simulated/frozen while the workers run in real time.
    draining_.store(true, std::memory_order_release);
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    if (accept_thread_.joinable()) accept_thread_.join();
    std::unique_lock<std::mutex> lk(queue_mu_);
    drained = drain_cv_.wait_for(
        lk, std::chrono::milliseconds(drain_ms),
        [this] { return queue_.empty() && in_flight_ == 0; });
  }

  stopping_ = true;
  if (drain_ms <= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    if (accept_thread_.joinable()) accept_thread_.join();
  }

  // Unblock every reader parked in recv() on a live connection.
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& [id, conn] : reader_conns_) {
      if (conn) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }

  // Wake the pool; workers observe stopping_ and exit without touching
  // the remaining backlog (queued requests are discarded — their
  // clients time out exactly as if the server had crashed).
  queue_cv_.notify_all();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    queue_.clear();
  }

  std::map<uint64_t, std::thread> readers;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    readers.swap(readers_);
    reader_conns_.clear();
  }
  for (auto& [id, t] : readers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    finished_readers_.clear();
  }
  draining_.store(false, std::memory_order_release);
  return drained;
}

OverloadStats TcpEndpointServer::overload_stats() const {
  return admission_ != nullptr ? admission_->stats() : OverloadStats{};
}

size_t TcpEndpointServer::queue_depth() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return queue_.size();
}

size_t TcpEndpointServer::live_connections() {
  std::lock_guard<std::mutex> lk(conns_mu_);
  ReapFinishedLocked();
  return readers_.size();
}

void TcpEndpointServer::ReapFinishedLocked() {
  for (uint64_t id : finished_readers_) {
    auto it = readers_.find(id);
    if (it == readers_.end()) continue;  // already swept by Stop()
    if (it->second.joinable()) it->second.join();
    readers_.erase(it);
    reader_conns_.erase(id);
  }
  finished_readers_.clear();
}

void TcpEndpointServer::AcceptLoop() {
  while (!stopping_) {
    int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lk(conns_mu_);
    ReapFinishedLocked();
    uint64_t id = next_conn_id_++;
    reader_conns_[id] = conn;
    readers_.emplace(id, std::thread([this, conn, id]() mutable {
                       ServeConnection(std::move(conn), id);
                     }));
  }
}

void TcpEndpointServer::ServeConnection(std::shared_ptr<Connection> conn,
                                        uint64_t id) {
  while (!stopping_) {
    Result<std::string> frame = ReadFrame(conn->fd);
    if (!frame.ok()) break;  // peer closed or died
    // Reply in the request's encoding: binary to this library's
    // clients, XML to anything else (the SOAP edge).
    const EnvelopeEncoding encoding =
        Envelope::Sniff(*frame).value_or(EnvelopeEncoding::kXml);

    // The injector rules on each inbound frame. Faults here behave
    // like a real lossy middlebox: the client only ever observes a
    // missing reply (its deadline) or a dead connection.
    int deliveries = 1;
    bool send_reply = true;
    FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
    if (injector != nullptr) {
      FaultInjector::Decision d = injector->Decide();
      if (d.delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
      }
      bool crashed = false;
      switch (d.action) {
        case FaultAction::kDeliver:
          break;
        case FaultAction::kCrash:
          crashed = true;  // connection dies mid-conversation
          break;
        case FaultAction::kDropRequest:
          continue;  // frame read off the wire, never processed
        case FaultAction::kDropReply:
          send_reply = false;
          break;
        case FaultAction::kDuplicate:
          deliveries = 2;
          break;
      }
      if (crashed) {
        ::shutdown(conn->fd, SHUT_RDWR);
        break;
      }
    }

    Result<Envelope> request = Envelope::Decode(*frame);
    if (!request.ok()) {
      // Malformed request: answer with a failure result envelope.
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (send_reply) {
        SendReply(*conn,
                  FailureReply("", "malformed envelope: " +
                                       request.status().ToString()),
                  encoding);
      }
      continue;
    }

    // Graceful drain in progress: the in-flight backlog is finishing
    // but no new work is accepted — shed with a hint so the client's
    // retry lands on the restarted server.
    if (draining_.load(std::memory_order_acquire)) {
      if (send_reply) {
        SendReply(*conn,
                  OverloadReply(*request,
                                OverloadHeader{
                                    "draining",
                                    options_.admission.retry_after_hint_ms}),
                  encoding);
      }
      continue;
    }

    // Admission before any work is queued: the reader answers sheds on
    // the spot, so overload costs one envelope, never a worker. The
    // depth read and the enqueue are not atomic — concurrent readers
    // may overshoot the bound by at most the reader count, which is
    // fine for a shed threshold.
    const bool traced = request->trace && request->trace->sampled;
    AdmissionController::Decision decision;
    {
      // Terminal span on shed, so turned-away attempts still appear in
      // the client's trace tree.
      ScopedSpan admission_span(traced ? *request->trace : TraceContext{},
                                "admission");
      decision =
          admission_->Admit(request->from, queue_depth(), request->deadline);
      if (!decision.admitted()) {
        admission_span.set_status("shed-" +
                                  std::string(decision.reason_string()));
      }
    }
    if (!decision.admitted()) {
      if (send_reply) {
        SendReply(*conn, OverloadReply(*request, decision.ToHeader()),
                  encoding);
      }
      continue;
    }

    Work work{conn, *std::move(request), encoding, send_reply, deliveries,
              traced ? TraceNowUs() : 0};
    bool run_here;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      // Run to completion: with nothing queued ahead and a slot free,
      // this reader serves the request itself (its queue-wait span is
      // empty). Otherwise it joins the queue for the pool.
      run_here = queue_.empty() && in_flight_ < options_.workers;
      if (run_here) {
        ++in_flight_;
      } else {
        queue_.push_back(std::move(work));
      }
    }
    if (run_here) {
      ProcessWork(work);
      FinishWork();
    } else {
      queue_cv_.notify_one();
    }
  }
  // Announce completion; the next reap joins this thread.
  std::lock_guard<std::mutex> lk(conns_mu_);
  finished_readers_.push_back(id);
}

void TcpEndpointServer::WorkerLoop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      // A worker takes queued work only into a free slot, so inline and
      // pooled requests together never exceed options_.workers.
      queue_cv_.wait(lk, [this] {
        return stopping_ || (!queue_.empty() && in_flight_ < options_.workers);
      });
      if (stopping_) return;  // backlog is discarded on Stop
      work = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    ProcessWork(work);
    FinishWork();
  }
}

void TcpEndpointServer::FinishWork() {
  bool backlog;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    --in_flight_;
    backlog = !queue_.empty();
  }
  // The freed slot goes to a worker when work is queued; a graceful
  // stop may be waiting for the backlog to hit zero.
  if (backlog) queue_cv_.notify_one();
  drain_cv_.notify_all();
}

void TcpEndpointServer::ProcessWork(Work& work) {
  // Queue-wait span, measured across threads: begun at enqueue on
  // the reader, closed here on the worker (empty when the reader runs
  // the request itself). Recorded manually because no one scope covers
  // both ends.
  const bool traced =
      work.enqueued_us != 0 && work.request.trace &&
      work.request.trace->sampled;
  const bool expired = options_.shed_expired &&
                       admission_->DeadlineExpired(work.request.deadline);
  if (traced) {
    Span wait;
    wait.trace_hi = work.request.trace->trace_hi;
    wait.trace_lo = work.request.trace->trace_lo;
    wait.span_id = Tracer::NextSpanId();
    wait.parent_span_id = work.request.trace->span_id;
    wait.name = "queue-wait";
    // Terminal when the request died waiting: the shed below is the
    // queue wait's outcome, not a separate phase.
    wait.status = expired ? "shed-deadline" : "ok";
    wait.start_us = work.enqueued_us;
    wait.end_us = TraceNowUs();
    RecordSpan(std::move(wait));
  }

  // Dequeue-time deadline re-check: the request was admitted live but
  // may have died waiting for a worker. Running the handler now would
  // burn capacity on a reply nobody reads.
  if (expired) {
    admission_->NoteDeadlineShed();
    if (work.send_reply) {
      SendReply(*work.conn,
                OverloadReply(work.request, OverloadHeader{"deadline", 0}),
                work.encoding);
    }
    return;
  }

  Result<Envelope> reply = [&] {
    // Handler span: covers the handler itself (for a
    // bridged PromiseManager the manager's own phases nest under the
    // same parent via the envelope context).
    ScopedSpan handler_span(traced ? *work.request.trace : TraceContext{},
                            "handler");
    Result<Envelope> r = handler_(work.request);
    for (int extra = 1; extra < work.deliveries; ++extra) {
      r = handler_(work.request);
    }
    if (!r.ok()) handler_span.set_status("error");
    return r;
  }();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!work.send_reply) return;
  // Reply span: serializing and writing the response frame back to
  // the client's socket.
  ScopedSpan reply_span(traced ? *work.request.trace : TraceContext{},
                        "reply");
  if (!reply.ok()) {
    reply_span.set_status("error");
    if (IsRetryableStatus(reply.status())) {
      // A transient handler refusal (e.g. the idempotency layer's
      // "duplicate of an in-flight request") must stay retryable on the
      // wire. Wrapping it in a definitive action-failure reply would
      // make the client stop retrying and count the order failed while
      // the original attempt goes on to commit — a fabricated outcome
      // the exactly-once audit flags as over-consumption.
      SendReply(*work.conn,
                OverloadReply(work.request,
                              OverloadHeader{reply.status().ToString(), 0}),
                work.encoding);
    } else {
      SendReply(*work.conn,
                FailureReply(work.request.from, reply.status().ToString()),
                work.encoding);
    }
  } else {
    SendReply(*work.conn, *reply, work.encoding);
  }
}

void TcpEndpointServer::SendReply(Connection& conn, const Envelope& reply,
                                  EnvelopeEncoding encoding) {
  std::string bytes = reply.Encode(encoding);
  std::lock_guard<std::mutex> lk(conn.write_mu);
  // A failed write means the peer is gone; the reader on this
  // connection sees the same condition and winds it down.
  (void)WriteFrame(conn.fd, bytes);
}

TcpClientChannel::~TcpClientChannel() { Disconnect(); }

void TcpClientChannel::set_reconnect_backoff(ReconnectBackoffOptions options,
                                             uint64_t seed, Clock* clock) {
  backoff_enabled_ = true;
  backoff_options_ = options;
  backoff_rng_ = Rng(seed);
  backoff_clock_ = clock != nullptr ? clock : RealClock();
  failed_dials_ = 0;
  next_dial_at_ = 0;
}

Status TcpClientChannel::Connect(uint16_t port) {
  ++dial_attempts_;
  // Remember the target even when the dial fails: a later Call must be
  // able to redial a server that was down at Connect time.
  last_port_ = port;
  Status st = DialInner(port);
  if (!backoff_enabled_) return st;
  if (st.ok()) {
    failed_dials_ = 0;
    next_dial_at_ = 0;
    return st;
  }
  // Capped, jittered exponential quiet period before the next dial.
  ++failed_dials_;
  double base = static_cast<double>(backoff_options_.initial_ms) *
                std::pow(backoff_options_.multiplier,
                         static_cast<double>(failed_dials_ - 1));
  base = std::min(base, static_cast<double>(backoff_options_.max_ms));
  double spread = 1.0 + backoff_options_.jitter *
                            (2.0 * backoff_rng_.UniformDouble() - 1.0);
  DurationMs wait =
      std::max<DurationMs>(1, static_cast<DurationMs>(base * spread));
  next_dial_at_ = backoff_clock_->Now() + wait;
  return st;
}

Status TcpClientChannel::DialInner(uint16_t port) {
  Disconnect();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  if (call_timeout_ms_ > 0) {
    // Bounded connect: non-blocking connect + poll for writability.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) {
      Status st = Errno("connect");
      ::close(fd);
      return st;
    }
    if (rc < 0) {
      pollfd pfd{fd, POLLOUT, 0};
      int pr = ::poll(&pfd, 1, static_cast<int>(call_timeout_ms_));
      if (pr <= 0) {
        ::close(fd);
        if (pr == 0) {
          return Status::DeadlineExceeded("connect deadline exceeded");
        }
        return Errno("poll");
      }
      int err = 0;
      socklen_t err_len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
      if (err != 0) {
        ::close(fd);
        errno = err;
        return Errno("connect");
      }
    }
    ::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    Status st = Errno("connect");
    ::close(fd);
    return st;
  }

  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  last_port_ = port;
  return Status::OK();
}

void TcpClientChannel::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Envelope> TcpClientChannel::Call(const Envelope& request) {
  if (fd_ < 0) {
    if (last_port_ == 0) return Status::FailedPrecondition("not connected");
    if (backoff_enabled_) {
      Timestamp now = backoff_clock_->Now();
      if (now < next_dial_at_) {
        // Inside the post-failure quiet period: fail fast without
        // touching the socket. The retry-after hint floors the
        // caller's CallWithRetry backoff, so the retry loop is paced
        // instead of amplifying the dial storm.
        return StatusWithRetryAfter(StatusCode::kUnavailable,
                                    "reconnect backoff",
                                    next_dial_at_ - now);
      }
    }
    PROMISES_RETURN_IF_ERROR(Connect(last_port_));
    ++reconnects_;
  }
  Status write_st = WriteFrame(fd_, request.Encode());
  if (!write_st.ok()) {
    Disconnect();
    return write_st;
  }
  Result<std::string> reply_bytes = ReadFrame(fd_, call_timeout_ms_);
  if (!reply_bytes.ok()) {
    // A timed-out or failed read poisons the stream: the reply to this
    // request may still arrive and would corrupt the next call's
    // framing. Drop the connection; the next Call reconnects.
    Disconnect();
    return reply_bytes.status();
  }
  Result<Envelope> reply = Envelope::Decode(*reply_bytes);
  if (!reply.ok()) return reply;
  Status shed = reply->ShedStatus();
  if (!shed.ok()) return shed;  // surfaced as a status, not an envelope
  return reply;
}

}  // namespace promises

// TCP transport: the §6 protocol over a real socket.
//
// The in-process Transport substitutes the paper's web-service
// middleware for most experiments; this module closes the remaining
// gap by carrying the same envelopes over loopback TCP with a
// length-prefixed framing, so the protocol stack is exercised against
// an actual wire (serialization, framing, partial reads, connection
// errors, stalled peers).
//
// Model: one TcpEndpointServer hosts a handler (typically a
// PromiseManager's Handle, bridged through the in-process transport);
// TcpClientChannel issues synchronous request/response calls. Frames
// are "<8-byte big-endian length><envelope bytes>". TcpClientChannel
// sends the binary codec (Envelope::Encode). The server sniffs every
// frame and answers in the encoding the request came in, so a raw XML
// (SOAP-style) client is served in XML on the same port, with no
// negotiation.
//
// Threading/overload model: the accept loop hands each connection to a
// reader thread that parses frames and rules on admission. An admitted
// request runs to completion on its reader — handler and reply, no
// thread handoff — when nothing is queued and fewer than
// `options.workers` requests are in flight. Otherwise it goes onto a
// bounded queue drained by a fixed worker pool, the overflow path. One
// in-flight count covers inline and pooled requests, so `workers`
// stays the concurrency cap and the queue fills only when every slot
// is busy. A request the AdmissionController sheds (queue full,
// per-client quota, propagated deadline already dead) is answered
// immediately from the reader with an <overload> reply carrying a
// retry-after hint — it never occupies a slot, so a saturated server
// keeps saying "no" cheaply instead of collapsing into a backlog of
// work nobody is waiting for. Workers re-check the envelope deadline
// at dequeue time: a request admitted live can die waiting, and
// running it then would be pure waste.
//
// Failure model: the client channel takes a per-call deadline
// (poll-bounded reads surfacing kDeadlineExceeded; the half-read
// stream is poisoned, so the channel disconnects and transparently
// reconnects on the next Call). The server accepts a FaultInjector:
// a dropped request is read and discarded, a dropped reply is
// processed but never written (both stall the client into its
// deadline), a duplicate runs the handler twice, and a crash closes
// the connection mid-conversation.

#ifndef PROMISES_PROTOCOL_TCP_TRANSPORT_H_
#define PROMISES_PROTOCOL_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "protocol/admission.h"
#include "protocol/fault_injector.h"
#include "protocol/message.h"
#include "protocol/transport.h"

namespace promises {

/// Server-side overload knobs. The defaults keep small tests happy
/// (ample queue, no quota) while still bounding the backlog.
struct TcpServerOptions {
  /// Concurrency cap: at most this many requests run at once, inline on
  /// their readers or on the fixed pool of this many workers that
  /// drains the overflow queue.
  size_t workers = 4;
  /// Admission policy (queue bound, per-client quota, hints).
  AdmissionOptions admission;
  /// Drives deadline checks and quota refill (non-owning; nullptr =
  /// shared real clock). Tests inject the clock their clients stamp
  /// deadlines from.
  Clock* clock = nullptr;
  /// Re-check the envelope deadline when a worker dequeues the request
  /// and shed it if it lapsed while queued. Disable to reproduce the
  /// legacy collapse mode where the server burns workers on requests
  /// whose clients have already given up.
  bool shed_expired = true;
  /// Drain budget applied by Stop(): with a positive value, Stop
  /// behaves like StopGraceful(drain_ms) — queued and in-flight
  /// requests finish (new frames are shed with reason "draining")
  /// before sockets close. 0 keeps the legacy hard stop that discards
  /// the backlog.
  DurationMs drain_ms = 0;
  /// Arm the admission controller's recovery warm-up ramp the moment
  /// the server starts (see AdmissionOptions::warmup_target_rps) —
  /// used by restart supervisors bringing a recovered node back up
  /// into a reconnect herd.
  bool begin_in_warmup = false;
  /// Background-service hooks bound to the server's lifetime. The
  /// protocol layer cannot depend on core, so owners wire periodic
  /// maintenance — e.g. a CheckpointWriter cadence over the manager
  /// this server fronts — through these: `background_start` runs after
  /// the listener is up (a failure aborts Start and tears the listener
  /// back down); `background_stop` runs first thing in Stop, before
  /// the worker pool drains.
  std::function<Status()> background_start;
  std::function<void()> background_stop;
};

/// Hosts an EndpointHandler on a loopback TCP port behind an admission
/// controller; requests run on their connection's reader, with a bounded
/// queue and a fixed worker pool for the overflow.
class TcpEndpointServer {
 public:
  TcpEndpointServer() = default;
  ~TcpEndpointServer();
  TcpEndpointServer(const TcpEndpointServer&) = delete;
  TcpEndpointServer& operator=(const TcpEndpointServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks a free port) and starts accepting
  /// with default options.
  Status Start(uint16_t port, EndpointHandler handler);

  /// As above with explicit worker-pool/admission options.
  Status Start(uint16_t port, EndpointHandler handler,
               TcpServerOptions options);

  /// Stops the server. With options.drain_ms == 0 this is the hard
  /// stop: accepting ends, every reader and worker is unblocked and
  /// joined, and queued-but-unserved requests are discarded. With a
  /// positive options.drain_ms it delegates to StopGraceful.
  void Stop();

  /// Graceful stop: closes the listener, then gives workers up to
  /// `drain_deadline_ms` (wall clock) to finish every queued and
  /// in-flight request — readers keep their connections alive so
  /// replies still reach waiting clients, answering any *new* frame
  /// with an <overload reason="draining"> shed — before tearing the
  /// rest down. Returns true when the backlog fully drained, false
  /// when the deadline hit and leftovers were discarded.
  bool StopGraceful(DurationMs drain_deadline_ms);

  /// Attaches a fault injector consulted once per inbound frame
  /// (non-owning; nullptr detaches). Set before Start or between calls.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Port actually bound (valid after Start).
  uint16_t port() const { return port_; }

  /// Requests actually processed by the handler (sheds excluded).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Admission/shed counters (zeroed struct before Start).
  OverloadStats overload_stats() const;

  /// Requests admitted and waiting for a free slot right now.
  size_t queue_depth() const;

  /// Connections with a live reader thread. Finished readers are
  /// reaped (joined) on the way — a long-lived server holds O(live)
  /// threads, not O(ever-accepted).
  size_t live_connections();

 private:
  /// One accepted socket. The fd stays open until the last reference
  /// drops (reader + any queued work items), so workers never write to
  /// a recycled descriptor; Stop() shuts the socket down to unblock
  /// the reader without closing it out from under in-flight replies.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    const int fd;
    std::mutex write_mu;  ///< Serializes reply frames on this socket.
  };

  /// An admitted request, run inline or waiting for (or held by) a
  /// worker.
  struct Work {
    std::shared_ptr<Connection> conn;
    Envelope request;
    /// The request frame's encoding; the reply is written in it.
    EnvelopeEncoding encoding = EnvelopeEncoding::kBinary;
    bool send_reply = true;  ///< false when the injector drops the reply.
    int deliveries = 1;      ///< 2 when the injector duplicates.
    /// Enqueue timestamp (TraceNowUs) for the cross-thread queue-wait
    /// span; 0 when the request is untraced.
    int64_t enqueued_us = 0;
  };

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Connection> conn, uint64_t id);
  void WorkerLoop();
  /// Runs one admitted request through deadline re-check, handler and
  /// reply, on its reader or on a worker.
  void ProcessWork(Work& work);
  /// Frees the in-flight slot of a finished request.
  void FinishWork();
  /// Shared teardown behind Stop/StopGraceful; `drain_ms` > 0 inserts
  /// the drain phase. Returns false when the drain deadline lapsed.
  bool StopInternal(DurationMs drain_ms);
  /// Writes `reply` in `encoding` to `conn` under its write mutex
  /// (errors ignored: the reader observes the dead socket and winds the
  /// connection down).
  static void SendReply(Connection& conn, const Envelope& reply,
                        EnvelopeEncoding encoding);
  /// Joins reader threads that have announced completion. Requires
  /// conns_mu_.
  void ReapFinishedLocked();

  // Atomic: Stop() clears it on the caller's thread while AcceptLoop
  // still reads it (the shutdown/close pair is what actually unblocks
  // the accept; the fd value itself just flags the started state).
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  EndpointHandler handler_;
  TcpServerOptions options_;
  Clock* clock_ = nullptr;  ///< Resolved (never null after Start).
  std::unique_ptr<AdmissionController> admission_;

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;

  // Reader registry: id -> (thread, connection). Readers push their id
  // onto finished_readers_ as their last locked action; the accept
  // loop, live_connections() and Stop() reap (join) them from there.
  std::mutex conns_mu_;
  std::map<uint64_t, std::thread> readers_;
  std::map<uint64_t, std::shared_ptr<Connection>> reader_conns_;
  std::vector<uint64_t> finished_readers_;
  uint64_t next_conn_id_ = 0;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queue_;
  /// Requests inside ProcessWork, inline and pooled alike; never above
  /// options_.workers (guarded by queue_mu_; drain waits for queue
  /// empty + this zero).
  size_t in_flight_ = 0;
  std::condition_variable drain_cv_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
};

/// Client-side reconnect pacing. Without it the channel re-dials a
/// dead endpoint as fast as its caller's retry loop spins — hundreds
/// of SYNs per second per client during a server blackout, and a
/// thundering herd the instant it returns. With backoff armed, each
/// failed dial pushes the next allowed dial out by a capped, jittered
/// exponential delay; Calls landing inside the quiet period fail fast
/// with a retry-after hint (no socket work), which CallWithRetry
/// honors as its backoff floor. A successful dial resets the schedule.
struct ReconnectBackoffOptions {
  DurationMs initial_ms = 1;    ///< Delay after the first failed dial.
  double multiplier = 2.0;      ///< Growth per consecutive failure.
  DurationMs max_ms = 200;      ///< Delay cap.
  double jitter = 0.25;         ///< +/- fraction applied to each delay.
};

/// Synchronous client connection to a TcpEndpointServer.
class TcpClientChannel {
 public:
  TcpClientChannel() = default;
  ~TcpClientChannel();
  TcpClientChannel(const TcpClientChannel&) = delete;
  TcpClientChannel& operator=(const TcpClientChannel&) = delete;

  /// Connects to 127.0.0.1:`port`. With a call timeout configured, the
  /// connect itself is bounded by the same budget.
  Status Connect(uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Bounds every Call (and Connect) to `ms` milliseconds; 0 restores
  /// the unbounded behavior. On expiry the call returns
  /// kDeadlineExceeded and the connection is dropped — a reply to the
  /// abandoned request can otherwise be mistaken for the next call's.
  void set_call_timeout_ms(int64_t ms) { call_timeout_ms_ = ms; }

  /// Sends `request` and waits for the reply envelope. After a
  /// deadline/connection failure, the next Call transparently
  /// reconnects to the last-connected port before sending. A reply
  /// carrying an <overload> header is surfaced as its ShedStatus()
  /// (kResourceExhausted with the server's retry-after hint), so
  /// callers and retry policies see sheds as statuses, not envelopes.
  Result<Envelope> Call(const Envelope& request);

  uint64_t reconnects() const { return reconnects_; }

  /// Arms jittered reconnect backoff (seeded for reproducibility).
  /// `clock` drives the quiet-period schedule (non-owning; nullptr =
  /// shared real clock) — tests inject a SimulatedClock and step it.
  void set_reconnect_backoff(ReconnectBackoffOptions options, uint64_t seed,
                             Clock* clock = nullptr);

  /// Dials actually attempted (every Connect entry, user- or
  /// reconnect-initiated). The backoff regression test asserts this
  /// stays small while a retry loop hammers a stopped server.
  uint64_t dial_attempts() const { return dial_attempts_; }

 private:
  /// The raw dial (socket/connect/poll); Connect wraps it with dial
  /// accounting and backoff scheduling.
  Status DialInner(uint16_t port);

  int fd_ = -1;
  uint16_t last_port_ = 0;
  int64_t call_timeout_ms_ = 0;
  uint64_t reconnects_ = 0;

  // Reconnect backoff state (single-threaded like the rest of the
  // channel: one outstanding Call at a time).
  bool backoff_enabled_ = false;
  ReconnectBackoffOptions backoff_options_;
  Rng backoff_rng_{0};
  Clock* backoff_clock_ = nullptr;
  uint64_t failed_dials_ = 0;
  Timestamp next_dial_at_ = 0;
  uint64_t dial_attempts_ = 0;
};

/// Frame helpers (exposed for tests). WriteFrame sends header and
/// payload with one syscall. `timeout_ms` <= 0 blocks indefinitely;
/// otherwise reads are poll-bounded and return kDeadlineExceeded when
/// the budget lapses.
Status WriteFrame(int fd, const std::string& payload);
Result<std::string> ReadFrame(int fd, int64_t timeout_ms = 0);

}  // namespace promises

#endif  // PROMISES_PROTOCOL_TCP_TRANSPORT_H_

// Overload-protection tests: admission control (queue bound, quotas,
// deadline DOA), clock-driven retry backoff with retry-after hints,
// the client circuit breaker, deadline propagation through the promise
// manager (sheds bypass locks AND the idempotency table), and the TCP
// worker-pool server's shedding behavior end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/promise_manager.h"
#include "predicate/ast.h"
#include "protocol/admission.h"
#include "protocol/circuit_breaker.h"
#include "protocol/retry_policy.h"
#include "protocol/tcp_transport.h"
#include "resource/resource_manager.h"
#include "service/client.h"
#include "sim/metrics.h"
#include "txn/transaction.h"

namespace promises {
namespace {

// ---- AdmissionController -------------------------------------------

TEST(AdmissionTest, QueueBoundShedsWithHint) {
  SimulatedClock clock;
  AdmissionOptions options;
  options.queue_capacity = 2;
  options.retry_after_hint_ms = 15;
  AdmissionController admission(options, &clock);

  EXPECT_TRUE(admission.Admit("c", 0, 0).admitted());
  EXPECT_TRUE(admission.Admit("c", 1, 0).admitted());
  AdmissionController::Decision d = admission.Admit("c", 2, 0);
  ASSERT_FALSE(d.admitted());
  EXPECT_EQ(d.reason, AdmissionController::ShedReason::kQueueFull);
  EXPECT_EQ(d.retry_after_ms, 15);
  EXPECT_EQ(d.reason_string(), "queue-full");
  EXPECT_EQ(d.ToHeader().reason, "queue-full");

  Status st = d.ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RetryAfterHintMs(st), 15);

  OverloadStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.total_shed(), 1u);
  EXPECT_EQ(stats.queue_peak, 2u);
}

TEST(AdmissionTest, PerClientTokenBucketQuota) {
  SimulatedClock clock;
  AdmissionOptions options;
  options.queue_capacity = 0;  // isolate the quota check
  options.client_rate_per_sec = 10;
  options.client_burst = 2;
  AdmissionController admission(options, &clock);

  EXPECT_TRUE(admission.Admit("a", 0, 0).admitted());
  EXPECT_TRUE(admission.Admit("a", 0, 0).admitted());
  AdmissionController::Decision d = admission.Admit("a", 0, 0);
  ASSERT_FALSE(d.admitted());
  EXPECT_EQ(d.reason, AdmissionController::ShedReason::kQuota);
  // Empty bucket at 10 tokens/s: a whole token is 100 ms away.
  EXPECT_EQ(d.retry_after_ms, 100);

  // Quotas are per client: another sender is unaffected.
  EXPECT_TRUE(admission.Admit("b", 0, 0).admitted());

  // Honoring the hint works: after 100 ms a token has accrued.
  clock.Advance(100);
  EXPECT_TRUE(admission.Admit("a", 0, 0).admitted());
  EXPECT_FALSE(admission.Admit("a", 0, 0).admitted());
  EXPECT_EQ(admission.stats().shed_quota, 2u);
}

TEST(AdmissionTest, DeadlineDeadOnArrivalIsShed) {
  SimulatedClock clock(1'000);
  AdmissionController admission(AdmissionOptions{}, &clock);

  AdmissionController::Decision d = admission.Admit("c", 0, 999);
  ASSERT_FALSE(d.admitted());
  EXPECT_EQ(d.reason, AdmissionController::ShedReason::kDeadline);
  EXPECT_FALSE(admission.Admit("c", 0, 1'000).admitted());  // now >= deadline
  EXPECT_TRUE(admission.Admit("c", 0, 1'500).admitted());
  EXPECT_TRUE(admission.Admit("c", 0, 0).admitted());  // 0 = no deadline

  EXPECT_TRUE(admission.DeadlineExpired(999));
  EXPECT_FALSE(admission.DeadlineExpired(0));
  EXPECT_FALSE(admission.DeadlineExpired(2'000));
  uint64_t before = admission.stats().shed_deadline;
  admission.NoteDeadlineShed();
  EXPECT_EQ(admission.stats().shed_deadline, before + 1);
}

// ---- Retry policy: injected clock + retry-after hints --------------

TEST(RetryClockTest, BackoffWaitsFlowThroughInjectedClock) {
  SimulatedClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.deadline_ms = 10'000;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 40;
  policy.jitter = 0;
  policy.clock = &clock;

  int calls = 0;
  auto wall_start = std::chrono::steady_clock::now();
  Result<int> r = CallWithRetry(policy, nullptr, [&]() -> Result<int> {
    if (++calls < 4) return Status::Unavailable("down");
    return 1;
  });
  auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(calls, 4);
  // The 10+20+40 ms of backoff passed on the simulated clock...
  EXPECT_EQ(clock.Now(), 70);
  // ...and cost (almost) no real time: no hard sleeps in the loop.
  EXPECT_LT(wall_ms, 5'000);
}

TEST(RetryClockTest, RetryAfterHintFloorsComputedBackoff) {
  SimulatedClock clock;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.deadline_ms = 10'000;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  policy.jitter = 0;
  policy.clock = &clock;

  int calls = 0;
  Result<int> r = CallWithRetry(policy, nullptr, [&]() -> Result<int> {
    if (++calls == 1) {
      return ResourceExhaustedWithRetryAfter("server busy", 500);
    }
    return 1;
  });
  ASSERT_TRUE(r.ok());
  // The server's 500 ms hint dominated the 1 ms computed backoff.
  EXPECT_EQ(clock.Now(), 500);
}

TEST(RetryClockTest, HintEncodingRoundTrip) {
  Status shed = ResourceExhaustedWithRetryAfter("queue full", 123);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RetryAfterHintMs(shed), 123);

  Status open = StatusWithRetryAfter(StatusCode::kUnavailable,
                                     "circuit-breaker open", 42);
  EXPECT_EQ(open.code(), StatusCode::kUnavailable);
  EXPECT_EQ(RetryAfterHintMs(open), 42);

  EXPECT_EQ(RetryAfterHintMs(Status::Unavailable("no hint here")), 0);
  EXPECT_EQ(RetryAfterHintMs(Status::Unavailable("[retry-after-ms=abc]")),
            0);
  EXPECT_EQ(
      RetryAfterHintMs(ResourceExhaustedWithRetryAfter("no hint wanted", 0)),
      0);
}

TEST(RetryClockTest, ResourceExhaustedIsRetryable) {
  EXPECT_TRUE(IsRetryableStatus(Status::ResourceExhausted("shed")));
}

// ---- Envelope wire format ------------------------------------------

TEST(OverloadTest, EnvelopeDeadlineAndOverloadHeaderRoundTrip) {
  Envelope e;
  e.message_id = MessageId(5);
  e.from = "a";
  e.to = "b";
  e.deadline = 12'345;
  e.overload = OverloadHeader{"quota", 42};

  Result<Envelope> parsed = Envelope::FromXml(e.ToXml());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->deadline, 12'345);
  ASSERT_TRUE(parsed->overload.has_value());
  EXPECT_EQ(parsed->overload->reason, "quota");
  EXPECT_EQ(parsed->overload->retry_after_ms, 42);

  Status shed = parsed->ShedStatus();
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RetryAfterHintMs(shed), 42);

  // Defaults stay absent on the wire and parse back as defaults.
  Envelope plain;
  plain.message_id = MessageId(1);
  Result<Envelope> p2 = Envelope::FromXml(plain.ToXml());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->deadline, 0);
  EXPECT_FALSE(p2->overload.has_value());
  EXPECT_TRUE(p2->ShedStatus().ok());
}

// ---- Circuit breaker -----------------------------------------------

CircuitBreakerConfig TestBreakerConfig() {
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.open_cooldown_ms = 5'000;
  config.cooldown_jitter = 0;
  config.half_open_probes = 1;
  return config;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveOverloadFailures) {
  SimulatedClock clock;
  CircuitBreaker breaker(TestBreakerConfig(), &clock, 7);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  EXPECT_TRUE(breaker.Admit().ok());
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // streak of 1
  EXPECT_TRUE(breaker.Admit().ok());
  breaker.RecordFailure(Status::Unavailable("down"));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  Status fast = breaker.Admit();
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.code(), StatusCode::kUnavailable);
  EXPECT_GT(RetryAfterHintMs(fast), 0);  // remaining cooldown

  CircuitBreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.opens, 1u);
  EXPECT_EQ(stats.fast_failures, 1u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.state, BreakerState::kOpen);
}

TEST(CircuitBreakerTest, RecoversThroughHalfOpenProbe) {
  SimulatedClock clock;
  CircuitBreaker breaker(TestBreakerConfig(), &clock, 7);
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  clock.Advance(6'000);  // past the (unjittered) 5 s cooldown
  EXPECT_TRUE(breaker.Admit().ok());  // half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  CircuitBreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.half_opens, 1u);
  EXPECT_EQ(stats.closes, 1u);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  SimulatedClock clock;
  CircuitBreaker breaker(TestBreakerConfig(), &clock, 7);
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  clock.Advance(6'000);
  EXPECT_TRUE(breaker.Admit().ok());
  breaker.RecordFailure(Status::ResourceExhausted("still drowning"));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Admit().ok());
  EXPECT_EQ(breaker.stats().opens, 2u);
}

TEST(CircuitBreakerTest, HalfOpenLimitsConcurrentProbes) {
  SimulatedClock clock;
  CircuitBreaker breaker(TestBreakerConfig(), &clock, 7);
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  clock.Advance(6'000);
  EXPECT_TRUE(breaker.Admit().ok());   // the single allowed probe
  Status second = breaker.Admit();     // while the probe is in flight
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
}

TEST(CircuitBreakerTest, InconclusiveProbeReturnsItsSlot) {
  // Regression: a half-open probe that fails with a NON-overload
  // status (e.g. a timeout from injected loss) must release its probe
  // slot. Leaking it wedged the breaker half-open forever and starved
  // the client with fast-failures.
  SimulatedClock clock;
  CircuitBreaker breaker(TestBreakerConfig(), &clock, 7);
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  clock.Advance(6'000);
  EXPECT_TRUE(breaker.Admit().ok());  // the probe goes out...
  breaker.RecordFailure(Status::DeadlineExceeded("reply lost"));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);  // inconclusive
  EXPECT_TRUE(breaker.Admit().ok());  // ...and the next one may follow
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  SimulatedClock clock;
  CircuitBreaker breaker(TestBreakerConfig(), &clock, 7);
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  breaker.RecordSuccess();
  breaker.RecordFailure(Status::ResourceExhausted("shed"));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, NonOverloadFailuresDoNotTrip) {
  SimulatedClock clock;
  CircuitBreaker breaker(TestBreakerConfig(), &clock, 7);
  for (int i = 0; i < 10; ++i) {
    breaker.RecordFailure(Status::Internal("bug"));
    breaker.RecordFailure(Status::FailedPrecondition("rejected"));
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().opens, 0u);
}

// ---- PromiseManager: deadline sheds bypass locks and dedup ----------

TEST(OverloadTest, DeadlineShedBypassesLocksAndIdempotencyTable) {
  SimulatedClock clock(1'000);
  ResourceManager rm;
  TransactionManager tm;
  ASSERT_TRUE(rm.CreatePool("widget", 10).ok());
  PromiseManagerConfig config;
  config.name = "pm";
  PromiseManager pm(config, &clock, &rm, &tm);

  Envelope req;
  req.message_id = MessageId(7);
  req.from = "client";
  req.to = "pm";
  PromiseRequestHeader header;
  header.request_id = RequestId(1);
  header.duration_ms = 60'000;
  header.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 1));
  req.promise_request = header;
  req.deadline = 500;  // already lapsed (now = 1000)

  uint64_t locks_before = tm.lock_manager().stats().acquisitions;
  Result<Envelope> reply = pm.Handle(req);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->overload.has_value());
  EXPECT_EQ(reply->overload->reason, "deadline");
  EXPECT_EQ(reply->ShedStatus().code(), StatusCode::kResourceExhausted);

  // Zero lock-manager activity: the shed never planned, locked or
  // executed anything.
  EXPECT_EQ(tm.lock_manager().stats().acquisitions, locks_before);
  EXPECT_EQ(pm.stats().deadline_sheds, 1u);
  EXPECT_EQ(pm.stats().requests, 0u);

  // The shed was NOT cached: the identical message id with a live
  // deadline executes for real instead of replaying the shed.
  req.deadline = clock.Now() + 10'000;
  Result<Envelope> retry = pm.Handle(req);
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE(retry->promise_response.has_value());
  EXPECT_EQ(retry->promise_response->result, PromiseResultCode::kAccepted);
  EXPECT_EQ(pm.stats().duplicates_replayed, 0u);
  EXPECT_GT(tm.lock_manager().stats().acquisitions, locks_before);
}

// ---- TCP worker-pool server ----------------------------------------

/// Handler whose completion the test controls: every invocation
/// bumps `entered` then blocks until Release().
class GatedHandler {
 public:
  EndpointHandler Make() {
    return [this](const Envelope& in) -> Result<Envelope> {
      entered_.fetch_add(1);
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return released_; });
      Envelope out;
      out.message_id = in.message_id;
      out.from = in.to;
      out.to = in.from;
      ActionResultBody r;
      r.ok = true;
      out.action_result = std::move(r);
      return out;
    };
  }

  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int entered() const { return entered_.load(); }

  void WaitForEntered(int n) {
    while (entered_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<int> entered_{0};
};

Envelope LoadRequest(uint64_t id, const std::string& from) {
  Envelope req;
  req.message_id = MessageId(id);
  req.from = from;
  req.to = "server";
  return req;
}

void WaitForQueueDepth(TcpEndpointServer& server, size_t depth) {
  for (int i = 0; i < 2'000 && server.queue_depth() < depth; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.queue_depth(), depth);
}

TEST(OverloadTest, QueueFullShedsImmediatelyWithRetryAfterHint) {
  GatedHandler gate;
  TcpEndpointServer server;
  TcpServerOptions options;
  options.workers = 1;
  options.admission.queue_capacity = 1;
  options.admission.retry_after_hint_ms = 25;
  ASSERT_TRUE(server.Start(0, gate.Make(), options).ok());

  std::atomic<int> ok_calls{0};
  // First call occupies the single worker...
  std::thread first([&] {
    TcpClientChannel ch;
    ASSERT_TRUE(ch.Connect(server.port()).ok());
    if (ch.Call(LoadRequest(1, "a")).ok()) ++ok_calls;
  });
  gate.WaitForEntered(1);
  // ...the second fills the queue (capacity 1)...
  std::thread second([&] {
    TcpClientChannel ch;
    ASSERT_TRUE(ch.Connect(server.port()).ok());
    if (ch.Call(LoadRequest(2, "b")).ok()) ++ok_calls;
  });
  WaitForQueueDepth(server, 1);

  // ...and the third is shed on the spot, while both others still wait.
  TcpClientChannel shed_channel;
  ASSERT_TRUE(shed_channel.Connect(server.port()).ok());
  Result<Envelope> shed = shed_channel.Call(LoadRequest(3, "c"));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RetryAfterHintMs(shed.status()), 25);

  gate.Release();
  first.join();
  second.join();
  EXPECT_EQ(ok_calls.load(), 2);

  OverloadStats stats = server.overload_stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_GE(stats.queue_peak, 1u);
  EXPECT_EQ(server.requests_served(), 2u);  // sheds are not served
  server.Stop();
}

TEST(OverloadTest, InlineAndQueuedRequestsShareOneWorkerSlot) {
  // workers = 1: the first request runs inline on its reader, the rest
  // queue behind it, and at no point do two handlers run at once.
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  int running = 0;
  int max_running = 0;
  std::atomic<int> entered{0};
  EndpointHandler handler = [&](const Envelope& in) -> Result<Envelope> {
    {
      std::unique_lock<std::mutex> lk(mu);
      max_running = std::max(max_running, ++running);
      entered.fetch_add(1);
      cv.wait(lk, [&] { return released; });
      --running;
    }
    Envelope out;
    out.message_id = in.message_id;
    ActionResultBody r;
    r.ok = true;
    out.action_result = std::move(r);
    return out;
  };
  TcpEndpointServer server;
  TcpServerOptions options;
  options.workers = 1;
  options.admission.queue_capacity = 8;
  ASSERT_TRUE(server.Start(0, handler, options).ok());

  constexpr int kClients = 4;
  std::atomic<int> ok_calls{0};
  std::vector<std::thread> clients;
  clients.emplace_back([&] {
    TcpClientChannel ch;
    ASSERT_TRUE(ch.Connect(server.port()).ok());
    if (ch.Call(LoadRequest(1, "c0")).ok()) ++ok_calls;
  });
  while (entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int c = 1; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpClientChannel ch;
      ASSERT_TRUE(ch.Connect(server.port()).ok());
      if (ch.Call(LoadRequest(static_cast<uint64_t>(c) + 1,
                              std::string("c").append(std::to_string(c))))
              .ok()) {
        ++ok_calls;
      }
    });
  }
  WaitForQueueDepth(server, kClients - 1);
  EXPECT_EQ(entered.load(), 1);  // the slot is taken: nothing else ran
  {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_calls.load(), kClients);
  EXPECT_EQ(max_running, 1);
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kClients));
  server.Stop();
}

TEST(OverloadTest, PerClientQuotaShedsOverTcp) {
  TcpEndpointServer server;
  TcpServerOptions options;
  options.admission.client_rate_per_sec = 0.5;  // refill ~2 s/token
  options.admission.client_burst = 1;
  ASSERT_TRUE(server.Start(
                        0,
                        [](const Envelope& in) -> Result<Envelope> {
                          Envelope out;
                          out.message_id = in.message_id;
                          out.from = in.to;
                          out.to = in.from;
                          ActionResultBody r;
                          r.ok = true;
                          out.action_result = std::move(r);
                          return out;
                        },
                        options)
                  .ok());

  TcpClientChannel ch;
  ASSERT_TRUE(ch.Connect(server.port()).ok());
  EXPECT_TRUE(ch.Call(LoadRequest(1, "greedy")).ok());  // burst token
  Result<Envelope> shed = ch.Call(LoadRequest(2, "greedy"));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(RetryAfterHintMs(shed.status()), 0);
  EXPECT_EQ(server.overload_stats().shed_quota, 1u);
  server.Stop();
}

TEST(OverloadTest, DeadlineLapsedInQueueIsShedAtDequeue) {
  SimulatedClock clock(1'000);
  GatedHandler gate;
  TcpEndpointServer server;
  TcpServerOptions options;
  options.workers = 1;
  options.clock = &clock;
  ASSERT_TRUE(server.Start(0, gate.Make(), options).ok());

  std::thread first([&] {
    TcpClientChannel ch;
    ASSERT_TRUE(ch.Connect(server.port()).ok());
    EXPECT_TRUE(ch.Call(LoadRequest(1, "a")).ok());
  });
  gate.WaitForEntered(1);

  // The second request is admitted live (deadline 50 ms out) and sits
  // in the queue behind the gated first request.
  Status queued_status = Status::OK();
  std::thread second([&] {
    TcpClientChannel ch;
    ASSERT_TRUE(ch.Connect(server.port()).ok());
    Envelope req = LoadRequest(2, "b");
    req.deadline = clock.Now() + 50;
    Result<Envelope> r = ch.Call(req);
    queued_status = r.ok() ? Status::OK() : r.status();
  });
  WaitForQueueDepth(server, 1);

  // Its deadline lapses while it waits; the worker's dequeue-time
  // re-check sheds it without running the handler.
  clock.Advance(100);
  gate.Release();
  first.join();
  second.join();

  EXPECT_EQ(queued_status.code(), StatusCode::kResourceExhausted)
      << queued_status.ToString();
  EXPECT_EQ(server.overload_stats().shed_deadline, 1u);
  EXPECT_EQ(server.requests_served(), 1u);  // only the first ran
  EXPECT_EQ(gate.entered(), 1);
  server.Stop();
}

TEST(OverloadTest, ServerReapsFinishedConnectionThreads) {
  // Regression for the connection-thread leak: the old server grew
  // connection_threads_ by one per accepted socket and never joined
  // them until Stop. A long-lived server must hold O(live) threads.
  TcpEndpointServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [](const Envelope& in) -> Result<Envelope> {
                           Envelope out;
                           out.message_id = in.message_id;
                           ActionResultBody r;
                           r.ok = true;
                           out.action_result = std::move(r);
                           return out;
                         })
                  .ok());

  for (int i = 0; i < 20; ++i) {
    TcpClientChannel ch;
    ASSERT_TRUE(ch.Connect(server.port()).ok());
    ASSERT_TRUE(ch.Call(LoadRequest(static_cast<uint64_t>(i) + 1, "c")).ok());
    ch.Disconnect();
  }
  // Readers notice the hangup asynchronously; poll for the reap.
  size_t live = 999;
  for (int i = 0; i < 2'000; ++i) {
    live = server.live_connections();
    if (live == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(live, 0u);

  TcpClientChannel alive;
  ASSERT_TRUE(alive.Connect(server.port()).ok());
  ASSERT_TRUE(alive.Call(LoadRequest(100, "c")).ok());
  EXPECT_EQ(server.live_connections(), 1u);
  server.Stop();
}

// ---- Client integration: breaker over retries over the transport ---

TEST(OverloadTest, ClientBreakerOpensOnShedsAndRecovers) {
  SimulatedClock clock;
  Transport transport;
  std::atomic<bool> serve_ok{false};
  transport.Register("svc", [&](const Envelope& in) -> Result<Envelope> {
    Envelope out;
    out.message_id = in.message_id;
    out.from = in.to;
    out.to = in.from;
    if (serve_ok.load()) {
      ActionResultBody r;
      r.ok = true;
      out.action_result = std::move(r);
    } else {
      out.overload = OverloadHeader{"queue-full", 25};
    }
    return out;
  });

  PromiseClient client("c", &transport, "svc");
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline_ms = 100'000;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  policy.jitter = 0;
  policy.clock = &clock;
  client.set_retry_policy(policy, 7);
  client.set_circuit_breaker(TestBreakerConfig(), &clock, 7);

  auto make_request = [&]() {
    Envelope env;
    env.message_id = transport.NextMessageId();
    env.from = "c";
    env.to = "svc";
    return env;
  };

  // Every attempt is shed; the second failure trips the breaker and
  // the third attempt fails fast without touching the wire.
  Result<Envelope> r1 = client.Send(make_request());
  ASSERT_FALSE(r1.ok());
  CircuitBreakerStats stats = client.circuit_breaker()->stats();
  EXPECT_EQ(stats.opens, 1u);
  EXPECT_EQ(stats.fast_failures, 1u);
  EXPECT_EQ(transport.stats().messages, 2u);  // only the real attempts

  // While open (and probes keep failing), most attempts never reach
  // the wire: local fast-failures replace remote sheds.
  uint64_t wire_before = transport.stats().messages;
  Result<Envelope> r2 = client.Send(make_request());
  ASSERT_FALSE(r2.ok());
  EXPECT_LE(transport.stats().messages - wire_before, 1u);
  EXPECT_GE(client.circuit_breaker()->stats().fast_failures, 2u);

  // Server recovers; after the cooldown one probe closes the breaker.
  serve_ok.store(true);
  clock.Advance(10'000);
  Result<Envelope> r3 = client.Send(make_request());
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  stats = client.circuit_breaker()->stats();
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_EQ(client.circuit_breaker()->state(), BreakerState::kClosed);

  // Transitions are visible in the metrics formatting.
  std::string line = FormatBreakerStats(stats);
  EXPECT_NE(line.find("opens"), std::string::npos);
  EXPECT_NE(line.find("closed"), std::string::npos);
}

TEST(OverloadTest, TransportShedsAreCountedAndCarryHints) {
  SimulatedClock clock;
  Transport transport;
  transport.Register("svc", [](const Envelope&) -> Result<Envelope> {
    Envelope out;
    ActionResultBody r;
    r.ok = true;
    out.action_result = std::move(r);
    return out;
  });
  AdmissionOptions options;
  options.queue_capacity = 0;
  options.client_rate_per_sec = 10;
  options.client_burst = 1;
  AdmissionController admission(options, &clock);
  transport.set_admission(&admission);

  Envelope env;
  env.message_id = transport.NextMessageId();
  env.from = "c";
  env.to = "svc";
  EXPECT_TRUE(transport.Send(env).ok());
  Result<Envelope> shed = transport.Send(env);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(RetryAfterHintMs(shed.status()), 0);

  TransportStats stats = transport.stats();
  EXPECT_EQ(stats.sheds, 1u);
  EXPECT_EQ(stats.per_endpoint.at("svc").sheds, 1u);
  EXPECT_EQ(stats.messages, 1u);  // the shed never became a delivery
  std::string line = FormatOverloadStats(admission.stats());
  EXPECT_NE(line.find("quota"), std::string::npos);
}

// ---- Stress (TSan food) --------------------------------------------

TEST(OverloadStressTest, QueueFullSheddingUnderConcurrentClients) {
  TcpEndpointServer server;
  TcpServerOptions options;
  options.workers = 2;
  options.admission.queue_capacity = 2;
  ASSERT_TRUE(server.Start(
                        0,
                        [](const Envelope& in) -> Result<Envelope> {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(1));
                          Envelope out;
                          out.message_id = in.message_id;
                          ActionResultBody r;
                          r.ok = true;
                          out.action_result = std::move(r);
                          return out;
                        },
                        options)
                  .ok());

  constexpr int kThreads = 4;
  constexpr int kCalls = 30;
  std::atomic<int> ok_count{0}, shed_count{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TcpClientChannel ch;
      ch.set_call_timeout_ms(10'000);
      if (!ch.Connect(server.port()).ok()) return;
      for (int i = 0; i < kCalls; ++i) {
        Result<Envelope> r = ch.Call(LoadRequest(
            static_cast<uint64_t>(t) * 1'000 + static_cast<uint64_t>(i) + 1,
            std::string("c").append(std::to_string(t))));
        if (r.ok()) {
          ++ok_count;
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          ++shed_count;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count + shed_count + other, kThreads * kCalls);
  EXPECT_EQ(other.load(), 0);
  OverloadStats stats = server.overload_stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(ok_count.load()));
  EXPECT_EQ(stats.shed_queue_full,
            static_cast<uint64_t>(shed_count.load()));
  server.Stop();
}

TEST(OverloadStressTest, StopRacesInFlightWork) {
  TcpEndpointServer server;
  TcpServerOptions options;
  options.workers = 2;
  options.admission.queue_capacity = 8;
  ASSERT_TRUE(server.Start(
                        0,
                        [](const Envelope& in) -> Result<Envelope> {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(2));
                          Envelope out;
                          out.message_id = in.message_id;
                          ActionResultBody r;
                          r.ok = true;
                          out.action_result = std::move(r);
                          return out;
                        },
                        options)
                  .ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      TcpClientChannel ch;
      ch.set_call_timeout_ms(5'000);
      if (!ch.Connect(server.port()).ok()) return;
      uint64_t id = static_cast<uint64_t>(t) * 100'000;
      // Call until the server goes away under us; queued work that
      // Stop discards surfaces as a closed connection or timeout.
      std::string from = std::string("c").append(std::to_string(t));
      while (ch.Call(LoadRequest(++id, from)).ok()) {
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();  // races in-flight handlers, queued work and readers
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(server.live_connections(), 0u);
}

TEST(OverloadStressTest, BreakerUnderConcurrentCallers) {
  SimulatedClock clock;
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown_ms = 5;
  config.cooldown_jitter = 0.25;
  config.half_open_probes = 2;
  CircuitBreaker breaker(config, &clock, 9);

  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  std::atomic<uint64_t> attempts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        ++attempts;
        Status gate = breaker.Admit();
        if (gate.ok()) {
          if (rng.Chance(0.4)) {
            breaker.RecordFailure(Status::ResourceExhausted("shed"));
          } else {
            breaker.RecordSuccess();
          }
        }
        if (i % 16 == 0) clock.Advance(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  CircuitBreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.admitted + stats.fast_failures, attempts.load());
  // With a 40% failure rate the breaker must have cycled.
  EXPECT_GT(stats.opens, 0u);
}

}  // namespace
}  // namespace promises

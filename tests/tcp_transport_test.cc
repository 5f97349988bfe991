// Tests for the TCP transport: framing, request/response over loopback,
// a full promise exchange against a real socket, and error paths.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "core/checkpoint.h"
#include "core/promise_manager.h"
#include "protocol/fault_injector.h"
#include "protocol/retry_policy.h"
#include "protocol/tcp_transport.h"
#include "service/services.h"

namespace promises {
namespace {

EndpointHandler EchoHandler() {
  return [](const Envelope& in) -> Result<Envelope> {
    Envelope out;
    out.message_id = MessageId(in.message_id.value() + 1);
    out.from = in.to;
    out.to = in.from;
    ActionResultBody r;
    r.ok = true;
    if (in.action) r.outputs["op"] = Value(in.action->operation);
    out.action_result = std::move(r);
    return out;
  };
}

TEST(TcpTransportTest, RoundTrip) {
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  ASSERT_NE(server.port(), 0);

  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(server.port()).ok());
  Envelope req;
  req.message_id = MessageId(7);
  req.from = "tester";
  req.to = "server";
  ActionBody a;
  a.service = "s";
  a.operation = "ping";
  req.action = std::move(a);

  Result<Envelope> reply = channel.Call(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->action_result.has_value());
  EXPECT_EQ(reply->action_result->outputs.at("op").as_string(), "ping");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(TcpTransportTest, MultipleRequestsOneConnection) {
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(server.port()).ok());
  for (int i = 0; i < 50; ++i) {
    Envelope req;
    req.message_id = MessageId(static_cast<uint64_t>(i) + 1);
    req.from = "tester";
    req.to = "server";
    ActionBody a;
    a.service = "s";
    a.operation = "op" + std::to_string(i);
    req.action = std::move(a);
    auto reply = channel.Call(req);
    ASSERT_TRUE(reply.ok()) << i;
    EXPECT_EQ(reply->action_result->outputs.at("op").as_string(),
              "op" + std::to_string(i));
  }
  EXPECT_EQ(server.requests_served(), 50u);
}

TEST(TcpTransportTest, ConcurrentConnections) {
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  constexpr int kClients = 4;
  constexpr int kCalls = 20;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClientChannel channel;
      if (!channel.Connect(server.port()).ok()) return;
      for (int i = 0; i < kCalls; ++i) {
        Envelope req;
        req.message_id = MessageId(static_cast<uint64_t>(c * 1000 + i + 1));
        req.from = std::string("client-").append(std::to_string(c));
        req.to = "server";
        ActionBody a;
        a.service = "s";
        a.operation = std::string("x");
        req.action = std::move(a);
        if (channel.Call(req).ok()) ++ok_count;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kCalls);
  EXPECT_EQ(server.requests_served(),
            static_cast<uint64_t>(kClients * kCalls));
}

TEST(TcpTransportTest, MalformedXmlAnsweredWithFailure) {
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(server.port()).ok());
  // Bypass Call and push a raw broken frame... via friend helpers.
  // Simplest: a fresh socket using the exposed frame functions.
  // (Call() always sends valid XML, so craft the frame by hand.)
  // The channel's fd is private; use a second raw connection.
  // -- covered through a handler error instead:
  TcpEndpointServer failing;
  ASSERT_TRUE(failing
                  .Start(0,
                         [](const Envelope&) -> Result<Envelope> {
                           return Status::Internal("handler exploded");
                         })
                  .ok());
  TcpClientChannel to_failing;
  ASSERT_TRUE(to_failing.Connect(failing.port()).ok());
  Envelope req;
  req.message_id = MessageId(1);
  req.from = "t";
  req.to = "failing";
  auto reply = to_failing.Call(req);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->action_result.has_value());
  EXPECT_FALSE(reply->action_result->ok);
  EXPECT_NE(reply->action_result->error.find("handler exploded"),
            std::string::npos);
}

// A raw client socket, speaking frames directly.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TcpTransportTest, EachFrameIsAnsweredInItsOwnEncoding) {
  // No negotiation: the server sniffs every frame, so an XML (SOAP)
  // client and a binary client share one port, even one connection,
  // and a malformed frame of either kind gets a failure reply in its
  // own encoding.
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  auto exchange = [fd](const std::string& frame) -> Result<std::string> {
    PROMISES_RETURN_IF_ERROR(WriteFrame(fd, frame));
    return ReadFrame(fd, 5'000);
  };
  Envelope req;
  req.message_id = MessageId(3);
  req.from = "raw";
  req.to = "server";
  ActionBody a;
  a.service = "s";
  a.operation = "ping";
  req.action = std::move(a);

  struct Case {
    std::string frame;
    EnvelopeEncoding reply_encoding;
    bool valid;
  };
  const std::string binary = req.Encode();
  const std::vector<Case> cases = {
      {req.ToXml(), EnvelopeEncoding::kXml, true},
      {binary, EnvelopeEncoding::kBinary, true},
      {"<envelope message-id=\"3\"><header>", EnvelopeEncoding::kXml, false},
      {binary.substr(0, binary.size() - 3), EnvelopeEncoding::kBinary, false},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    Result<std::string> reply = exchange(cases[i].frame);
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    EXPECT_EQ(Envelope::Sniff(*reply), cases[i].reply_encoding) << i;
    Result<Envelope> decoded = Envelope::Decode(*reply);
    ASSERT_TRUE(decoded.ok()) << i << ": " << decoded.status().ToString();
    ASSERT_TRUE(decoded->action_result.has_value()) << i;
    EXPECT_EQ(decoded->action_result->ok, cases[i].valid) << i;
    if (cases[i].valid) {
      EXPECT_EQ(decoded->action_result->outputs.at("op").as_string(), "ping");
    } else {
      EXPECT_NE(decoded->action_result->error.find("malformed envelope"),
                std::string::npos)
          << decoded->action_result->error;
    }
  }
  ::close(fd);
}

TEST(TcpTransportTest, RetryableHandlerErrorStaysRetryableOnTheWire) {
  // A transient handler refusal (the idempotency layer's "duplicate of
  // an in-flight request" is the canonical one) must NOT come back as a
  // definitive action failure: the client would stop retrying and count
  // an order failed while the original attempt commits. It surfaces as
  // a retryable shed status instead, so CallWithRetry keeps going until
  // the cached real reply is available.
  TcpEndpointServer busy;
  ASSERT_TRUE(busy.Start(0,
                         [](const Envelope&) -> Result<Envelope> {
                           return Status::Unavailable(
                               "duplicate of in-flight request");
                         })
                  .ok());
  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(busy.port()).ok());
  Envelope req;
  req.message_id = MessageId(2);
  req.from = "t";
  req.to = "busy";
  auto reply = channel.Call(req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryableStatus(reply.status()));
  EXPECT_NE(reply.status().ToString().find("duplicate of in-flight"),
            std::string::npos);
}

TEST(TcpTransportTest, ConnectToClosedPortFails) {
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  uint16_t port = server.port();
  server.Stop();
  TcpClientChannel channel;
  EXPECT_FALSE(channel.Connect(port).ok());
  EXPECT_FALSE(channel.Call(Envelope{}).ok());  // not connected
}

TEST(TcpTransportTest, FullPromiseExchangeOverTheWire) {
  // A real promise manager served over TCP: the §6 exchange end to end
  // through an actual socket.
  SystemClock clock;
  ResourceManager rm;
  TransactionManager tm;
  ASSERT_TRUE(rm.CreatePool("widget", 10).ok());
  PromiseManagerConfig config;
  config.name = "net-pm";
  PromiseManager manager(config, &clock, &rm, &tm);
  manager.RegisterService("inventory", MakeInventoryService());

  TcpEndpointServer server;
  ASSERT_TRUE(server
                  .Start(0,
                         [&](const Envelope& env) {
                           return manager.Handle(env);
                         })
                  .ok());
  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(server.port()).ok());

  // Request a promise.
  Envelope req;
  req.message_id = MessageId(1);
  req.from = "net-client";
  req.to = "net-pm";
  PromiseRequestHeader header;
  header.request_id = RequestId(1);
  header.duration_ms = 30'000;
  header.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 4));
  req.promise_request = std::move(header);
  auto reply = channel.Call(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->promise_response.has_value());
  ASSERT_EQ(reply->promise_response->result, PromiseResultCode::kAccepted);
  PromiseId promise = reply->promise_response->promise_id;

  // Purchase under it with release-after.
  Envelope act;
  act.message_id = MessageId(2);
  act.from = "net-client";
  act.to = "net-pm";
  act.environment = EnvironmentHeader{{{promise, true}}};
  ActionBody buy;
  buy.service = "inventory";
  buy.operation = "purchase";
  buy.params["item"] = Value("widget");
  buy.params["quantity"] = Value(4);
  buy.params["promise"] = Value(static_cast<int64_t>(promise.value()));
  act.action = std::move(buy);
  reply = channel.Call(act);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->action_result.has_value());
  EXPECT_TRUE(reply->action_result->ok) << reply->action_result->error;
  EXPECT_EQ(manager.active_promises(), 0u);
  auto txn = tm.Begin();
  EXPECT_EQ(*rm.GetQuantity(txn.get(), "widget"), 6);
}

// A listener that completes TCP handshakes (kernel backlog) but never
// accepts, reads or replies — the pathological stalled server.
class StalledServer {
 public:
  StalledServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(fd_, 4), 0);
  }
  ~StalledServer() { ::close(fd_); }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

TEST(TcpTransportTest, CallAgainstStalledServerHitsDeadline) {
  // Regression: Call used to block in recv() forever when the server
  // accepted the connection but never sent a reply.
  StalledServer stalled;
  TcpClientChannel channel;
  channel.set_call_timeout_ms(100);
  ASSERT_TRUE(channel.Connect(stalled.port()).ok());

  Envelope req;
  req.message_id = MessageId(1);
  req.from = "tester";
  req.to = "stalled";
  auto start = std::chrono::steady_clock::now();
  Result<Envelope> reply = channel.Call(req);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  EXPECT_LT(elapsed.count(), 5'000) << "deadline did not bound the call";
}

TEST(TcpTransportTest, UnboundedChannelStillDefaultsToBlocking) {
  // Timeout 0 keeps the original semantics; against a live server the
  // call simply completes.
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(server.port()).ok());
  Envelope req;
  req.message_id = MessageId(1);
  req.from = "t";
  req.to = "server";
  EXPECT_TRUE(channel.Call(req).ok());
}

TEST(TcpTransportTest, ReconnectsAfterInjectedConnectionCrash) {
  TcpEndpointServer server;
  ASSERT_TRUE(server.Start(0, EchoHandler()).ok());
  FaultInjector injector(11);
  FaultConfig crash_once;
  crash_once.crash = 1.0;
  injector.Configure(crash_once);
  server.set_fault_injector(&injector);

  TcpClientChannel channel;
  channel.set_call_timeout_ms(2'000);
  ASSERT_TRUE(channel.Connect(server.port()).ok());

  Envelope req;
  req.message_id = MessageId(1);
  req.from = "tester";
  req.to = "server";
  // The injected crash kills the connection mid-conversation.
  EXPECT_FALSE(channel.Call(req).ok());
  EXPECT_EQ(channel.reconnects(), 0u);

  // Heal the server; the next Call transparently reconnects.
  injector.Configure(FaultConfig{});
  req.message_id = MessageId(2);
  Result<Envelope> reply = channel.Call(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(channel.reconnects(), 1u);
}

TEST(TcpTransportTest, InjectedDuplicateDeliveryDedupedByManager) {
  // Over a real socket: a duplicated delivery runs the manager twice,
  // but the idempotency table turns the second run into a cache hit.
  SystemClock clock;
  ResourceManager rm;
  TransactionManager tm;
  ASSERT_TRUE(rm.CreatePool("widget", 10).ok());
  PromiseManagerConfig config;
  config.name = "net-pm";
  PromiseManager manager(config, &clock, &rm, &tm);

  TcpEndpointServer server;
  ASSERT_TRUE(
      server.Start(0, [&](const Envelope& env) { return manager.Handle(env); })
          .ok());
  FaultInjector injector(5);
  FaultConfig dup;
  dup.duplicate = 1.0;
  injector.Configure(dup);
  server.set_fault_injector(&injector);

  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(server.port()).ok());
  Envelope req;
  req.message_id = MessageId(1);
  req.from = "net-client";
  req.to = "net-pm";
  PromiseRequestHeader header;
  header.request_id = RequestId(1);
  header.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 4));
  req.promise_request = std::move(header);

  auto reply = channel.Call(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->promise_response.has_value());
  EXPECT_EQ(reply->promise_response->result, PromiseResultCode::kAccepted);
  EXPECT_EQ(manager.stats().granted, 1u);
  EXPECT_EQ(manager.stats().duplicates_replayed, 1u);
  EXPECT_EQ(manager.active_promises(), 1u);
}

TEST(TcpTransportTest, ReplyLossRetryOverTheWireReturnsOriginalGrant) {
  // The acceptance path over TCP: the manager grants, the reply frame
  // is suppressed, the client times out and retries the identical
  // envelope on a fresh connection — and gets the original promise id.
  SystemClock clock;
  ResourceManager rm;
  TransactionManager tm;
  ASSERT_TRUE(rm.CreatePool("widget", 10).ok());
  PromiseManagerConfig config;
  config.name = "net-pm";
  PromiseManager manager(config, &clock, &rm, &tm);

  TcpEndpointServer server;
  ASSERT_TRUE(
      server.Start(0, [&](const Envelope& env) { return manager.Handle(env); })
          .ok());
  FaultInjector injector(5);
  FaultConfig lose_reply;
  lose_reply.drop_reply = 1.0;
  injector.Configure(lose_reply);
  server.set_fault_injector(&injector);

  TcpClientChannel channel;
  channel.set_call_timeout_ms(200);
  ASSERT_TRUE(channel.Connect(server.port()).ok());
  Envelope req;
  req.message_id = MessageId(9);
  req.from = "net-client";
  req.to = "net-pm";
  PromiseRequestHeader header;
  header.request_id = RequestId(1);
  header.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 4));
  req.promise_request = std::move(header);

  auto first = channel.Call(req);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(manager.stats().granted, 1u);  // grant happened server-side

  injector.Configure(FaultConfig{});
  auto retry = channel.Call(req);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(channel.reconnects(), 1u);  // poisoned stream was replaced
  ASSERT_TRUE(retry->promise_response.has_value());
  PromiseId id = retry->promise_response->promise_id;
  EXPECT_NE(manager.FindPromise(id), nullptr);
  EXPECT_EQ(manager.stats().granted, 1u);
  EXPECT_EQ(manager.stats().duplicates_replayed, 1u);
}

TEST(TcpTransportTest, PeriodicCheckpointCadenceOverServerLifetime) {
  // The ROADMAP item-4 follow-on: a CheckpointWriter cadence bound to
  // the server through the background hooks. Idle ticks skip (no new
  // LSNs), wire traffic that appends to the log makes the next tick
  // capture, and Stop() winds the cadence down with the server.
  const std::string log_path =
      "/tmp/promises_tcp_ckpt_log_" +
      std::to_string(reinterpret_cast<uintptr_t>(&log_path));
  const std::string ckpt_path = log_path + ".ckpt";
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
  std::remove((ckpt_path + ".tmp").c_str());

  SystemClock clock;
  ResourceManager rm;
  TransactionManager tm;
  ASSERT_TRUE(rm.CreatePool("widget", 10).ok());
  PromiseManagerConfig config;
  config.name = "net-pm";
  PromiseManager manager(config, &clock, &rm, &tm);
  OperationLog log;
  ASSERT_TRUE(log.Open(log_path).ok());
  ASSERT_TRUE(manager.AttachLog(&log).ok());
  CheckpointWriter writer(&manager, &log, ckpt_path);

  TcpServerOptions options;
  options.background_start = [&] { return writer.Start(2); };
  options.background_stop = [&] { writer.Stop(); };
  TcpEndpointServer server;
  ASSERT_TRUE(
      server
          .Start(0, [&](const Envelope& env) { return manager.Handle(env); },
                 options)
          .ok());

  auto wait_until = [](const std::function<bool()>& done) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };

  // Before any traffic the log has no LSNs: ticks only skip.
  ASSERT_TRUE(wait_until([&] { return writer.periodic_skips() >= 2; }));
  EXPECT_EQ(writer.periodic_captures(), 0u);
  EXPECT_EQ(writer.last_installed_lsn(), 0u);

  // One granted promise over the wire appends to the log; the next
  // tick captures and installs a checkpoint at that cut.
  TcpClientChannel channel;
  ASSERT_TRUE(channel.Connect(server.port()).ok());
  Envelope req;
  req.message_id = MessageId(1);
  req.from = "net-client";
  req.to = "net-pm";
  PromiseRequestHeader header;
  header.request_id = RequestId(1);
  header.duration_ms = 30'000;
  header.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 4));
  req.promise_request = std::move(header);
  auto reply = channel.Call(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(wait_until([&] { return writer.periodic_captures() >= 1; }));
  ASSERT_TRUE(wait_until([&] { return writer.last_installed_lsn() >= 1; }));
  std::FILE* f = std::fopen(ckpt_path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << ckpt_path;
  if (f != nullptr) std::fclose(f);

  // With the traffic drained the cadence goes back to skipping instead
  // of re-installing identical snapshots.
  const uint64_t captures_after_install = writer.periodic_captures();
  const uint64_t skips_before_idle = writer.periodic_skips();
  ASSERT_TRUE(wait_until(
      [&] { return writer.periodic_skips() > skips_before_idle; }));
  EXPECT_EQ(writer.periodic_captures(), captures_after_install);

  // Stop() tears the cadence down through background_stop: no further
  // ticks of either kind land once it returns.
  server.Stop();
  const uint64_t ticks =
      writer.periodic_captures() + writer.periodic_skips();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(writer.periodic_captures() + writer.periodic_skips(), ticks);

  log.Close();
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
  std::remove((ckpt_path + ".tmp").c_str());
}

}  // namespace
}  // namespace promises

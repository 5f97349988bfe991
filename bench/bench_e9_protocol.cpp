// E9 — Protocol overhead (§6): "Our Promise protocol fits very
// naturally into the SOAP protocol... All of our promise protocol
// messages can be transferred as elements in SOAP message headers."
//
// Measures envelope serialize / parse cost vs header complexity for
// both codecs (the XML SOAP rendering and the internal binary one), and
// the full transport round trip with and without on-wire encoding —
// i.e. what the promise headers add to an application message.

#include <benchmark/benchmark.h>

#include "core/promise_manager.h"
#include "protocol/message.h"
#include "protocol/tcp_transport.h"
#include "protocol/transport.h"
#include "service/services.h"

namespace promises {
namespace {

Envelope MakeEnvelope(int num_predicates, bool with_action) {
  Envelope env;
  env.message_id = MessageId(1);
  env.from = "client";
  env.to = "manager";
  PromiseRequestHeader req;
  req.request_id = RequestId(7);
  req.duration_ms = 30'000;
  for (int i = 0; i < num_predicates; ++i) {
    switch (i % 3) {
      case 0:
        req.predicates.push_back(Predicate::Quantity(
            "pool-" + std::to_string(i), CompareOp::kGe, 5));
        break;
      case 1:
        req.predicates.push_back(
            Predicate::Named("class-" + std::to_string(i), "inst-42"));
        break;
      default:
        req.predicates.push_back(Predicate::Property(
            "class-" + std::to_string(i),
            Expr::And(Expr::Compare("floor", CompareOp::kEq, Value(5)),
                      Expr::Compare("view", CompareOp::kEq, Value(true))),
            2));
    }
  }
  if (num_predicates > 0) env.promise_request = std::move(req);
  if (with_action) {
    ActionBody action;
    action.service = "inventory";
    action.operation = "purchase";
    action.params["item"] = Value("pink-widget");
    action.params["quantity"] = Value(5);
    env.action = std::move(action);
    env.environment = EnvironmentHeader{{{PromiseId(9), true}}};
  }
  return env;
}

// Each codec at each header complexity: XML is the §6 SOAP rendering,
// binary is what the log, the transports and checkpoints carry.
void BM_Serialize(benchmark::State& state, EnvelopeEncoding encoding) {
  Envelope env = MakeEnvelope(static_cast<int>(state.range(0)), true);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string wire = env.Encode(encoding);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK_CAPTURE(BM_Serialize, Xml, EnvelopeEncoding::kXml)
    ->Arg(0)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK_CAPTURE(BM_Serialize, Binary, EnvelopeEncoding::kBinary)
    ->Arg(0)->Arg(1)->Arg(4)->Arg(16);

void BM_Parse(benchmark::State& state, EnvelopeEncoding encoding) {
  std::string wire =
      MakeEnvelope(static_cast<int>(state.range(0)), true).Encode(encoding);
  for (auto _ : state) {
    auto env = Envelope::Decode(wire);
    if (!env.ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    benchmark::DoNotOptimize(*env);
  }
  state.counters["bytes"] = static_cast<double>(wire.size());
}
BENCHMARK_CAPTURE(BM_Parse, Xml, EnvelopeEncoding::kXml)
    ->Arg(0)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK_CAPTURE(BM_Parse, Binary, EnvelopeEncoding::kBinary)
    ->Arg(0)->Arg(1)->Arg(4)->Arg(16);

// Full stack: grant + purchase-with-release through the manager over
// the transport, with the binary codec on the wire vs by-reference
// dispatch.
void RoundTrip(benchmark::State& state, bool encode) {
  SimulatedClock clock;
  TransactionManager tm(5000);
  ResourceManager rm;
  (void)rm.CreatePool("stock", 100'000'000);
  Transport transport;
  transport.set_encode_on_wire(encode);
  PromiseManagerConfig config;
  config.name = "manager";
  config.default_duration_ms = 3'600'000;
  PromiseManager pm(config, &clock, &rm, &tm, &transport);
  pm.RegisterService("inventory", MakeInventoryService());

  IdGenerator<RequestId> request_ids;
  for (auto _ : state) {
    Envelope env;
    env.message_id = transport.NextMessageId();
    env.from = "client";
    env.to = "manager";
    PromiseRequestHeader req;
    req.request_id = request_ids.Next();
    req.duration_ms = 30'000;
    req.predicates.push_back(
        Predicate::Quantity("stock", CompareOp::kGe, 5));
    env.promise_request = std::move(req);
    env.environment = EnvironmentHeader{{{PromiseId(), true}}};
    ActionBody action;
    action.service = "inventory";
    action.operation = "purchase";
    action.params["item"] = Value("stock");
    action.params["quantity"] = Value(5);
    env.action = std::move(action);

    auto reply = transport.Send(env);
    if (!reply.ok() || !reply->action_result || !reply->action_result->ok) {
      state.SkipWithError("round trip failed");
      return;
    }
  }
}
void BM_RoundTripBinaryWire(benchmark::State& state) {
  RoundTrip(state, /*encode=*/true);
}
void BM_RoundTripByReference(benchmark::State& state) {
  RoundTrip(state, /*encode=*/false);
}
BENCHMARK(BM_RoundTripBinaryWire);
BENCHMARK(BM_RoundTripByReference);

// Same grant+purchase exchange over an actual loopback TCP socket
// (TcpClientChannel sends binary frames).
void BM_RoundTripTcpBinary(benchmark::State& state) {
  SimulatedClock clock;
  TransactionManager tm(5000);
  ResourceManager rm;
  (void)rm.CreatePool("stock", 100'000'000);
  PromiseManagerConfig config;
  config.name = "manager";
  config.default_duration_ms = 3'600'000;
  PromiseManager pm(config, &clock, &rm, &tm);
  pm.RegisterService("inventory", MakeInventoryService());

  TcpEndpointServer server;
  if (!server.Start(0, [&](const Envelope& env) { return pm.Handle(env); })
           .ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  TcpClientChannel channel;
  if (!channel.Connect(server.port()).ok()) {
    state.SkipWithError("connect failed");
    return;
  }

  IdGenerator<RequestId> request_ids;
  IdGenerator<MessageId> message_ids;
  for (auto _ : state) {
    Envelope env;
    env.message_id = message_ids.Next();
    env.from = "client";
    env.to = "manager";
    PromiseRequestHeader req;
    req.request_id = request_ids.Next();
    req.duration_ms = 30'000;
    req.predicates.push_back(
        Predicate::Quantity("stock", CompareOp::kGe, 5));
    env.promise_request = std::move(req);
    env.environment = EnvironmentHeader{{{PromiseId(), true}}};
    ActionBody action;
    action.service = "inventory";
    action.operation = "purchase";
    action.params["item"] = Value("stock");
    action.params["quantity"] = Value(5);
    env.action = std::move(action);

    auto reply = channel.Call(env);
    if (!reply.ok() || !reply->action_result || !reply->action_result->ok) {
      state.SkipWithError("tcp round trip failed");
      return;
    }
  }
}
BENCHMARK(BM_RoundTripTcpBinary);

}  // namespace
}  // namespace promises

BENCHMARK_MAIN();

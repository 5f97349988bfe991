// Randomized round-trip tests: arbitrary generated predicates and
// envelopes must survive ToString/ToXml (and the binary codec) followed
// by parsing, bit-exact in structure. These are the serialization counterparts of the
// engine sweeps in property_test.cc.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "predicate/parser.h"
#include "protocol/message.h"

namespace promises {
namespace {

// --- Generators ----------------------------------------------------------

std::string RandomName(Rng* rng) {
  static const char* kNames[] = {"pink-widget", "room", "seat_24G",
                                 "account-alice", "x", "bulk-widget",
                                 "class-9", "weird 'quoted' name"};
  return kNames[rng->NextU64() % (sizeof(kNames) / sizeof(kNames[0]))];
}

std::string RandomProperty(Rng* rng) {
  static const char* kProps[] = {"floor", "view", "grade", "rate",
                                 "smoking", "wing-b"};
  return kProps[rng->NextU64() % (sizeof(kProps) / sizeof(kProps[0]))];
}

Value RandomLiteral(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0: return Value(rng->UniformInt(-1000, 1000));
    case 1: return Value(rng->UniformDouble() * 100);
    case 2: return Value(rng->Chance(0.5));
    default: return Value(RandomName(rng));
  }
}

CompareOp RandomOp(Rng* rng) {
  return static_cast<CompareOp>(rng->UniformInt(0, 5));
}

ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->Chance(0.4)) {
    if (rng->Chance(0.1)) return Expr::Const(rng->Chance(0.5));
    return Expr::Compare(RandomProperty(rng), RandomOp(rng),
                         RandomLiteral(rng));
  }
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return Expr::And(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 1:
      return Expr::Or(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    default:
      return Expr::Not(RandomExpr(rng, depth - 1));
  }
}

Predicate RandomPredicate(Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return Predicate::Quantity(RandomName(rng), CompareOp::kGe,
                                 rng->UniformInt(0, 100000));
    case 1:
      return Predicate::Named(RandomName(rng), RandomName(rng));
    default:
      return Predicate::Property(RandomName(rng), RandomExpr(rng, 3),
                                 rng->UniformInt(0, 20));
  }
}

// --- Predicate round trips -------------------------------------------------

class PredicateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateFuzzTest, ToStringParsesBackEqual) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Predicate original = RandomPredicate(&rng);
    std::string text = original.ToString();
    Result<Predicate> parsed = ParsePredicate(text);
    ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
    EXPECT_TRUE(original.Equals(*parsed)) << text;
    // And printing again is a fixpoint.
    EXPECT_EQ(parsed->ToString(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(PredicateFuzzTest, DoubleLiteralsSurviveTextually) {
  // Doubles print via Value::ToString (fixed 6-decimal form); parsing
  // must agree numerically for the printed precision.
  Predicate p = Predicate::Property(
      "room", Expr::Compare("rate", CompareOp::kLe, Value(99.5)), 1);
  auto back = ParsePredicate(p.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(p.Equals(*back));
}

// --- Envelope round trips ----------------------------------------------

class EnvelopeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

Envelope RandomEnvelope(Rng* rng) {
  Envelope env;
  env.message_id = MessageId(rng->UniformInt(1, 1 << 30));
  env.from = RandomName(rng);
  env.to = RandomName(rng);
  if (rng->Chance(0.7)) {
    PromiseRequestHeader req;
    req.request_id = RequestId(rng->UniformInt(1, 1 << 30));
    req.duration_ms = rng->UniformInt(0, 1 << 20);
    int n = static_cast<int>(rng->UniformInt(0, 5));
    for (int i = 0; i < n; ++i) {
      req.predicates.push_back(RandomPredicate(rng));
    }
    int handbacks = static_cast<int>(rng->UniformInt(0, 3));
    for (int i = 0; i < handbacks; ++i) {
      req.release_on_grant.push_back(
          PromiseId(rng->UniformInt(1, 1000)));
    }
    env.promise_request = std::move(req);
  }
  if (rng->Chance(0.5)) {
    PromiseResponseHeader resp;
    resp.promise_id = PromiseId(rng->UniformInt(0, 1000));
    resp.result = rng->Chance(0.5) ? PromiseResultCode::kAccepted
                                   : PromiseResultCode::kRejected;
    resp.granted_duration_ms = rng->UniformInt(0, 1 << 20);
    resp.correlation = RequestId(rng->UniformInt(1, 1000));
    if (rng->Chance(0.5)) resp.reason = "rejected: <' & \">";
    env.promise_response = std::move(resp);
  }
  if (rng->Chance(0.5)) {
    EnvironmentHeader h;
    int n = static_cast<int>(rng->UniformInt(1, 4));
    for (int i = 0; i < n; ++i) {
      h.entries.push_back(
          {PromiseId(rng->UniformInt(0, 1000)), rng->Chance(0.5)});
    }
    env.environment = std::move(h);
  }
  if (rng->Chance(0.3)) {
    ReleaseHeader h;
    h.promises.push_back(PromiseId(rng->UniformInt(1, 1000)));
    env.release = std::move(h);
  }
  if (rng->Chance(0.6)) {
    ActionBody action;
    action.service = RandomName(rng);
    action.operation = RandomName(rng);
    int n = static_cast<int>(rng->UniformInt(0, 4));
    for (int i = 0; i < n; ++i) {
      action.params["p" + std::to_string(i)] = RandomLiteral(rng);
    }
    env.action = std::move(action);
  }
  if (rng->Chance(0.4)) {
    ActionResultBody result;
    result.ok = rng->Chance(0.5);
    if (!result.ok) result.error = "err & <tag>";
    result.outputs["out"] = RandomLiteral(rng);
    env.action_result = std::move(result);
  }
  return env;
}

void ExpectEnvelopesEqual(const Envelope& a, const Envelope& b) {
  EXPECT_EQ(a.message_id, b.message_id);
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.to, b.to);
  ASSERT_EQ(a.promise_request.has_value(), b.promise_request.has_value());
  if (a.promise_request) {
    EXPECT_EQ(a.promise_request->request_id, b.promise_request->request_id);
    EXPECT_EQ(a.promise_request->duration_ms,
              b.promise_request->duration_ms);
    ASSERT_EQ(a.promise_request->predicates.size(),
              b.promise_request->predicates.size());
    for (size_t i = 0; i < a.promise_request->predicates.size(); ++i) {
      EXPECT_TRUE(a.promise_request->predicates[i].Equals(
          b.promise_request->predicates[i]));
    }
    EXPECT_EQ(a.promise_request->release_on_grant,
              b.promise_request->release_on_grant);
  }
  ASSERT_EQ(a.promise_response.has_value(), b.promise_response.has_value());
  if (a.promise_response) {
    EXPECT_EQ(a.promise_response->promise_id, b.promise_response->promise_id);
    EXPECT_EQ(a.promise_response->result, b.promise_response->result);
    EXPECT_EQ(a.promise_response->reason, b.promise_response->reason);
  }
  ASSERT_EQ(a.environment.has_value(), b.environment.has_value());
  if (a.environment) {
    ASSERT_EQ(a.environment->entries.size(), b.environment->entries.size());
    for (size_t i = 0; i < a.environment->entries.size(); ++i) {
      EXPECT_EQ(a.environment->entries[i].promise,
                b.environment->entries[i].promise);
      EXPECT_EQ(a.environment->entries[i].release_after,
                b.environment->entries[i].release_after);
    }
  }
  ASSERT_EQ(a.release.has_value(), b.release.has_value());
  if (a.release) {
    EXPECT_EQ(a.release->promises, b.release->promises);
  }
  ASSERT_EQ(a.action.has_value(), b.action.has_value());
  if (a.action) {
    EXPECT_EQ(a.action->service, b.action->service);
    EXPECT_EQ(a.action->operation, b.action->operation);
    ASSERT_EQ(a.action->params.size(), b.action->params.size());
    for (const auto& [k, v] : a.action->params) {
      ASSERT_TRUE(b.action->params.count(k)) << k;
      EXPECT_TRUE(v.Equals(b.action->params.at(k))) << k;
    }
  }
  ASSERT_EQ(a.action_result.has_value(), b.action_result.has_value());
  if (a.action_result) {
    EXPECT_EQ(a.action_result->ok, b.action_result->ok);
    EXPECT_EQ(a.action_result->error, b.action_result->error);
  }
}

TEST_P(EnvelopeFuzzTest, XmlRoundTripPreservesStructure) {
  Rng rng(GetParam() * 1337);
  for (int i = 0; i < 60; ++i) {
    Envelope original = RandomEnvelope(&rng);
    std::string xml = original.ToXml();
    Result<Envelope> back = Envelope::FromXml(xml);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << xml;
    ExpectEnvelopesEqual(original, *back);
    // Pretty-printed form parses identically too.
    Result<Envelope> pretty = Envelope::FromXml(original.ToXml(true));
    ASSERT_TRUE(pretty.ok());
    ExpectEnvelopesEqual(original, *pretty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

// --- Binary codec --------------------------------------------------------

class EnvelopeCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// RandomEnvelope plus the parts it leaves out, so every field of the
// binary layout is exercised: deadline, trace, queueing, pending
// tickets, counter-offers, poll, overload, route, exact doubles, and
// strings with bytes that framing must not care about.
Envelope RandomFullEnvelope(Rng* rng) {
  Envelope env = RandomEnvelope(rng);
  if (rng->Chance(0.5)) env.deadline = rng->UniformInt(-5, 1LL << 40);
  if (rng->Chance(0.5)) {
    TraceContext& t = env.trace.emplace();
    t.trace_hi = rng->NextU64();
    t.trace_lo = rng->NextU64() | 1;
    t.span_id = rng->NextU64();
    if (rng->Chance(0.5)) t.parent_span_id = rng->NextU64();
    t.sampled = rng->Chance(0.5);
  }
  if (env.promise_request) {
    env.promise_request->queue_if_unavailable = rng->Chance(0.5);
  }
  if (env.promise_response) {
    env.promise_response->result = static_cast<PromiseResultCode>(
        rng->UniformInt(0, 2));
    if (rng->Chance(0.5)) {
      env.promise_response->pending_ticket = rng->UniformInt(1, 1 << 20);
    }
    if (rng->Chance(0.5)) {
      env.promise_response->counter_offer = "quantity('x') >= 3";
    }
  }
  if (rng->Chance(0.3)) env.poll.emplace().ticket = rng->UniformInt(1, 99);
  if (rng->Chance(0.3)) {
    env.overload = OverloadHeader{"queue-full", rng->UniformInt(0, 500)};
  }
  if (rng->Chance(0.3)) {
    env.route = RouteHeader{static_cast<int32_t>(rng->UniformInt(0, 7)),
                            static_cast<uint64_t>(rng->UniformInt(1, 9))};
  }
  if (env.action && rng->Chance(0.5)) {
    env.action->params["note"] = Value("two\nlines|and \x01 a \xb1 byte");
  }
  return env;
}

TEST_P(EnvelopeCodecFuzzTest, BinaryRoundTripMatchesXmlRoundTrip) {
  Rng rng(GetParam() * 7919);
  for (int i = 0; i < 60; ++i) {
    Envelope original = RandomFullEnvelope(&rng);
    std::string binary = original.Encode();
    ASSERT_EQ(Envelope::Sniff(binary), EnvelopeEncoding::kBinary);
    Result<Envelope> back = Envelope::Decode(binary);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectEnvelopesEqual(original, *back);
    // Exact: doubles keep their bits and the trace travels, so the
    // re-encoding is byte-identical.
    EXPECT_EQ(back->Encode(), binary);
    // And the XML round trip sees the same envelope.
    Result<Envelope> via_xml = Envelope::Decode(original.ToXml());
    ASSERT_TRUE(via_xml.ok()) << via_xml.status().ToString();
    EXPECT_EQ(back->ToXml(), via_xml->ToXml());
  }
}

TEST_P(EnvelopeCodecFuzzTest, TruncationsAndByteFlipsNeverCrash) {
  Rng rng(GetParam() * 104729);
  for (int i = 0; i < 20; ++i) {
    const std::string binary = RandomFullEnvelope(&rng).Encode();
    // A proper prefix always runs out of bytes mid-field.
    for (size_t n = 0; n < binary.size(); ++n) {
      EXPECT_FALSE(Envelope::Decode(binary.substr(0, n)).ok()) << n;
    }
    // A flipped byte either fails to decode or yields an envelope that
    // encodes and decodes again.
    for (size_t pos = 0; pos < binary.size(); ++pos) {
      for (unsigned char mask : {0x01, 0x40, 0x80, 0xff}) {
        std::string damaged = binary;
        damaged[pos] = static_cast<char>(damaged[pos] ^ mask);
        Result<Envelope> decoded = Envelope::Decode(damaged);
        if (!decoded.ok()) continue;
        EXPECT_TRUE(Envelope::Decode(decoded->Encode()).ok()) << pos;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeCodecFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace promises

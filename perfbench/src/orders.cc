#include "orders.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "predicate/parser.h"
#include "service/services.h"

namespace perfbench {

using promises::ActionBody;
using promises::Envelope;
using promises::PromiseId;
using promises::PromiseResultCode;
using promises::Result;
using promises::Value;

namespace {

constexpr promises::DurationMs kPromiseDurationMs = 600'000;
constexpr const char* kRoomClass = "room";

const WorkloadSpec kCheckout = {
    .kind = WorkloadKind::kCheckout,
    .name = "checkout",
    .items = 1000,
    .stock = 1'000'000,
    .warmup_orders = 1000,
    .recovery_orders = 1000,
};

const WorkloadSpec kBooking = {
    .kind = WorkloadKind::kBooking,
    .name = "booking",
    .rooms = 256,
    .window = 8,
    .warmup_orders = 100,
    .recovery_orders = 150,
};

std::string RoomName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "room-%04d", index);
  return buf;
}

const std::vector<std::string>& BookingPredicates() {
  // Each matches between a third and three fifths of the hotel, far
  // more rooms than the clients ever hold, so no grant is refused.
  static const std::vector<std::string> kPredicates = {
      "count('room' where view == true && floor >= 2) >= 1",
      "count('room' where floor >= 5) >= 1",
      "count('room' where grade == 2) >= 1",
      "count('room' where view == false || floor <= 2) >= 1",
      "count('room' where grade >= 2 && view == true) >= 1",
  };
  return kPredicates;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  if (name == kCheckout.name) return &kCheckout;
  if (name == kBooking.name) return &kBooking;
  return nullptr;
}

std::string ItemName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "item-%04d", index);
  return buf;
}

const std::vector<std::string>& PredicateTexts(const WorkloadSpec& spec) {
  static const std::vector<std::string> kCheckoutTexts = [] {
    std::vector<std::string> texts;
    for (int i = 0; i < kCheckout.items; ++i) {
      texts.push_back("quantity('" + ItemName(i) + "') >= 1");
    }
    return texts;
  }();
  return spec.kind == WorkloadKind::kCheckout ? kCheckoutTexts
                                              : BookingPredicates();
}

namespace {

// Parsed once per process: a client builds its grant from a parsed
// predicate, so the order loop pays no client-side parse.
const std::vector<promises::Predicate>& ParsedPredicates(
    const WorkloadSpec& spec) {
  auto parse_all = [](const std::vector<std::string>& texts) {
    std::vector<promises::Predicate> parsed;
    for (const std::string& text : texts) {
      Result<promises::Predicate> p = promises::ParsePredicate(text);
      if (!p.ok()) {
        std::fprintf(stderr, "perfbench: bad predicate %s\n", text.c_str());
        std::abort();
      }
      parsed.push_back(std::move(p).value());
    }
    return parsed;
  };
  static const std::vector<promises::Predicate> kCheckoutParsed =
      parse_all(PredicateTexts(kCheckout));
  static const std::vector<promises::Predicate> kBookingParsed =
      parse_all(PredicateTexts(kBooking));
  return spec.kind == WorkloadKind::kCheckout ? kCheckoutParsed
                                              : kBookingParsed;
}

}  // namespace

void DefineCatalog(const WorkloadSpec& spec, promises::ResourceManager& rm) {
  if (spec.kind == WorkloadKind::kCheckout) {
    for (int i = 0; i < spec.items; ++i) {
      (void)rm.CreatePool(ItemName(i), spec.stock);
    }
    return;
  }
  promises::Schema schema({{"floor", promises::ValueType::kInt, false},
                           {"view", promises::ValueType::kBool, false},
                           {"grade", promises::ValueType::kInt, false}});
  (void)rm.CreateInstanceClass(kRoomClass, schema);
  for (int i = 0; i < spec.rooms; ++i) {
    (void)rm.AddInstance(kRoomClass, RoomName(i),
                         {{"floor", Value(1 + i % 8)},
                          {"view", Value((i / 8) % 3 != 2)},
                          {"grade", Value(1 + (i / 24) % 3)}});
  }
}

void ConfigureServices(const WorkloadSpec& spec,
                       promises::PromiseManager& pm) {
  if (spec.kind == WorkloadKind::kCheckout) {
    pm.RegisterService("inventory", promises::MakeInventoryService());
  } else {
    pm.RegisterService("booking", promises::MakeBookingService());
  }
}

OrderStream::OrderStream(const WorkloadSpec& spec, uint64_t seed, int stream)
    : range_(static_cast<int>(PredicateTexts(spec).size())),
      rng_(promises::SplitMix64(seed ^ (0x9E3779B97F4A7C15ULL *
                                        static_cast<uint64_t>(stream + 1)))
               .Next()) {}

int OrderStream::Next() {
  return static_cast<int>(rng_.UniformInt(0, range_ - 1));
}

Client::Client(const WorkloadSpec& spec, std::string sender, uint64_t seed,
               int stream)
    : spec_(spec), sender_(std::move(sender)), stream_(spec, seed, stream) {}

Envelope Client::NewEnvelope() {
  Envelope env;
  env.message_id = promises::MessageId(next_message_++);
  env.from = sender_;
  env.to = promises::PromiseManagerConfig{}.name;
  return env;
}

Envelope Client::GrantRequest(int choice) {
  Envelope env = NewEnvelope();
  promises::PromiseRequestHeader req;
  req.request_id = promises::RequestId(env.message_id.value());
  req.predicates.push_back(ParsedPredicates(spec_)[choice]);
  req.duration_ms = kPromiseDurationMs;
  env.promise_request = std::move(req);
  return env;
}

bool Client::Fail(std::string error) {
  last_error_ = sender_ + ": " + std::move(error);
  return false;
}

bool Client::Grant(const Invoke& invoke, int choice, PromiseId* id) {
  Envelope request = GrantRequest(choice);
  Result<Envelope> reply = invoke(request);
  if (!reply.ok()) return Fail("grant: " + reply.status().ToString());
  if (!reply->promise_response ||
      reply->promise_response->result != PromiseResultCode::kAccepted) {
    return Fail("grant refused: " +
                (reply->promise_response ? reply->promise_response->reason
                                         : std::string("no response")));
  }
  *id = reply->promise_response->promise_id;
  return true;
}

bool Client::Act(const Invoke& invoke, const Envelope& request,
                 Envelope* reply) {
  Result<Envelope> got = invoke(request);
  if (!got.ok()) return Fail("act: " + got.status().ToString());
  if (!got->action_result || !got->action_result->ok) {
    return Fail("action failed: " + (got->action_result
                                         ? got->action_result->error
                                         : std::string("no result")));
  }
  *reply = std::move(got).value();
  return true;
}

bool Client::Release(const Invoke& invoke, PromiseId id) {
  Envelope request = NewEnvelope();
  request.release = promises::ReleaseHeader{{id}};
  Result<Envelope> reply = invoke(request);
  return reply.ok();
}

bool Client::BookAndVacate(const Invoke& invoke, PromiseId id) {
  Envelope book = NewEnvelope();
  book.environment = promises::EnvironmentHeader{{{id, true}}};
  ActionBody action;
  action.service = "booking";
  action.operation = "book";
  action.params["class"] = Value(kRoomClass);
  action.params["promise"] = Value(static_cast<int64_t>(id.value()));
  book.action = std::move(action);
  Envelope reply;
  if (!Act(invoke, book, &reply)) {
    // The promise is still held when the booking failed; hand it back
    // so the hotel does not drift.
    (void)Release(invoke, id);
    return false;
  }
  auto room = reply.action_result->outputs.find("booked");
  if (room == reply.action_result->outputs.end()) {
    return Fail("book: no room in reply");
  }
  Envelope vacate = NewEnvelope();
  ActionBody leave;
  leave.service = "booking";
  leave.operation = "vacate";
  leave.params["class"] = Value(kRoomClass);
  leave.params["instance"] = Value(room->second.ToString());
  vacate.action = std::move(leave);
  return Act(invoke, vacate, &reply);
}

bool Client::RunOrder(const Invoke& invoke) {
  const int choice = stream_.Next();
  if (spec_.kind == WorkloadKind::kCheckout) {
    PromiseId id;
    if (!Grant(invoke, choice, &id)) return false;
    Envelope buy = NewEnvelope();
    buy.environment = promises::EnvironmentHeader{{{id, true}}};
    ActionBody action;
    action.service = "inventory";
    action.operation = "purchase";
    action.params["item"] = Value(ItemName(choice));
    action.params["quantity"] = Value(1);
    action.params["promise"] = Value(static_cast<int64_t>(id.value()));
    buy.action = std::move(action);
    Envelope reply;
    if (!Act(invoke, buy, &reply)) {
      (void)Release(invoke, id);
      return false;
    }
    ++purchased_[choice];
    return true;
  }
  PromiseId fresh;
  if (!Grant(invoke, choice, &fresh)) return false;
  window_.push_back(fresh);
  const PromiseId oldest = window_.front();
  window_.pop_front();
  return BookAndVacate(invoke, oldest);
}

bool Client::FillWindow(const Invoke& invoke) {
  while (static_cast<int>(window_.size()) < spec_.window) {
    PromiseId id;
    if (!Grant(invoke, stream_.Next(), &id)) return false;
    window_.push_back(id);
  }
  return true;
}

bool Client::DrainWindow(const Invoke& invoke) {
  while (!window_.empty()) {
    const PromiseId id = window_.front();
    window_.pop_front();
    if (!BookAndVacate(invoke, id)) return false;
  }
  return true;
}

}  // namespace perfbench

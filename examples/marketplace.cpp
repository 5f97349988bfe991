// Marketplace aggregator: §3.3 polymorphic federation end to end.
//
// "A hotel booking service could aggregate availability information
// from a number of providers, each with their own schemas for
// describing available rooms. A single predicate could be used to
// obtain a promise from any of these providers, as long as they all
// exported the set of properties required by the predicate."
//
// Three hotel chains export different schemas; the aggregator exposes
// one virtual class 'room'. Customers write predicates once; the
// manager routes them to capable providers, and bookings consume in
// whichever provider backed the promise. Rejections come back with
// counter-offers computed across all providers.

#include <cstdio>

#include "core/promise_manager.h"
#include "protocol/transport.h"
#include "service/client.h"
#include "service/services.h"

using namespace promises;

int main() {
  SimulatedClock clock(0);
  ResourceManager rm;
  TransactionManager tm;
  Transport transport;

  // Budget Inn: basic schema, 3 rooms, no views.
  Schema budget({{"floor", ValueType::kInt, false},
                 {"view", ValueType::kBool, false}});
  (void)rm.CreateInstanceClass("budget-inn", budget);
  for (int i = 1; i <= 3; ++i) {
    (void)rm.AddInstance("budget-inn",
                         std::string("b").append(std::to_string(i)),
                         {{"floor", Value(i)}, {"view", Value(false)}});
  }
  // Grand Hotel: adds 'grade'; two rooms with views.
  Schema grand({{"floor", ValueType::kInt, false},
                {"view", ValueType::kBool, false},
                {"grade", ValueType::kInt, false}});
  (void)rm.CreateInstanceClass("grand-hotel", grand);
  (void)rm.AddInstance("grand-hotel", "g1",
                       {{"floor", Value(7)}, {"view", Value(true)},
                        {"grade", Value(2)}});
  (void)rm.AddInstance("grand-hotel", "g2",
                       {{"floor", Value(8)}, {"view", Value(true)},
                        {"grade", Value(3)}});
  // Boutique B&B: adds 'breakfast'.
  Schema boutique({{"floor", ValueType::kInt, false},
                   {"view", ValueType::kBool, false},
                   {"breakfast", ValueType::kBool, false}});
  (void)rm.CreateInstanceClass("boutique-bnb", boutique);
  (void)rm.AddInstance("boutique-bnb", "r1",
                       {{"floor", Value(1)}, {"view", Value(true)},
                        {"breakfast", Value(true)}});

  PromiseManagerConfig config;
  config.name = "aggregator";
  PromiseManager manager(config, &clock, &rm, &tm, &transport);
  manager.RegisterService("booking", MakeBookingService());
  if (!manager
           .FederateClass("room",
                          {"budget-inn", "grand-hotel", "boutique-bnb"})
           .ok()) {
    return 1;
  }

  PromiseClient tour("tour-operator", &transport, "aggregator");
  PromiseClient foodie("foodie", &transport, "aggregator");

  std::printf("== one predicate, three providers ==\n");
  // Three view rooms exist across Grand (2) and Boutique (1).
  auto views = tour.TryRequest("count('room' where view == true) >= 4");
  std::printf("tour operator x4 views: %s\n",
              views.ok() && views->granted ? "granted (BUG!)" : "rejected");
  if (views.ok() && !views->counter_offer.empty()) {
    std::printf("  counter-offer: %s  <- headroom across ALL providers\n",
                views->counter_offer.c_str());
  }
  auto three = tour.Request("count('room' where view == true) >= 3");
  std::printf("tour operator x3 views: %s\n",
              three.ok() ? "granted" : "rejected");

  // 'breakfast' is only exported by the B&B — but its one room is now
  // promised to the tour operator.
  auto breakfast = foodie.TryRequest(
      "count('room' where breakfast == true) >= 1");
  std::printf("foodie (breakfast room): %s  <- only the B&B exports "
              "'breakfast', and its room is promised\n",
              breakfast.ok() && breakfast->granted ? "granted (BUG!)"
                                                   : "rejected");

  std::printf("\n== booking routes to the owning provider ==\n");
  ActionBody book;
  book.service = "booking";
  book.operation = "book";
  book.params["class"] = Value("room");
  book.params["count"] = Value(3);
  book.params["promise"] =
      Value(static_cast<int64_t>(three->id.value()));
  auto booked = tour.Act(book, {three->id}, /*release_after=*/true);
  if (booked.ok() && booked->ok) {
    std::printf("tour operator booked: %s\n",
                booked->outputs.at("booked").ToString().c_str());
  } else {
    std::printf("booking failed\n");
    return 1;
  }

  // With the B&B's room consumed, breakfast stays impossible; plain
  // floor-1 rooms (Budget Inn) are still promisable.
  auto floor1 = foodie.Request("count('room' where floor == 1) >= 1");
  std::printf("foodie (floor-1 room): %s\n",
              floor1.ok() ? "granted — Budget Inn b1" : "rejected (BUG?)");

  if (floor1.ok()) (void)foodie.Release({floor1->id});
  std::printf("\npromises outstanding: %zu\n", manager.active_promises());
  return manager.active_promises() == 0 ? 0 : 1;
}

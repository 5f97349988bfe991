// E4 — Grant rate of the §5 techniques on overlapping property
// predicates: allocated tags choose eagerly and never reconsider;
// tentative allocation rearranges; full satisfiability is the optimum.
//
// World: hotel with F floors x R rooms, properties floor/view/grade.
// Clients request 1-2 rooms matching random property conjunctions until
// the hotel is saturated; we count how many requests each technique
// grants (identical request streams).

#include <chrono>
#include <cstdio>
#include <deque>

#include "common/rng.h"
#include "core/promise_manager.h"
#include "core/tentative_engine.h"

using namespace promises;

namespace {

struct RequestSpec {
  Predicate predicate;
};

std::vector<RequestSpec> MakeRequests(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<RequestSpec> out;
  for (int i = 0; i < count; ++i) {
    ExprPtr expr;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        expr = Expr::Compare("floor", CompareOp::kEq,
                             Value(rng.UniformInt(1, 5)));
        break;
      case 1:
        expr = Expr::Compare("view", CompareOp::kEq, Value(true));
        break;
      case 2:
        expr = Expr::And(Expr::Compare("floor", CompareOp::kGe,
                                       Value(rng.UniformInt(2, 4))),
                         Expr::Compare("grade", CompareOp::kGe,
                                       Value(rng.UniformInt(1, 2))));
        break;
      default:
        expr = Expr::Or(Expr::Compare("floor", CompareOp::kEq,
                                      Value(rng.UniformInt(1, 5))),
                        Expr::Compare("view", CompareOp::kEq, Value(true)));
        break;
    }
    int64_t rooms = rng.Chance(0.3) ? 2 : 1;
    out.push_back({Predicate::Property("room", expr, rooms)});
  }
  return out;
}

struct RunResult {
  int granted = 0;
  uint64_t reallocations = 0;
};

RunResult Run(Technique technique, const std::vector<RequestSpec>& requests) {
  SimulatedClock clock;
  TransactionManager tm(5000);
  ResourceManager rm;
  Schema schema({{"floor", ValueType::kInt, false},
                 {"view", ValueType::kBool, false},
                 {"grade", ValueType::kInt, false}});
  (void)rm.CreateInstanceClass("room", schema);
  Rng rng(99);
  for (int floor = 1; floor <= 5; ++floor) {
    for (int r = 0; r < 8; ++r) {
      (void)rm.AddInstance(
          "room", std::to_string(floor * 100 + r),
          {{"floor", Value(floor)},
           {"view", Value(rng.Chance(0.4))},
           {"grade", Value(static_cast<int64_t>(rng.UniformInt(0, 2)))}});
    }
  }
  PromiseManagerConfig config;
  config.name = "hotel";
  config.default_duration_ms = 3'600'000;
  config.policy.Set("room", technique);
  PromiseManager pm(config, &clock, &rm, &tm);
  ClientId client = pm.ClientFor("bench");

  RunResult result;
  for (const RequestSpec& spec : requests) {
    auto out = pm.RequestPromise(client, {spec.predicate});
    if (out.ok() && out->accepted) ++result.granted;
  }
  if (technique == Technique::kTentative) {
    auto* engine = static_cast<TentativeEngine*>(pm.EngineIfExists("room"));
    if (engine != nullptr) result.reallocations = engine->reallocations();
  }
  return result;
}

// Cost of one tentative grant plus one release on a 256-room hotel
// with a window of held promises, the booking shape of the networked
// benchmark: each operation should cost what it changes, not a pass
// over the hotel.
double MicrosPerGrantRelease(int rooms, int window, int pairs) {
  SimulatedClock clock;
  TransactionManager tm(5000);
  ResourceManager rm;
  Schema schema({{"floor", ValueType::kInt, false},
                 {"view", ValueType::kBool, false},
                 {"grade", ValueType::kInt, false}});
  (void)rm.CreateInstanceClass("room", schema);
  for (int i = 0; i < rooms; ++i) {
    (void)rm.AddInstance("room", "room-" + std::to_string(1000 + i),
                         {{"floor", Value(1 + i % 8)},
                          {"view", Value((i / 8) % 3 != 2)},
                          {"grade", Value(1 + (i / 24) % 3)}});
  }
  PromiseManagerConfig config;
  config.name = "hotel";
  config.default_duration_ms = 3'600'000;
  config.policy.Set("room", Technique::kTentative);
  PromiseManager pm(config, &clock, &rm, &tm);
  ClientId client = pm.ClientFor("bench");
  const std::vector<Predicate> shapes = {
      Predicate::Property(
          "room",
          Expr::And(Expr::Compare("view", CompareOp::kEq, Value(true)),
                    Expr::Compare("floor", CompareOp::kGe, Value(2))),
          1),
      Predicate::Property("room",
                          Expr::Compare("floor", CompareOp::kGe, Value(5)),
                          1),
      Predicate::Property("room",
                          Expr::Compare("grade", CompareOp::kEq, Value(2)),
                          1),
  };
  std::deque<PromiseId> held;
  auto grant = [&](int i) {
    auto out = pm.RequestPromise(client, {shapes[i % shapes.size()]});
    if (out.ok() && out->accepted) held.push_back(out->promise_id);
  };
  for (int i = 0; i < window; ++i) grant(i);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < pairs; ++i) {
    grant(i);
    (void)pm.Release(client, {held.front()});
    held.pop_front();
  }
  std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / pairs;
}

}  // namespace

int main() {
  std::printf("E4: grant rate by technique — 40 rooms, overlapping "
              "property requests (40 requests per trial, 10 trials)\n\n");
  std::printf("%-16s %10s %10s %14s\n", "technique", "granted", "of",
              "reallocations");
  int total_requests = 0;
  int tag_total = 0, tentative_total = 0, sat_total = 0;
  uint64_t realloc_total = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto requests = MakeRequests(40, seed);
    total_requests += static_cast<int>(requests.size());
    tag_total += Run(Technique::kAllocatedTags, requests).granted;
    RunResult tentative = Run(Technique::kTentative, requests);
    tentative_total += tentative.granted;
    realloc_total += tentative.reallocations;
    sat_total += Run(Technique::kSatisfiability, requests).granted;
  }
  std::printf("%-16s %10d %10d %14s\n", "allocated-tags", tag_total,
              total_requests, "-");
  std::printf("%-16s %10d %10d %14llu\n", "tentative", tentative_total,
              total_requests,
              static_cast<unsigned long long>(realloc_total));
  std::printf("%-16s %10d %10d %14s\n", "satisfiability", sat_total,
              total_requests, "-");
  std::printf("\n%-16s %10.2f us per grant+release (256 rooms, 16 held)\n",
              "tentative", MicrosPerGrantRelease(256, 16, 20'000));
  std::printf("\nexpected shape: tags < tentative == satisfiability — "
              "augmenting-path reallocation makes the tentative engine "
              "exactly as admissive as a full satisfiability check, at "
              "incremental cost; eager tags leave grants on the "
              "table.\n");
  return 0;
}

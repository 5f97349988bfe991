// E2 — Promise-checking cost vs promise-table size (§8).
//
// The prototype's satisfiability check scans every relevant promise on
// each grant, so grant cost grows with the table; the §5 resource-pool
// (escrow counter) and allocated-tag techniques are O(1). This bench
// measures one grant+release cycle against a table preloaded with N
// live promises, for each technique.

#include <benchmark/benchmark.h>

#include "core/promise_manager.h"
#include "predicate/parser.h"

namespace promises {
namespace {

struct World {
  World(Technique technique, int64_t preload, bool named) {
    if (named) {
      Schema schema({{"idx", ValueType::kInt, false}});
      (void)rm.CreateInstanceClass("seat", schema);
      for (int64_t i = 0; i < preload + 8; ++i) {
        (void)rm.AddInstance("seat", "s" + std::to_string(i),
                             {{"idx", Value(i)}});
      }
    } else {
      (void)rm.CreatePool("stock", preload + 8);
    }
    PromiseManagerConfig config;
    config.name = "bench";
    config.default_duration_ms = 3'600'000;
    config.policy.Set(named ? "seat" : "stock", technique);
    pm = std::make_unique<PromiseManager>(config, &clock, &rm, &tm);
    client = pm->ClientFor("bench-client");
    // Preload N live promises.
    for (int64_t i = 0; i < preload; ++i) {
      std::string seat = std::string("s").append(std::to_string(i));
      Predicate p = named ? Predicate::Named("seat", seat)
                          : Predicate::Quantity("stock", CompareOp::kGe, 1);
      auto out = pm->RequestPromise(client, {p});
      if (!out.ok() || !out->accepted) std::abort();
    }
    spare = preload;  // instances beyond the preloaded ones
  }

  SimulatedClock clock;
  TransactionManager tm{5000};
  ResourceManager rm;
  std::unique_ptr<PromiseManager> pm;
  ClientId client;
  int64_t spare = 0;
};

void GrantReleaseCycle(benchmark::State& state, Technique technique,
                       bool named) {
  World world(technique, state.range(0), named);
  for (auto _ : state) {
    std::string seat = std::string("s").append(std::to_string(world.spare));
    Predicate p = named ? Predicate::Named("seat", seat)
                        : Predicate::Quantity("stock", CompareOp::kGe, 1);
    auto out = world.pm->RequestPromise(world.client, {p});
    if (!out.ok() || !out->accepted) {
      state.SkipWithError("grant failed");
      return;
    }
    (void)world.pm->Release(world.client, {out->promise_id});
  }
  state.SetLabel(std::string(TechniqueToString(technique)) + "/" +
                 (named ? "named" : "pool"));
}

void BM_PoolSatisfiability(benchmark::State& state) {
  GrantReleaseCycle(state, Technique::kSatisfiability, /*named=*/false);
}
void BM_PoolEscrow(benchmark::State& state) {
  GrantReleaseCycle(state, Technique::kResourcePool, /*named=*/false);
}
void BM_NamedSatisfiability(benchmark::State& state) {
  GrantReleaseCycle(state, Technique::kSatisfiability, /*named=*/true);
}
void BM_NamedTags(benchmark::State& state) {
  GrantReleaseCycle(state, Technique::kAllocatedTags, /*named=*/true);
}
void BM_NamedTentative(benchmark::State& state) {
  GrantReleaseCycle(state, Technique::kTentative, /*named=*/true);
}

BENCHMARK(BM_PoolSatisfiability)->Range(16, 4096);
BENCHMARK(BM_PoolEscrow)->Range(16, 4096);
BENCHMARK(BM_NamedSatisfiability)->Range(16, 1024);
BENCHMARK(BM_NamedTags)->Range(16, 1024);
BENCHMARK(BM_NamedTentative)->Range(16, 1024);

}  // namespace
}  // namespace promises

BENCHMARK_MAIN();

// Federated sharding tests (DESIGN.md §13): topology routing
// determinism, the manager-side shard guard, the single-shard fast
// path (zero WS-BA machinery, proven by span audit), cross-shard
// atomic grants with compensation on rejection, the twin-world
// coordinator-crash recovery between two shards' sub-grants, the
// TCP-lifecycle cluster, and the federated chaos workload (fixed and
// CI-randomized seeds).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/promise_manager.h"
#include "predicate/ast.h"
#include "protocol/fault_injector.h"
#include "protocol/transport.h"
#include "shard/cluster.h"
#include "shard/router.h"
#include "shard/topology.h"
#include "sim/shard_chaos.h"

namespace promises {
namespace {

Predicate Quantity(const std::string& pool, int64_t amount) {
  return Predicate::Quantity(pool, CompareOp::kGe, amount);
}

// ---------------------------------------------------------------
// Topology

TEST(ShardTopologyTest, RoutingIsDeterministicAcrossInstances) {
  auto a = ShardTopology::Create(1, {"s0", "s1", "s2", "s3"});
  auto b = ShardTopology::Create(1, {"s0", "s1", "s2", "s3"});
  ASSERT_TRUE(a.ok() && b.ok());
  for (const std::string cls :
       {"pool-a", "pool-b", "room", "pink-widget", "x"}) {
    ASSERT_TRUE(a->ShardOf(cls).ok());
    EXPECT_EQ(a->ShardOf(cls).value(), b->ShardOf(cls).value()) << cls;
    int shard = a->ShardOf(cls).value();
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(a->EndpointOf(cls).value(), "s" + std::to_string(shard));
  }
}

TEST(ShardTopologyTest, RoutingIsStableAcrossVersionBumps) {
  auto t = ShardTopology::Create(3, {"s0", "s1"});
  ASSERT_TRUE(t.ok());
  ShardTopology bumped = t->WithVersion(4);
  EXPECT_EQ(bumped.version(), 4u);
  for (const std::string cls : {"a", "b", "c", "d"}) {
    EXPECT_EQ(t->ShardOf(cls).value(), bumped.ShardOf(cls).value());
  }
}

TEST(ShardTopologyTest, OverridesAndTextRoundTrip) {
  auto t = ShardTopology::Create(7, {"s0", "s1", "s2"});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AddOverride("hot-pool", 2).ok());
  EXPECT_EQ(t->ShardOf("hot-pool").value(), 2);
  EXPECT_FALSE(t->AddOverride("bad", 9).ok());

  auto parsed = ShardTopology::Parse(t->ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version(), 7u);
  EXPECT_EQ(parsed->num_shards(), 3);
  EXPECT_EQ(parsed->ShardOf("hot-pool").value(), 2);
  for (const std::string cls : {"a", "b", "zz"}) {
    EXPECT_EQ(parsed->ShardOf(cls).value(), t->ShardOf(cls).value());
  }
}

TEST(ShardTopologyTest, RejectsBadInput) {
  EXPECT_FALSE(ShardTopology::Create(0, {"s0"}).ok());
  EXPECT_FALSE(ShardTopology::Create(1, {}).ok());
  EXPECT_FALSE(ShardTopology::Create(1, {"s0", "s0"}).ok());
  EXPECT_FALSE(ShardTopology::Create(1, {"a|b"}).ok());
  EXPECT_FALSE(ShardTopology::Parse("garbage").ok());
  EXPECT_FALSE(ShardTopology::Parse("v0|s0|").ok());
}

// ---------------------------------------------------------------
// Shared fixtures

struct LocalWorld {
  Transport transport;
  SystemClock clock;
  ShardTopology topology;
  std::unique_ptr<LocalShardCluster> cluster;
  OperationLog journal;
  std::string journal_path;
  ShardRouterOptions ropts;

  explicit LocalWorld(int shards, int64_t pool_quantity = 100,
                      FaultInjector* injector = nullptr) {
    std::vector<std::string> endpoints;
    for (int i = 0; i < shards; ++i) {
      endpoints.push_back("shard-" + std::to_string(i));
    }
    topology = ShardTopology::Create(1, endpoints).value();
    // Pin pool-s<i> to shard i: the fixtures name pools by the shard
    // meant to own them, which the hash placement can't know.
    for (int i = 0; i < shards; ++i) {
      EXPECT_TRUE(
          topology.AddOverride("pool-s" + std::to_string(i), i).ok());
    }
    if (injector != nullptr) transport.set_fault_injector(injector);
    LocalShardClusterOptions copts;
    copts.topology = topology;
    copts.clock = &clock;
    copts.transport = &transport;
    copts.define_resources = [pool_quantity](ResourceManager& rm, int shard) {
      ASSERT_TRUE(
          rm.CreatePool("pool-s" + std::to_string(shard), pool_quantity)
              .ok());
    };
    cluster = LocalShardCluster::Start(std::move(copts)).value();

    journal_path = "/tmp/promises_shard_test_" +
                   std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(journal_path.c_str());
    EXPECT_TRUE(journal.Open(journal_path).ok());

    ropts.name = "router";
    ropts.topology = topology;
    ropts.channels = cluster->Channels();
    ropts.control = &transport;
    ropts.clock = &clock;
    ropts.log = &journal;
    ropts.log_path = journal_path;
    if (injector != nullptr) ropts.crash_points = injector;
  }

  ~LocalWorld() { std::remove(journal_path.c_str()); }

  std::string Pool(int shard) const {
    return "pool-s" + std::to_string(shard);
  }

  /// True when the full pool is grantable on `shard` — no outstanding
  /// reservation leaked.
  void ExpectNoLeak(ShardRouter* router, int shard, int64_t quantity) {
    Result<RoutedGrant> probe =
        router->Request({Quantity(Pool(shard), quantity)}, 5'000);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_TRUE(probe->granted)
        << "shard " << shard << " leaked: " << probe->reject_reason;
    if (probe->granted) {
      EXPECT_TRUE(router->Release(*probe).ok());
    }
  }
};

// ---------------------------------------------------------------
// Shard guard

TEST(ShardGuardTest, RejectsWrongShardAndStaleTopology) {
  LocalWorld world(2);
  ShardRouter router(world.ropts);

  // Well-routed request sails through.
  Result<RoutedGrant> ok = router.Request({Quantity(world.Pool(0), 5)});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->granted);

  // Hand-build a misrouted envelope: planned for shard 0, sent to 1.
  Envelope wrong;
  wrong.message_id = world.transport.NextMessageId();
  wrong.from = "meddler";
  wrong.to = world.topology.endpoint(1);
  RouteHeader route;
  route.shard = 0;
  route.topology_version = 1;
  wrong.route = route;
  PromiseRequestHeader req;
  req.predicates = {Quantity(world.Pool(1), 1)};
  req.duration_ms = 1'000;
  wrong.promise_request = req;
  Result<Envelope> reply = world.transport.Send(wrong);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);

  // Stale topology version: right shard, wrong plan epoch.
  Envelope stale = wrong;
  stale.message_id = world.transport.NextMessageId();
  stale.route->shard = 1;
  stale.route->topology_version = 99;
  reply = world.transport.Send(stale);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);

  // Unrouted envelopes (no <route> header) pass the guard untouched.
  Envelope unrouted = wrong;
  unrouted.message_id = world.transport.NextMessageId();
  unrouted.to = world.topology.endpoint(1);
  unrouted.route.reset();
  reply = world.transport.Send(unrouted);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  EXPECT_TRUE(router.Release(*ok).ok());
}

// ---------------------------------------------------------------
// Fast path

TEST(ShardFastPathTest, SingleShardGrantTakesZeroWsbaActivity) {
  LocalWorld world(4);
  ShardRouter router(world.ropts);

  const double prior = Tracer::Global().sampling();
  SpanCollector::Global().Reset();
  Tracer::Global().set_sampling(1.0);

  Result<RoutedGrant> grant = router.Request({Quantity(world.Pool(2), 7)});
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  EXPECT_TRUE(grant->granted);
  EXPECT_FALSE(grant->federated);
  EXPECT_EQ(grant->activity, 0u);
  ASSERT_EQ(grant->promises.size(), 1u);
  EXPECT_EQ(grant->promises.begin()->first,
            world.topology.ShardOf(world.Pool(2)).value());
  EXPECT_TRUE(router.Release(*grant).ok());

  Tracer::Global().set_sampling(prior);
  std::vector<Span> spans = SpanCollector::Global().Drain();
  ASSERT_FALSE(spans.empty());
  bool saw_fast = false;
  for (const Span& span : spans) {
    EXPECT_NE(span.name.rfind("wsba-", 0), 0u)
        << "fast path touched WS-BA machinery: span " << span.name;
    EXPECT_NE(span.name.rfind("fedgrant", 0), 0u)
        << "fast path entered the federated coordinator: " << span.name;
    if (span.name == "shard-fast-grant") saw_fast = true;
  }
  EXPECT_TRUE(saw_fast);
  EXPECT_EQ(router.stats().fast_path_grants, 1u);
  EXPECT_EQ(router.stats().federated_grants, 0u);
}

// ---------------------------------------------------------------
// Federated grants

TEST(FederatedGrantTest, CrossShardGrantIsAtomicAndReleasable) {
  LocalWorld world(2, /*pool_quantity=*/50);
  ShardRouter router(world.ropts);

  Result<RoutedGrant> grant = router.Request(
      {Quantity(world.Pool(0), 10), Quantity(world.Pool(1), 20)});
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  ASSERT_TRUE(grant->granted) << grant->reject_reason;
  EXPECT_TRUE(grant->federated);
  EXPECT_GT(grant->activity, 0u);
  ASSERT_EQ(grant->promises.size(), 2u);
  ASSERT_EQ(grant->promises.at(0).size(), 1u);
  ASSERT_EQ(grant->promises.at(1).size(), 1u);

  // The reservations really hold on both shards: full-pool probes must
  // reject while the grant stands.
  Result<RoutedGrant> blocked = router.Request({Quantity(world.Pool(0), 50)});
  ASSERT_TRUE(blocked.ok());
  EXPECT_FALSE(blocked->granted);

  EXPECT_TRUE(router.Release(*grant).ok());
  world.ExpectNoLeak(&router, 0, 50);
  world.ExpectNoLeak(&router, 1, 50);

  auto tally = router.federated()->tally();
  EXPECT_EQ(tally.closed, 1u);
  EXPECT_EQ(tally.mixed, 0u);
  EXPECT_TRUE(router.federated()->Unresolved().empty());
}

TEST(FederatedGrantTest, RejectionCompensatesEarlierShards) {
  LocalWorld world(2, /*pool_quantity=*/50);
  ShardRouter router(world.ropts);

  // Shard 1 cannot satisfy 60 of 50: shard 0's sub-grant (10) must be
  // compensated away, leaving no residue.
  Result<RoutedGrant> grant = router.Request(
      {Quantity(world.Pool(0), 10), Quantity(world.Pool(1), 60)});
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  EXPECT_FALSE(grant->granted);
  EXPECT_TRUE(grant->federated);
  EXPECT_FALSE(grant->reject_reason.empty());

  world.ExpectNoLeak(&router, 0, 50);
  world.ExpectNoLeak(&router, 1, 50);
  auto tally = router.federated()->tally();
  EXPECT_EQ(tally.compensated, 1u);
  EXPECT_EQ(tally.closed, 0u);
}

TEST(FederatedGrantTest, ConcurrentGrantsAndCompensationsStayAtomic) {
  // Grants, releases and compensations from 4 threads at once. The
  // router never holds its lock across a WS-BA call, so this is also
  // the TSan check for the router <-> participant lock order.
  LocalWorld world(2, /*pool_quantity=*/50);
  ShardRouter router(world.ropts);
  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        // Every other request asks shard 1 for more than it holds, so
        // shard 0's sub-grant is compensated.
        const bool reject = (i + t) % 2 == 1;
        Result<RoutedGrant> grant = router.Request(
            {Quantity(world.Pool(0), 1),
             Quantity(world.Pool(1), reject ? 60 : 1)});
        if (!grant.ok() || grant->granted == reject) {
          failures.fetch_add(1);
          continue;
        }
        if (grant->granted && !router.Release(*grant).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  world.ExpectNoLeak(&router, 0, 50);
  world.ExpectNoLeak(&router, 1, 50);
  auto tally = router.federated()->tally();
  EXPECT_EQ(tally.closed, kThreads * kRounds / 2u);
  EXPECT_EQ(tally.compensated, kThreads * kRounds / 2u);
  EXPECT_EQ(tally.mixed, 0u);
  EXPECT_TRUE(router.federated()->Unresolved().empty());
}

TEST(FederatedGrantTest, TwinWorldRecoversFromCrashBetweenSubGrants) {
  for (const char* point :
       {"fedgrant-pre-subgrant", "fedgrant-post-subgrant"}) {
    SCOPED_TRACE(point);
    FaultInjector injector(1234);
    LocalWorld world(2, /*pool_quantity=*/50, &injector);
    auto router = std::make_unique<ShardRouter>(world.ropts);

    // Crash between the first and second shard's sub-grant: passage 2
    // of pre-subgrant fires before shard 1's send; passage 2 of
    // post-subgrant fires after shard 1's grant is journaled.
    injector.InjectCrashAt(point, 2);
    Result<RoutedGrant> grant = router->Request(
        {Quantity(world.Pool(0), 10), Quantity(world.Pool(1), 10)});
    ASSERT_FALSE(grant.ok());
    EXPECT_EQ(grant.status().code(), StatusCode::kUnavailable);
    EXPECT_TRUE(router->crashed());
    // A crashed router refuses further work.
    EXPECT_FALSE(router->Request({Quantity(world.Pool(0), 1)}).ok());

    // Twin world: destroy the corpse FIRST, then recover from the
    // shared journal.
    router.reset();
    router = std::make_unique<ShardRouter>(world.ropts);
    Result<FederatedGrantCoordinator::RecoveryReport> report =
        router->federated()->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->worlds_rebuilt, 1u);
    EXPECT_EQ(report->wsba.presumed_abort, 1u);
    EXPECT_EQ(router->federated()->ReDriveUnresolved(4), 0u);

    // The undecided activity was presumed aborted: every sub-grant
    // that landed anywhere is released — full pools everywhere.
    world.ExpectNoLeak(router.get(), 0, 50);
    world.ExpectNoLeak(router.get(), 1, 50);

    // And the twin serves fresh traffic, including federated grants.
    Result<RoutedGrant> fresh = router->Request(
        {Quantity(world.Pool(0), 5), Quantity(world.Pool(1), 5)});
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_TRUE(fresh->granted) << fresh->reject_reason;
    EXPECT_TRUE(router->Release(*fresh).ok());
  }
}

// ---------------------------------------------------------------
// TCP cluster

TEST(TcpShardClusterTest, RoutedGrantsOverRealSockets) {
  TcpShardClusterOptions copts;
  copts.topology = ShardTopology::Create(1, {"tcp-s0", "tcp-s1"}).value();
  ASSERT_TRUE(copts.topology.AddOverride("pool-s0", 0).ok());
  ASSERT_TRUE(copts.topology.AddOverride("pool-s1", 1).ok());
  copts.data_dir = "/tmp";
  copts.name = "shard_test_tcp_" + std::to_string(::getpid());
  copts.define_resources = [](ResourceManager& rm, int shard) {
    ASSERT_TRUE(
        rm.CreatePool("pool-s" + std::to_string(shard), 40).ok());
  };
  Result<std::unique_ptr<TcpShardCluster>> cluster =
      TcpShardCluster::Start(std::move(copts));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  Transport control;
  std::string journal_path =
      "/tmp/promises_shard_tcp_" + std::to_string(::getpid()) + ".log";
  std::remove(journal_path.c_str());
  OperationLog journal;
  ASSERT_TRUE(journal.Open(journal_path).ok());

  ShardRouterOptions ropts;
  ropts.name = "tcp-router";
  ropts.topology = (*cluster)->topology();
  ropts.channels = (*cluster)->Channels().value();
  ropts.control = &control;
  ropts.log = &journal;
  ropts.log_path = journal_path;
  ShardRouter router(ropts);

  // Fast path over the wire (the <route> header survives XML).
  Result<RoutedGrant> grant = router.Request({Quantity("pool-s0", 7)});
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  EXPECT_TRUE(grant->granted) << grant->reject_reason;
  EXPECT_TRUE(router.Release(*grant).ok());

  // Federated across two real servers.
  Result<RoutedGrant> fed =
      router.Request({Quantity("pool-s0", 5), Quantity("pool-s1", 5)});
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  EXPECT_TRUE(fed->granted) << fed->reject_reason;
  EXPECT_TRUE(fed->federated);
  EXPECT_TRUE(router.Release(*fed).ok());

  // Full pools after release: nothing leaked across the sockets.
  Result<RoutedGrant> probe =
      router.Request({Quantity("pool-s0", 40), Quantity("pool-s1", 40)});
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe->granted) << probe->reject_reason;
  EXPECT_TRUE(router.Release(*probe).ok());

  EXPECT_TRUE((*cluster)->StopAll().ok());
  std::remove(journal_path.c_str());
}

// ---------------------------------------------------------------
// Chaos workload

ShardChaosConfig ChaosAcceptanceConfig(uint64_t seed) {
  ShardChaosConfig config;
  config.shards = 3;
  config.workers = 4;
  config.orders_per_worker = 15;
  config.cross_shard_fraction = 0.35;
  config.pool_quantity = 24;
  config.faults.drop_request = 0.05;
  config.faults.drop_reply = 0.05;
  config.faults.duplicate = 0.05;
  config.crash_rounds = 3;
  config.seed = seed;
  return config;
}

void ExpectCleanShardRun(const ShardChaosReport& report, uint64_t seed) {
  for (const std::string& v : report.violations) {
    ADD_FAILURE() << "violation (seed " << seed << "): " << v;
  }
  EXPECT_TRUE(report.ok()) << "seed " << seed << "\n"
                           << FormatShardChaosReport(report);
  EXPECT_EQ(report.AtomicConsistency(), 1.0)
      << FormatShardChaosReport(report);
  EXPECT_EQ(report.fed_unresolved, 0u);
  EXPECT_EQ(report.fed_mixed, 0u);
}

TEST(ShardChaosTest, FederatedWorkloadSurvivesFaultsAndRouterCrashes) {
  const uint64_t seed = 42;
  ShardChaosReport report = RunShardChaosWorkload(ChaosAcceptanceConfig(seed));
  ExpectCleanShardRun(report, seed);
  EXPECT_EQ(report.orders, 60u);
  EXPECT_GT(report.federated_orders, 0u);
  EXPECT_GT(report.single_shard_orders, 0u);
  EXPECT_GT(report.granted, 0u);
  EXPECT_GT(report.faults.total_faults(), 0u);
  EXPECT_EQ(report.crash_rounds_run, 3u);
  EXPECT_GT(report.crashes_fired, 0u);
  EXPECT_GT(report.presumed_aborts, 0u);
}

TEST(ShardChaosTest, RandomizedSeedStaysAtomic) {
  // CI sets PROMISES_CHAOS_SEED to a fresh value each run; locally the
  // fallback keeps the test deterministic.
  uint64_t seed = 20260809;
  if (const char* env = std::getenv("PROMISES_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("PROMISES_CHAOS_SEED=" + std::to_string(seed));
  ShardChaosReport report = RunShardChaosWorkload(ChaosAcceptanceConfig(seed));
  ExpectCleanShardRun(report, seed);
}

}  // namespace
}  // namespace promises

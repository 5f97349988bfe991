// Tests for exactly-once request processing: the promise manager's
// idempotency table must replay the cached reply envelope for
// duplicate (client, message id) deliveries — across transport-level
// duplication, client retries after lost replies, and crash recovery.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/promise_manager.h"
#include "protocol/fault_injector.h"
#include "service/client.h"
#include "service/services.h"

namespace promises {
namespace {

struct DedupWorld {
  SystemClock clock;
  TransactionManager tm{100};
  ResourceManager rm;
  Transport transport;
  std::unique_ptr<PromiseManager> pm;

  explicit DedupWorld(size_t dedup_capacity = 4096) {
    (void)rm.CreatePool("stock", 50);
    PromiseManagerConfig config;
    config.name = "dedup-pm";
    config.default_duration_ms = 600'000;
    config.dedup_capacity = dedup_capacity;
    pm = std::make_unique<PromiseManager>(config, &clock, &rm, &tm,
                                          &transport);
    pm->RegisterService("inventory", MakeInventoryService());
  }
};

Envelope RequestEnvelope(uint64_t message_id, const std::string& from,
                         int64_t quantity) {
  Envelope env;
  env.message_id = MessageId(message_id);
  env.from = from;
  env.to = "dedup-pm";
  PromiseRequestHeader req;
  req.request_id = RequestId(1);
  req.predicates.push_back(
      Predicate::Quantity("stock", CompareOp::kGe, quantity));
  env.promise_request = std::move(req);
  return env;
}

TEST(IdempotencyTest, DuplicateRequestReplaysCachedReply) {
  DedupWorld world;
  Envelope env = RequestEnvelope(7, "client-a", 10);

  auto first = world.pm->Handle(env);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->promise_response.has_value());
  ASSERT_EQ(first->promise_response->result, PromiseResultCode::kAccepted);
  PromiseId original = first->promise_response->promise_id;

  auto second = world.pm->Handle(env);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->promise_response.has_value());
  EXPECT_EQ(second->promise_response->promise_id, original);

  // Processed once: one grant, one active promise, one replayed reply.
  PromiseManagerStats stats = world.pm->stats();
  EXPECT_EQ(stats.granted, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.duplicates_replayed, 1u);
  EXPECT_EQ(world.pm->active_promises(), 1u);
}

TEST(IdempotencyTest, DistinctMessageIdsAreDistinctRequests) {
  DedupWorld world;
  auto a = world.pm->Handle(RequestEnvelope(1, "client-a", 10));
  auto b = world.pm->Handle(RequestEnvelope(2, "client-a", 10));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->promise_response->promise_id, b->promise_response->promise_id);
  EXPECT_EQ(world.pm->stats().granted, 2u);
}

TEST(IdempotencyTest, SameMessageIdDifferentClientsNotDeduped) {
  DedupWorld world;
  auto a = world.pm->Handle(RequestEnvelope(1, "client-a", 10));
  auto b = world.pm->Handle(RequestEnvelope(1, "client-b", 10));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->promise_response->promise_id, b->promise_response->promise_id);
  EXPECT_EQ(world.pm->stats().duplicates_replayed, 0u);
}

TEST(IdempotencyTest, TableEvictsFifoAtCapacity) {
  DedupWorld world(/*dedup_capacity=*/2);
  auto first = world.pm->Handle(RequestEnvelope(1, "client-a", 1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(world.pm->Handle(RequestEnvelope(2, "client-a", 1)).ok());
  ASSERT_TRUE(world.pm->Handle(RequestEnvelope(3, "client-a", 1)).ok());

  // Message 1 was evicted: its "retry" re-executes and grants anew.
  auto replayed = world.pm->Handle(RequestEnvelope(1, "client-a", 1));
  ASSERT_TRUE(replayed.ok());
  EXPECT_NE(replayed->promise_response->promise_id,
            first->promise_response->promise_id);
  EXPECT_EQ(world.pm->stats().duplicates_replayed, 0u);
  EXPECT_EQ(world.pm->stats().granted, 4u);

  // Message 3 is still cached.
  auto cached = world.pm->Handle(RequestEnvelope(3, "client-a", 1));
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(world.pm->stats().duplicates_replayed, 1u);
}

TEST(IdempotencyTest, ZeroCapacityDisablesDedup) {
  DedupWorld world(/*dedup_capacity=*/0);
  ASSERT_TRUE(world.pm->Handle(RequestEnvelope(1, "client-a", 1)).ok());
  ASSERT_TRUE(world.pm->Handle(RequestEnvelope(1, "client-a", 1)).ok());
  EXPECT_EQ(world.pm->stats().granted, 2u);
  EXPECT_EQ(world.pm->stats().duplicates_replayed, 0u);
}

TEST(IdempotencyTest, TransportDuplicateDeliveryGrantsOnce) {
  DedupWorld world;
  FaultConfig config;
  config.duplicate = 1.0;  // every delivery duplicated
  FaultInjector injector(3);
  injector.Configure(config);
  world.transport.set_fault_injector(&injector);

  auto reply = world.transport.Send(RequestEnvelope(9, "client-a", 10));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->promise_response.has_value());
  EXPECT_EQ(reply->promise_response->result, PromiseResultCode::kAccepted);

  // The second delivery hit the cache, not the grant path.
  PromiseManagerStats stats = world.pm->stats();
  EXPECT_EQ(stats.granted, 1u);
  EXPECT_EQ(stats.duplicates_replayed, 1u);
  EXPECT_EQ(world.pm->active_promises(), 1u);
}

TEST(IdempotencyTest, ReplyLostRetryReturnsOriginalPromiseId) {
  DedupWorld world;
  FaultInjector injector(3);
  FaultConfig lose_reply;
  lose_reply.drop_reply = 1.0;
  injector.Configure(lose_reply);
  world.transport.set_fault_injector(&injector);

  // The grant happens server-side but the reply is lost in transit.
  Envelope env = RequestEnvelope(21, "client-a", 10);
  auto first = world.transport.Send(env);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(world.pm->stats().granted, 1u);

  // The retry MUST resend the identical envelope; it gets the
  // original promise id from the idempotency table.
  injector.Configure(FaultConfig{});
  auto retry = world.transport.Send(env);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ASSERT_TRUE(retry->promise_response.has_value());
  PromiseId id = retry->promise_response->promise_id;
  EXPECT_NE(world.pm->FindPromise(id), nullptr);
  EXPECT_EQ(world.pm->stats().granted, 1u);
  EXPECT_EQ(world.pm->stats().duplicates_replayed, 1u);
}

TEST(IdempotencyTest, ClientRetryLoopIsExactlyOnceEndToEnd) {
  DedupWorld world;
  // Find a seed whose first decision loses the reply and whose second
  // delivers, so the client's automatic retry succeeds.
  FaultConfig config;
  config.drop_reply = 0.5;
  uint64_t seed = 0;
  for (uint64_t candidate = 1; candidate < 1'000; ++candidate) {
    FaultInjector probe(candidate);
    probe.Configure(config);
    if (probe.Decide().action == FaultAction::kDropReply &&
        probe.Decide().action == FaultAction::kDeliver) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u);
  FaultInjector injector(seed);
  injector.Configure(config);
  world.transport.set_fault_injector(&injector);

  PromiseClient client("retry-client", &world.transport, "dedup-pm");
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  client.set_retry_policy(policy, 7);

  auto grant = client.Request("quantity('stock') >= 10");
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(world.pm->stats().granted, 1u);
  EXPECT_EQ(world.pm->stats().duplicates_replayed, 1u);
  EXPECT_NE(world.pm->FindPromise(grant->id), nullptr);
  EXPECT_EQ(world.transport.stats().retries, 1u);
}

TEST(IdempotencyTest, InFlightDuplicateRefusedRetryably) {
  DedupWorld world;
  // A service that parks inside the manager until released, so a
  // concurrent duplicate finds the original still in progress.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  world.pm->RegisterService(
      "slow", [&](ActionContext*, const std::string&,
                  const std::map<std::string, Value>&)
                  -> Result<std::map<std::string, Value>> {
        {
          std::lock_guard<std::mutex> lk(mu);
          entered = true;
        }
        cv.notify_all();
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return release; });
        return std::map<std::string, Value>{};
      });

  Envelope env;
  env.message_id = MessageId(50);
  env.from = "client-a";
  env.to = "dedup-pm";
  ActionBody slow;
  slow.service = "slow";
  slow.operation = "wait";
  env.action = std::move(slow);

  Result<Envelope> first = Status::Internal("unset");
  std::thread original([&] { first = world.pm->Handle(env); });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered; });
  }

  auto duplicate = world.pm->Handle(env);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kUnavailable);

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  original.join();
  ASSERT_TRUE(first.ok());

  // Once the original completes, the retry is served from the cache.
  auto retry = world.pm->Handle(env);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(world.pm->stats().duplicates_replayed, 1u);
}

TEST(IdempotencyTest, DuplicateDuringDurableWaitIsRefused) {
  // The original's reply is in the dedup table from its sequencing
  // point on, but its record is not durable until the group flushes.
  // A duplicate arriving in that window must be refused retryably,
  // never answered with the not-yet-durable reply.
  std::string log_path =
      "/tmp/promises_dedup_durable_wait_" +
      std::to_string(reinterpret_cast<uintptr_t>(&log_path)) + ".log";
  std::remove(log_path.c_str());
  SimulatedClock clock{0};
  TransactionManager tm{100};
  ResourceManager rm;
  (void)rm.CreatePool("stock", 50);
  PromiseManagerConfig config;
  config.name = "dedup-pm";
  PromiseManager pm(config, &clock, &rm, &tm);
  OperationLog log;
  ASSERT_TRUE(log.Open(log_path).ok());
  GroupCommitConfig group;
  group.max_batch = 1024;  // never fills: only the delay flushes
  group.max_delay_ms = 50;
  ASSERT_TRUE(log.StartGroupCommit(group, &clock).ok());
  ASSERT_TRUE(pm.AttachLog(&log).ok());

  Envelope env = RequestEnvelope(90, "client-a", 10);
  Result<Envelope> first = Status::Internal("unset");
  std::thread original([&] { first = pm.Handle(env); });
  // Wait until the original is sequenced, then give it time to reach
  // its durable wait (the simulated clock holds the group open).
  while (log.CutPoint()->sequence == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto duplicate = pm.Handle(env);
  clock.Advance(51);
  original.join();
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(first.ok());
  auto retry = pm.Handle(env);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->promise_response->promise_id,
            first->promise_response->promise_id);
  EXPECT_EQ(pm.stats().granted, 1u);
  log.Close();
  std::remove(log_path.c_str());
}

// The acceptance scenario: a granted-but-reply-lost request whose
// retry arrives only after the manager crashed and recovered from its
// oplog must still return the original promise id.
TEST(IdempotencyTest, DedupSurvivesCrashAndReplay) {
  std::string log_path =
      "/tmp/promises_dedup_crash_" +
      std::to_string(reinterpret_cast<uintptr_t>(&log_path)) + ".log";
  std::remove(log_path.c_str());

  PromiseId original;
  {
    SimulatedClock clock{0};
    TransactionManager tm{100};
    ResourceManager rm;
    (void)rm.CreatePool("stock", 50);
    PromiseManagerConfig config;
    config.name = "dedup-pm";
    PromiseManager pm(config, &clock, &rm, &tm);
    pm.RegisterService("inventory", MakeInventoryService());
    OperationLog log;
    ASSERT_TRUE(log.Open(log_path).ok());
    ASSERT_TRUE(pm.AttachLog(&log).ok());

    auto reply = pm.Handle(RequestEnvelope(77, "client-a", 10));
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->promise_response->result, PromiseResultCode::kAccepted);
    original = reply->promise_response->promise_id;
    // The reply is lost on its way back; then the manager dies.
  }

  SimulatedClock clock{0};
  TransactionManager tm{100};
  ResourceManager rm;
  (void)rm.CreatePool("stock", 50);
  PromiseManagerConfig config;
  config.name = "dedup-pm";
  PromiseManager pm(config, &clock, &rm, &tm);
  pm.RegisterService("inventory", MakeInventoryService());
  auto records = OperationLog::ReadAll(log_path);
  ASSERT_TRUE(records.ok());
  ASSERT_TRUE(pm.ReplayLog(*records, &clock).ok());

  // The client retries the identical envelope against the recovered
  // manager: same promise id, no second grant.
  auto retry = pm.Handle(RequestEnvelope(77, "client-a", 10));
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE(retry->promise_response.has_value());
  EXPECT_EQ(retry->promise_response->promise_id, original);
  EXPECT_EQ(pm.stats().granted, 1u);  // replay's grant, not a new one
  EXPECT_EQ(pm.stats().duplicates_replayed, 1u);
  EXPECT_EQ(pm.active_promises(), 1u);
  std::remove(log_path.c_str());
}

// Direct-API operations synthesize log envelopes with message id 0;
// two of them from the same client must both replay (id 0 is exempt
// from deduplication).
TEST(IdempotencyTest, DirectApiLogRecordsReplayWithoutDedup) {
  std::string log_path =
      "/tmp/promises_dedup_direct_" +
      std::to_string(reinterpret_cast<uintptr_t>(&log_path)) + ".log";
  std::remove(log_path.c_str());

  PromiseId id1, id2;
  {
    SimulatedClock clock{0};
    TransactionManager tm{100};
    ResourceManager rm;
    (void)rm.CreatePool("stock", 50);
    PromiseManagerConfig config;
    config.name = "dedup-pm";
    PromiseManager pm(config, &clock, &rm, &tm);
    pm.RegisterService("inventory", MakeInventoryService());
    OperationLog log;
    ASSERT_TRUE(log.Open(log_path).ok());
    ASSERT_TRUE(pm.AttachLog(&log).ok());
    ClientId client = pm.ClientFor("direct");

    auto g1 = pm.RequestPromise(
        client, {Predicate::Quantity("stock", CompareOp::kGe, 5)});
    auto g2 = pm.RequestPromise(
        client, {Predicate::Quantity("stock", CompareOp::kGe, 7)});
    ASSERT_TRUE(g1.ok() && g1->accepted);
    ASSERT_TRUE(g2.ok() && g2->accepted);
    id1 = g1->promise_id;
    id2 = g2->promise_id;
  }

  SimulatedClock clock{0};
  TransactionManager tm{100};
  ResourceManager rm;
  (void)rm.CreatePool("stock", 50);
  PromiseManagerConfig config;
  config.name = "dedup-pm";
  PromiseManager pm(config, &clock, &rm, &tm);
  pm.RegisterService("inventory", MakeInventoryService());
  auto records = OperationLog::ReadAll(log_path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  ASSERT_TRUE(pm.ReplayLog(*records, &clock).ok());

  // Both grants replayed — the second was NOT swallowed as a
  // "duplicate" of the first.
  EXPECT_EQ(pm.active_promises(), 2u);
  EXPECT_NE(pm.FindPromise(id1), nullptr);
  EXPECT_NE(pm.FindPromise(id2), nullptr);
  EXPECT_EQ(pm.stats().duplicates_replayed, 0u);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace promises

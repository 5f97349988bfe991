// Concurrency tests for striped operation locking: multi-threaded
// grant/act/release stress over shared pools (resource conservation, no
// late promise violations), multi-class lock ordering, expiry racing
// live traffic, raw lock-manager stripe stress and the latency-recorder
// sort-invalidation regression. The stress tests here are the TSan
// targets wired up in scripts/ci.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/promise_manager.h"
#include "predicate/parser.h"
#include "service/services.h"
#include "sim/metrics.h"
#include "txn/lock_manager.h"

namespace promises {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 50;

class ConcurrentStressTest : public ::testing::Test {
 protected:
  static constexpr int kPools = 4;
  static constexpr int64_t kInitialStock = 100'000;

  void SetUp() override {
    for (int i = 0; i < kPools; ++i) {
      ASSERT_TRUE(rm_.CreatePool(Pool(i), kInitialStock).ok());
    }
    PromiseManagerConfig config;
    config.name = "stress-pm";
    config.default_duration_ms = 60'000;
    pm_ = std::make_unique<PromiseManager>(config, &clock_, &rm_, &tm_);
    pm_->RegisterService("inventory", MakeInventoryService());
  }

  static std::string Pool(int i) { return "item-" + std::to_string(i); }

  std::vector<Predicate> Quantity(int pool, int64_t n) {
    auto preds = ParsePredicateList("quantity('" + Pool(pool) + "') >= " +
                                    std::to_string(n));
    EXPECT_TRUE(preds.ok()) << preds.status().ToString();
    return *preds;
  }

  int64_t Remaining(int pool) {
    auto txn = tm_.Begin();
    return *rm_.GetQuantity(txn.get(), Pool(pool));
  }

  SimulatedClock clock_{1'000'000};
  TransactionManager tm_{5'000};
  ResourceManager rm_;
  std::unique_ptr<PromiseManager> pm_;
};

// Satellite 4: threads hammer shared pools with the full promise
// lifecycle — grant, consume under the promise, release-after. The
// promised amounts sum far beyond any single thread's view, so stale
// reads would show up as conservation failures or post-action promise
// violations.
TEST_F(ConcurrentStressTest, GrantActReleaseConservesResources) {
  std::atomic<int64_t> purchased[kPools] = {};
  std::atomic<int> infra_errors{0};

  auto worker = [&](int t) {
    ClientId client = pm_->ClientFor("stress-" + std::to_string(t));
    for (int i = 0; i < kItersPerThread; ++i) {
      int pool = (t + i) % kPools;
      int64_t quantity = 1 + (t * kItersPerThread + i) % 5;
      Result<GrantOutcome> grant =
          pm_->RequestPromise(client, Quantity(pool, quantity));
      if (!grant.ok()) {
        ++infra_errors;
        continue;
      }
      if (!grant->accepted) continue;  // contention rejection is fine

      ActionBody action;
      action.service = "inventory";
      action.operation = "purchase";
      action.params["item"] = Value(Pool(pool));
      action.params["quantity"] = Value(quantity);
      action.params["promise"] =
          Value(static_cast<int64_t>(grant->promise_id.value()));
      EnvironmentHeader env;
      env.entries.push_back({grant->promise_id, /*release_after=*/true});
      Result<ActionOutcome> out = pm_->Execute(client, action, env);
      if (!out.ok()) {
        ++infra_errors;
        continue;
      }
      if (out->ok) {
        purchased[pool].fetch_add(quantity);
      } else {
        // The action failed logically; the promise is still held.
        // Release it so the final accounting only sees consumption.
        Status rel = pm_->Release(client, {grant->promise_id});
        if (!rel.ok()) ++infra_errors;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(infra_errors.load(), 0);
  for (int pool = 0; pool < kPools; ++pool) {
    EXPECT_EQ(Remaining(pool), kInitialStock - purchased[pool].load())
        << "pool " << pool << " lost or duplicated units";
  }
  // Every accepted promise was consumed (release-after) or released.
  EXPECT_EQ(pm_->active_promises(), 0u);
  // Promised, covered consumption must never trip the post-action
  // check: a violation here means two operations raced on one pool.
  EXPECT_EQ(pm_->stats().violations_rolled_back, 0u);
}

// Multi-predicate requests lock their class stripes in sorted order no
// matter how the client ordered the predicates, so crossing class sets
// must not deadlock on the planned path.
TEST_F(ConcurrentStressTest, MultiClassGrantsDoNotDeadlock) {
  std::atomic<int> infra_errors{0};

  auto worker = [&](int t) {
    ClientId client = pm_->ClientFor("multi-" + std::to_string(t));
    for (int i = 0; i < kItersPerThread; ++i) {
      // Adjacent pool pairs, half the threads in reversed order.
      int a = (t + i) % kPools;
      int b = (a + 1) % kPools;
      if (t % 2 == 1) std::swap(a, b);
      auto preds = ParsePredicateList(
          "quantity('" + Pool(a) + "') >= 2; quantity('" + Pool(b) +
          "') >= 3");
      ASSERT_TRUE(preds.ok());
      Result<GrantOutcome> grant = pm_->RequestPromise(client, *preds);
      if (!grant.ok()) {
        ++infra_errors;
        continue;
      }
      if (grant->accepted) {
        if (!pm_->Release(client, {grant->promise_id}).ok()) ++infra_errors;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(infra_errors.load(), 0);
  EXPECT_EQ(pm_->active_promises(), 0u);
  for (int pool = 0; pool < kPools; ++pool) {
    EXPECT_EQ(Remaining(pool), kInitialStock);
  }
}

// Expiry sweeps (lazy per-operation and the whole-manager ExpireDue)
// racing live grants: every short promise must end up expired exactly
// once and its reservation returned.
TEST_F(ConcurrentStressTest, ExpiryRacesGrantsAndReleases) {
  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load()) {
      clock_.Advance(1);
      (void)pm_->ExpireDue();
      std::this_thread::yield();
    }
  });

  auto worker = [&](int t) {
    ClientId client = pm_->ClientFor("expiry-" + std::to_string(t));
    for (int i = 0; i < kItersPerThread; ++i) {
      int pool = (t + i) % kPools;
      // 1 ms duration: lapses almost immediately under the ticker.
      Result<GrantOutcome> grant =
          pm_->RequestPromise(client, Quantity(pool, 3), /*duration_ms=*/1);
      ASSERT_TRUE(grant.ok()) << grant.status().ToString();
      if (grant->accepted && i % 2 == 0) {
        // Half the promises race an explicit release against expiry;
        // losing the race (already expired) is a reported non-error.
        (void)pm_->Release(client, {grant->promise_id});
      }
      clock_.Advance(1);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  stop.store(true);
  ticker.join();

  clock_.Advance(10);
  (void)pm_->ExpireDue();
  EXPECT_EQ(pm_->active_promises(), 0u);
  for (int pool = 0; pool < kPools; ++pool) {
    EXPECT_EQ(Remaining(pool), kInitialStock);  // nothing was consumed
  }
  PromiseManagerStats s = pm_->stats();
  EXPECT_EQ(s.granted, s.released + s.expired);
}

// Raw stripe stress on the lock manager: disjoint keys must not block
// each other, and every lock is gone after ReleaseAll.
// Two clients grant / book / vacate on one tentative class while a
// third thread writes room properties straight to the resource manager
// (committing or rolling back). The engine's version-gated sync and
// candidate cache must stay consistent: every order that started
// finishes cleanly and nothing is left promised.
TEST(TentativeStressTest, GrantBookVacateRacesRawPropertyWrites) {
  SimulatedClock clock{1'000};
  TransactionManager tm{5'000};
  ResourceManager rm;
  Schema schema({{"floor", ValueType::kInt, false},
                 {"view", ValueType::kBool, false}});
  ASSERT_TRUE(rm.CreateInstanceClass("room", schema).ok());
  constexpr int kRooms = 32;
  for (int i = 0; i < kRooms; ++i) {
    ASSERT_TRUE(rm.AddInstance("room", "room-" + std::to_string(i),
                               {{"floor", Value(1 + i % 4)},
                                {"view", Value(i % 2 == 0)}})
                    .ok());
  }
  PromiseManagerConfig config;
  config.name = "tentative-stress";
  config.default_duration_ms = 60'000;
  config.policy.Set("room", Technique::kTentative);
  PromiseManager pm(config, &clock, &rm, &tm);
  pm.RegisterService("booking", MakeBookingService());

  constexpr int kOrders = 150;
  std::atomic<int> granted{0};
  std::atomic<int> failures{0};
  std::atomic<bool> clients_done{false};
  auto client = [&](int seed) {
    ClientId me = pm.ClientFor("guest-" + std::to_string(seed));
    const char* texts[] = {"count('room' where view == true) >= 1",
                           "count('room' where floor >= 3) >= 1",
                           "count('room' where floor <= 2) >= 2"};
    for (int i = 0; i < kOrders; ++i) {
      auto preds = ParsePredicateList(texts[(i + seed) % 3]);
      auto grant = pm.RequestPromise(me, *preds);
      if (!grant.ok() || !grant->accepted) {
        failures.fetch_add(1);
        continue;
      }
      granted.fetch_add(1);
      ActionBody book;
      book.service = "booking";
      book.operation = "book";
      book.params["class"] = Value("room");
      book.params["promise"] =
          Value(static_cast<int64_t>(grant->promise_id.value()));
      EnvironmentHeader env;
      env.entries.push_back({grant->promise_id, true});
      auto booked = pm.Execute(me, book, env);
      if (!booked.ok() || !booked->ok) {
        failures.fetch_add(1);
        (void)pm.Release(me, {grant->promise_id});
        continue;
      }
      ActionBody vacate;
      vacate.service = "booking";
      vacate.operation = "vacate";
      vacate.params["class"] = Value("room");
      vacate.params["instance"] = booked->outputs.at("booked");
      auto left = pm.Execute(me, vacate);
      if (!left.ok() || !left->ok) failures.fetch_add(1);
    }
  };
  std::thread writer([&] {
    for (int i = 0; !clients_done.load(); ++i) {
      auto txn = tm.Begin();
      Status st = rm.SetInstanceProperty(
          txn.get(), "room", "room-" + std::to_string(i % kRooms), "floor",
          Value(1 + (i * 7) % 4));
      if (st.ok() && i % 3 != 0) {
        (void)txn->Commit();
      } else {
        (void)txn->Rollback();
      }
      std::this_thread::yield();
    }
  });
  std::thread a(client, 0);
  std::thread b(client, 1);
  a.join();
  b.join();
  clients_done.store(true);
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(granted.load(), 2 * kOrders);
  EXPECT_EQ(pm.active_promises(), 0u);
  auto txn = tm.Begin();
  EXPECT_EQ(*rm.CountAvailable(txn.get(), "room"), kRooms);
  ASSERT_TRUE(txn->Commit().ok());
  // The engine still grants from a consistent matching.
  auto after = pm.RequestPromise(
      pm.ClientFor("late"),
      *ParsePredicateList("count('room' where floor >= 1) >= 32"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->accepted) << after->reason;
}

TEST(LockManagerStripeStressTest, ParallelAcquireReleaseLeavesNoLocks) {
  LockManager lm;
  std::atomic<int> errors{0};
  auto worker = [&](int t) {
    for (int i = 0; i < 200; ++i) {
      TxnId txn(static_cast<uint64_t>(t) * 1'000 + i + 1);
      std::string mine = "key-" + std::to_string(t);
      std::string shared = "shared-" + std::to_string(i % 3);
      if (!lm.Acquire(txn, mine, LockMode::kExclusive, 1'000).ok()) ++errors;
      if (!lm.Acquire(txn, shared, LockMode::kShared, 1'000).ok()) ++errors;
      lm.ReleaseAll(txn);
      if (lm.HeldCount(txn) != 0) ++errors;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  // Everything was released: a fresh transaction can take every key
  // exclusively without waiting.
  TxnId probe(999'999);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(lm.Acquire(probe, "key-" + std::to_string(t),
                           LockMode::kExclusive, /*timeout_ms=*/0)
                    .ok());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(lm.Acquire(probe, "shared-" + std::to_string(i),
                           LockMode::kExclusive, /*timeout_ms=*/0)
                    .ok());
  }
  lm.ReleaseAll(probe);
}

// Satellite 1 regression: a Record after a percentile query must
// invalidate the recorder's sorted flag, or later percentiles read a
// stale order.
TEST(LatencyRecorderTest, RecordAfterPercentileResorts) {
  LatencyRecorder rec;
  rec.Record(300);
  rec.Record(100);
  EXPECT_EQ(rec.PercentileUs(100), 300);  // sorts: {100, 300}
  rec.Record(200);
  EXPECT_EQ(rec.PercentileUs(0), 100);
  EXPECT_EQ(rec.PercentileUs(50), 200);  // stale sort would report 300
  EXPECT_EQ(rec.PercentileUs(100), 300);
}

}  // namespace
}  // namespace promises

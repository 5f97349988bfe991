// Tests for the §6 'pending' result: queued promise requests that grant
// when resources free, lapse after their patience, and can be
// cancelled.

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "core/promise_manager.h"
#include "protocol/transport.h"
#include "service/client.h"
#include "service/services.h"

namespace promises {
namespace {

class PendingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rm_.CreatePool("stock", 10).ok());
    PromiseManagerConfig config;
    config.name = "pending-pm";
    config.default_duration_ms = 60'000;
    config.pending_patience_ms = 5'000;
    pm_ = std::make_unique<PromiseManager>(config, &clock_, &rm_, &tm_);
    pm_->RegisterService("inventory", MakeInventoryService());
    alice_ = pm_->ClientFor("alice");
    bob_ = pm_->ClientFor("bob");
  }

  Result<PromiseManager::QueuedOutcome> Queue(ClientId who, int64_t n) {
    return pm_->RequestPromiseOrQueue(
        who, {Predicate::Quantity("stock", CompareOp::kGe, n)});
  }

  SimulatedClock clock_{0};
  TransactionManager tm_{100};
  ResourceManager rm_;
  std::unique_ptr<PromiseManager> pm_;
  ClientId alice_, bob_;
};

TEST_F(PendingTest, GrantableRequestIsImmediate) {
  auto out = Queue(alice_, 5);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->queued);
  EXPECT_TRUE(out->outcome.accepted);
  EXPECT_EQ(pm_->pending_requests(), 0u);
}

TEST_F(PendingTest, UngrantableRequestQueuesAndGrantsOnRelease) {
  auto held = Queue(alice_, 8);
  ASSERT_TRUE(held.ok() && held->outcome.accepted);
  auto waiting = Queue(bob_, 6);
  ASSERT_TRUE(waiting.ok());
  EXPECT_TRUE(waiting->queued);
  EXPECT_NE(waiting->ticket, 0u);
  EXPECT_EQ(pm_->pending_requests(), 1u);

  // Still queued while Alice holds.
  auto poll = pm_->PollPending(bob_, waiting->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll->queued);

  // Alice releases: the release operation drains the queue.
  ASSERT_TRUE(pm_->Release(alice_, {held->outcome.promise_id}).ok());
  EXPECT_EQ(pm_->pending_requests(), 0u);
  poll = pm_->PollPending(bob_, waiting->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_FALSE(poll->queued);
  EXPECT_TRUE(poll->outcome.accepted);
  EXPECT_NE(pm_->FindPromise(poll->outcome.promise_id), nullptr);
  // The ticket is consumed by the successful poll.
  EXPECT_TRUE(pm_->PollPending(bob_, waiting->ticket).status().IsNotFound());
}

TEST_F(PendingTest, ExpiryAlsoDrainsTheQueue) {
  auto held = Queue(alice_, 8);
  ASSERT_TRUE(held.ok() && held->outcome.accepted);
  // Re-request with a short duration promise instead:
  ASSERT_TRUE(pm_->Release(alice_, {held->outcome.promise_id}).ok());
  auto short_held = pm_->RequestPromise(
      alice_, {Predicate::Quantity("stock", CompareOp::kGe, 8)}, 1'000);
  ASSERT_TRUE(short_held.ok() && short_held->accepted);

  auto waiting = Queue(bob_, 6);
  ASSERT_TRUE(waiting.ok() && waiting->queued);
  clock_.Advance(2'000);  // alice's promise lapses
  pm_->ExpireDue();       // sweep + drain
  auto poll = pm_->PollPending(bob_, waiting->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll->outcome.accepted);
}

TEST_F(PendingTest, PatienceLapsesIntoRejection) {
  auto held = Queue(alice_, 10);
  ASSERT_TRUE(held.ok() && held->outcome.accepted);
  auto waiting = Queue(bob_, 1);
  ASSERT_TRUE(waiting.ok() && waiting->queued);
  clock_.Advance(6'000);  // beyond patience (5s)
  auto poll = pm_->PollPending(bob_, waiting->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_FALSE(poll->queued);
  EXPECT_FALSE(poll->outcome.accepted);
  EXPECT_NE(poll->outcome.reason.find("lapsed"), std::string::npos);
}

TEST_F(PendingTest, FifoBestEffortSkipsBlockedHead) {
  auto held = Queue(alice_, 6);  // headroom 4
  ASSERT_TRUE(held.ok() && held->outcome.accepted);
  auto big = Queue(bob_, 9);  // cannot fit while 6 are held
  ASSERT_TRUE(big.ok() && big->queued);
  auto small = Queue(bob_, 4);  // exactly the headroom: immediate
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(small->queued);
  auto medium = Queue(bob_, 3);  // headroom now 0: queued behind big
  ASSERT_TRUE(medium.ok() && medium->queued);
  // Releasing the small grant restores headroom 4: medium (3) fits
  // even though big (9) is ahead of it in the queue.
  ASSERT_TRUE(pm_->Release(bob_, {small->outcome.promise_id}).ok());
  auto poll = pm_->PollPending(bob_, medium->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll->outcome.accepted);
  poll = pm_->PollPending(bob_, big->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll->queued);  // still waiting
}

TEST_F(PendingTest, CancelWhileQueuedAndAfterFulfilment) {
  auto held = Queue(alice_, 10);
  ASSERT_TRUE(held.ok() && held->outcome.accepted);
  auto waiting = Queue(bob_, 2);
  ASSERT_TRUE(waiting.ok() && waiting->queued);
  ASSERT_TRUE(pm_->CancelPending(bob_, waiting->ticket).ok());
  EXPECT_EQ(pm_->pending_requests(), 0u);
  EXPECT_TRUE(pm_->PollPending(bob_, waiting->ticket).status().IsNotFound());

  // Fulfilled-but-unpolled cancellation releases the granted promise.
  auto waiting2 = Queue(bob_, 2);
  ASSERT_TRUE(waiting2.ok() && waiting2->queued);
  ASSERT_TRUE(pm_->Release(alice_, {held->outcome.promise_id}).ok());
  // waiting2 is now fulfilled internally; cancel instead of polling.
  ASSERT_TRUE(pm_->CancelPending(bob_, waiting2->ticket).ok());
  EXPECT_EQ(pm_->active_promises(), 0u);
}

TEST_F(PendingTest, TicketOwnershipEnforced) {
  auto held = Queue(alice_, 10);
  auto waiting = Queue(bob_, 2);
  ASSERT_TRUE(waiting.ok() && waiting->queued);
  EXPECT_FALSE(pm_->PollPending(alice_, waiting->ticket).ok());
  EXPECT_FALSE(pm_->CancelPending(alice_, waiting->ticket).ok());
}

TEST_F(PendingTest, UnknownTicketReported) {
  EXPECT_TRUE(pm_->PollPending(alice_, 999).status().IsNotFound());
  EXPECT_TRUE(pm_->CancelPending(alice_, 999).IsNotFound());
}

TEST_F(PendingTest, DoesNotComposeWithOperationLog) {
  OperationLog log;
  std::string path = "/tmp/promises_pending_log_test.log";
  std::remove(path.c_str());
  ASSERT_TRUE(log.Open(path).ok());
  ASSERT_TRUE(pm_->AttachLog(&log).ok());
  auto out = Queue(alice_, 1);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST_F(PendingTest, LogRefusedWithDelegatedClasses) {
  Transport transport;
  PromiseManagerConfig config;
  config.name = "delegating";
  PromiseManager delegating(config, &clock_, &rm_, &tm_, &transport);
  ASSERT_TRUE(delegating.DelegateClass("remote", "upstream").ok());
  OperationLog log;
  std::string path = "/tmp/promises_delegated_log_test.log";
  std::remove(path.c_str());
  ASSERT_TRUE(log.Open(path).ok());
  EXPECT_FALSE(delegating.AttachLog(&log).ok());
  std::remove(path.c_str());
}

TEST_F(PendingTest, WireLevelQueueAndPoll) {
  // The full §6 'pending' exchange over the XML transport.
  Transport transport;
  PromiseManagerConfig config;
  config.name = "wire-pm";
  config.default_duration_ms = 60'000;
  config.pending_patience_ms = 5'000;
  PromiseManager wire_pm(config, &clock_, &rm_, &tm_, &transport);
  PromiseClient holder("holder", &transport, "wire-pm");
  PromiseClient waiter("waiter", &transport, "wire-pm");

  auto held = holder.Request("quantity('stock') >= 8");
  ASSERT_TRUE(held.ok());

  auto queued = waiter.RequestQueued("quantity('stock') >= 6");
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_FALSE(queued->granted);
  EXPECT_TRUE(queued->pending);
  EXPECT_NE(queued->ticket, 0u);

  auto poll = waiter.Poll(queued->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll->pending);

  ASSERT_TRUE(holder.Release({held->id}).ok());
  poll = waiter.Poll(queued->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll->granted);
  EXPECT_TRUE(poll->promise.id.valid());

  // Ticket consumed; a grantable queued request is immediate.
  poll = waiter.Poll(queued->ticket);
  ASSERT_TRUE(poll.ok());
  EXPECT_FALSE(poll->granted);
  EXPECT_FALSE(poll->pending);
  auto immediate = waiter.RequestQueued("quantity('stock') >= 1");
  ASSERT_TRUE(immediate.ok());
  EXPECT_TRUE(immediate->granted);
  (void)waiter.Release({poll->promise.id});
}

TEST_F(PendingTest, WirePendingRoundTripsThroughXml) {
  Envelope env;
  env.message_id = MessageId(1);
  env.from = "a";
  env.to = "b";
  PromiseRequestHeader req;
  req.request_id = RequestId(2);
  req.queue_if_unavailable = true;
  req.predicates.push_back(Predicate::Quantity("x", CompareOp::kGe, 1));
  env.promise_request = std::move(req);
  env.poll = PollHeader{77};
  auto back = Envelope::FromXml(env.ToXml());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->promise_request->queue_if_unavailable);
  ASSERT_TRUE(back->poll.has_value());
  EXPECT_EQ(back->poll->ticket, 77u);

  Envelope resp;
  resp.message_id = MessageId(3);
  resp.from = "b";
  resp.to = "a";
  PromiseResponseHeader h;
  h.result = PromiseResultCode::kPending;
  h.correlation = RequestId(2);
  h.pending_ticket = 41;
  resp.promise_response = std::move(h);
  back = Envelope::FromXml(resp.ToXml());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->promise_response->result, PromiseResultCode::kPending);
  EXPECT_EQ(back->promise_response->pending_ticket, 41u);
}

TEST_F(PendingTest, ConcurrentQueueAndReleaseKeepsBooks) {
  // Hammer the queue from several threads while a releaser frees
  // capacity; afterwards every ticket must resolve and the books must
  // balance.
  auto held = Queue(alice_, 10);
  ASSERT_TRUE(held.ok() && held->outcome.accepted);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::vector<std::vector<PromiseManager::PendingTicket>> tickets(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientId me = pm_->ClientFor("q-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        auto out = pm_->RequestPromiseOrQueue(
            me, {Predicate::Quantity("stock", CompareOp::kGe, 1)});
        if (out.ok() && out->queued) tickets[t].push_back(out->ticket);
        if (out.ok() && !out->queued) {
          (void)pm_->Release(me, {out->outcome.promise_id});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Free the blocker: all queued tickets become grantable.
  ASSERT_TRUE(pm_->Release(alice_, {held->outcome.promise_id}).ok());
  // A ticket still queued at one poll may be granted by a later
  // release, so poll every ticket until it resolves (each round grants
  // at least one: stock never runs out once the blocker is gone).
  size_t resolved = 0;
  size_t outstanding = 0;
  for (int round = 0; round <= kThreads * kPerThread; ++round) {
    outstanding = 0;
    for (int t = 0; t < kThreads; ++t) {
      ClientId me = pm_->ClientFor("q-" + std::to_string(t));
      std::vector<PromiseManager::PendingTicket> still_queued;
      for (auto ticket : tickets[t]) {
        auto poll = pm_->PollPending(me, ticket);
        ASSERT_TRUE(poll.ok()) << poll.status().ToString();
        if (poll->queued) {
          still_queued.push_back(ticket);
        } else if (poll->outcome.accepted) {
          ++resolved;
          ASSERT_TRUE(pm_->Release(me, {poll->outcome.promise_id}).ok());
        }
      }
      tickets[t] = std::move(still_queued);
      outstanding += tickets[t].size();
    }
    if (outstanding == 0) break;
  }
  EXPECT_EQ(outstanding, 0u);
  EXPECT_GT(resolved, 0u);
  EXPECT_EQ(pm_->active_promises(), 0u);
  EXPECT_EQ(pm_->pending_requests(), 0u);
}

}  // namespace
}  // namespace promises

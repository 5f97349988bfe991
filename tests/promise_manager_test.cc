// Tests for the PromiseManager: grant/reject, §4 atomicity units,
// expiry, violation rollback, the protocol entry point and stats.

#include <gtest/gtest.h>

#include <thread>

#include "core/promise_manager.h"
#include "predicate/parser.h"
#include "protocol/transport.h"
#include "service/services.h"

namespace promises {
namespace {

class PromiseManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rm_.CreatePool("widget", 10).ok());
    ASSERT_TRUE(rm_.CreatePool("account", 150).ok());
    Schema schema({{"floor", ValueType::kInt, false},
                   {"view", ValueType::kBool, false}});
    ASSERT_TRUE(rm_.CreateInstanceClass("room", schema).ok());
    ASSERT_TRUE(rm_.AddInstance("room", "301",
                                {{"floor", Value(3)}, {"view", Value(true)}})
                    .ok());
    ASSERT_TRUE(rm_.AddInstance("room", "512",
                                {{"floor", Value(5)}, {"view", Value(true)}})
                    .ok());

    PromiseManagerConfig config;
    config.name = "pm-under-test";
    config.default_duration_ms = 10'000;
    config.max_duration_ms = 60'000;
    pm_ = std::make_unique<PromiseManager>(config, &clock_, &rm_, &tm_,
                                           &transport_);
    pm_->RegisterService("inventory", MakeInventoryService());
    pm_->RegisterService("booking", MakeBookingService());
    pm_->RegisterService("account", MakeAccountService());
    client_ = pm_->ClientFor("test-client");
    other_ = pm_->ClientFor("other-client");
  }

  GrantOutcome MustGrant(ClientId who, const std::string& text,
                         DurationMs duration = 0) {
    auto preds = ParsePredicateList(text);
    EXPECT_TRUE(preds.ok()) << preds.status().ToString();
    auto out = pm_->RequestPromise(who, *preds, duration);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out->accepted) << out->reason;
    return *out;
  }

  GrantOutcome MustReject(ClientId who, const std::string& text) {
    auto preds = ParsePredicateList(text);
    EXPECT_TRUE(preds.ok()) << preds.status().ToString();
    auto out = pm_->RequestPromise(who, *preds);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_FALSE(out->accepted);
    return *out;
  }

  ActionOutcome Purchase(ClientId who, const std::string& item, int64_t n,
                         std::vector<PromiseId> env = {},
                         bool release_after = false) {
    ActionBody action;
    action.service = "inventory";
    action.operation = "purchase";
    action.params["item"] = Value(item);
    action.params["quantity"] = Value(n);
    EnvironmentHeader header;
    for (PromiseId id : env) header.entries.push_back({id, release_after});
    auto out = pm_->Execute(who, action, header);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *out;
  }

  int64_t Quantity(const std::string& item) {
    auto txn = tm_.Begin();
    return *rm_.GetQuantity(txn.get(), item);
  }

  SimulatedClock clock_{1'000'000};
  TransactionManager tm_{100};
  ResourceManager rm_;
  Transport transport_;
  std::unique_ptr<PromiseManager> pm_;
  ClientId client_, other_;
};

TEST_F(PromiseManagerTest, GrantAndDurationClamping) {
  GrantOutcome out = MustGrant(client_, "quantity('widget') >= 5");
  EXPECT_TRUE(out.promise_id.valid());
  EXPECT_EQ(out.duration_ms, 10'000);  // default
  GrantOutcome longer =
      MustGrant(client_, "quantity('widget') >= 1", 500'000);
  EXPECT_EQ(longer.duration_ms, 60'000);  // clamped to max (§6)
  EXPECT_EQ(pm_->active_promises(), 2u);
}

TEST_F(PromiseManagerTest, RejectBeyondAvailability) {
  MustGrant(client_, "quantity('widget') >= 7");
  GrantOutcome rejected = MustReject(other_, "quantity('widget') >= 4");
  EXPECT_NE(rejected.reason.find("widget"), std::string::npos);
  EXPECT_EQ(pm_->active_promises(), 1u);
  // The reject left no residue: a fitting request succeeds.
  MustGrant(other_, "quantity('widget') >= 3");
}

TEST_F(PromiseManagerTest, EmptyAndInvalidRequestsRejected) {
  auto out = pm_->RequestPromise(client_, {});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->accepted);
  MustReject(client_, "quantity('no-such-pool') >= 1");
}

TEST_F(PromiseManagerTest, MultiPredicateAtomicGrant) {
  // widget + room: both grantable together.
  MustGrant(client_,
            "quantity('widget') >= 4; available('room', '512')");
  // Another bundle reusing room 512 must be rejected wholesale, leaving
  // the widget capacity untouched.
  MustReject(other_,
             "quantity('widget') >= 2; available('room', '512')");
  MustGrant(other_, "quantity('widget') >= 6");
  EXPECT_EQ(pm_->active_promises(), 2u);
}

TEST_F(PromiseManagerTest, ExplicitRelease) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 8");
  ASSERT_TRUE(pm_->Release(client_, {g.promise_id}).ok());
  EXPECT_EQ(pm_->active_promises(), 0u);
  MustGrant(other_, "quantity('widget') >= 8");
}

TEST_F(PromiseManagerTest, ReleaseValidatesOwnership) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 8");
  Status st = pm_->Release(other_, {g.promise_id});
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(pm_->active_promises(), 1u);
  // Unknown ids reported but do not fail others.
  st = pm_->Release(client_, {PromiseId(999), g.promise_id});
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(pm_->active_promises(), 0u);
}

TEST_F(PromiseManagerTest, ExpiryFreesResources) {
  MustGrant(client_, "quantity('widget') >= 8", 5'000);
  MustReject(other_, "quantity('widget') >= 5");
  clock_.Advance(6'000);
  MustGrant(other_, "quantity('widget') >= 5");
  EXPECT_GE(pm_->stats().expired, 1u);
}

TEST_F(PromiseManagerTest, ExpiredPromiseUseYieldsPromiseExpired) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 5", 5'000);
  clock_.Advance(6'000);
  ActionOutcome out = Purchase(client_, "widget", 5, {g.promise_id}, true);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("promise-expired"), std::string::npos);
  EXPECT_GE(pm_->stats().expired_use_errors, 1u);
}

TEST_F(PromiseManagerTest, EnvironmentValidatesOwnership) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 5");
  ActionOutcome out = Purchase(other_, "widget", 5, {g.promise_id}, true);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("another client"), std::string::npos);
}

TEST_F(PromiseManagerTest, ActionWithReleaseAfterConsumesAndReleases) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 5");
  ActionOutcome out = Purchase(client_, "widget", 5, {g.promise_id}, true);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(Quantity("widget"), 5);
  EXPECT_EQ(pm_->active_promises(), 0u);
  EXPECT_EQ(pm_->FindPromise(g.promise_id), nullptr);
}

TEST_F(PromiseManagerTest, FailedActionRetainsPromise) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 5");
  // Buying 20 is impossible (only 10 exist): the action fails and §2
  // demands the promise survives because the release was conditional.
  ActionOutcome out = Purchase(client_, "widget", 20, {g.promise_id}, true);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(pm_->FindPromise(g.promise_id), nullptr);
  EXPECT_EQ(Quantity("widget"), 10);
}

TEST_F(PromiseManagerTest, ViolatingActionRolledBack) {
  MustGrant(client_, "quantity('widget') >= 8");
  // An unprotected purchase of 5 would leave 5 < 8 promised.
  ActionOutcome out = Purchase(other_, "widget", 5);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("violated"), std::string::npos);
  EXPECT_EQ(Quantity("widget"), 10);
  EXPECT_EQ(pm_->stats().violations_rolled_back, 1u);
  // A harmless unprotected purchase of 2 passes the post-check.
  out = Purchase(other_, "widget", 2);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(Quantity("widget"), 8);
}

TEST_F(PromiseManagerTest, AtomicUpdateUpgradeFailsKeepsOld) {
  GrantOutcome g = MustGrant(client_, "quantity('account') >= 100");
  auto preds = ParsePredicateList("quantity('account') >= 200");
  auto out = pm_->RequestPromise(client_, *preds, 0, {g.promise_id});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->accepted);
  ASSERT_NE(pm_->FindPromise(g.promise_id), nullptr);  // §4: retained
  EXPECT_EQ(pm_->active_promises(), 1u);
}

TEST_F(PromiseManagerTest, AtomicUpdateWeakenSwaps) {
  GrantOutcome g = MustGrant(client_, "quantity('account') >= 100");
  auto preds = ParsePredicateList("quantity('account') >= 50");
  auto out = pm_->RequestPromise(client_, *preds, 0, {g.promise_id});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->accepted);
  EXPECT_EQ(pm_->FindPromise(g.promise_id), nullptr);
  EXPECT_EQ(pm_->active_promises(), 1u);
  EXPECT_EQ(pm_->stats().updates, 1u);
  // 150 - 50 leaves room for 100 more.
  MustGrant(other_, "quantity('account') >= 100");
}

TEST_F(PromiseManagerTest, AtomicUpdateUpgradeUsesHandbackHeadroom) {
  // 150 balance: holding >=100, upgrading to >=120 only works because
  // the old promise is handed back inside the same atomic unit.
  GrantOutcome g = MustGrant(client_, "quantity('account') >= 100");
  auto preds = ParsePredicateList("quantity('account') >= 120");
  auto out = pm_->RequestPromise(client_, *preds, 0, {g.promise_id});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->accepted);
}

TEST_F(PromiseManagerTest, HandbackValidation) {
  GrantOutcome mine = MustGrant(client_, "quantity('widget') >= 1");
  auto preds = ParsePredicateList("quantity('widget') >= 2");
  // Handing back someone else's promise is refused.
  auto out = pm_->RequestPromise(other_, *preds, 0, {mine.promise_id});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->accepted);
  // Handing back a non-existent promise is refused.
  out = pm_->RequestPromise(client_, *preds, 0, {PromiseId(777)});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->accepted);
  EXPECT_NE(pm_->FindPromise(mine.promise_id), nullptr);
}

TEST_F(PromiseManagerTest, BookingResolvesAbstractPromiseToInstance) {
  GrantOutcome g = MustGrant(
      client_, "count('room' where view == true) >= 1");
  ActionBody book;
  book.service = "booking";
  book.operation = "book";
  book.params["class"] = Value("room");
  book.params["promise"] = Value(static_cast<int64_t>(g.promise_id.value()));
  EnvironmentHeader env;
  env.entries.push_back({g.promise_id, true});
  auto out = pm_->Execute(client_, book, env);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->ok) << out->error;
  std::string room = out->outputs.at("booked").as_string();
  EXPECT_TRUE(room == "301" || room == "512") << room;
  auto txn = tm_.Begin();
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", room),
            InstanceStatus::kTaken);
}

TEST_F(PromiseManagerTest, TakeRequiresEnvironmentMembership) {
  GrantOutcome g = MustGrant(
      client_, "count('room' where view == true) >= 1");
  ActionBody book;
  book.service = "booking";
  book.operation = "book";
  book.params["class"] = Value("room");
  book.params["promise"] = Value(static_cast<int64_t>(g.promise_id.value()));
  // No environment header: the take must be refused.
  auto out = pm_->Execute(client_, book, {});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->ok);
  EXPECT_NE(out->error.find("environment"), std::string::npos);
}

TEST_F(PromiseManagerTest, UnknownServiceFailsAction) {
  ActionBody a;
  a.service = "nope";
  a.operation = "x";
  auto out = pm_->Execute(client_, a, {});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->ok);
  EXPECT_NE(out->error.find("unknown service"), std::string::npos);
}

TEST_F(PromiseManagerTest, HandleEnvelopeGrantAndResponseCorrelation) {
  Envelope env;
  env.message_id = MessageId(1);
  env.from = "proto-client";
  env.to = "pm-under-test";
  PromiseRequestHeader req;
  req.request_id = RequestId(77);
  req.duration_ms = 4'000;
  req.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 3));
  env.promise_request = std::move(req);

  auto reply = pm_->Handle(env);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->promise_response.has_value());
  EXPECT_EQ(reply->promise_response->result, PromiseResultCode::kAccepted);
  EXPECT_EQ(reply->promise_response->correlation, RequestId(77));
  EXPECT_EQ(reply->promise_response->granted_duration_ms, 4'000);
  EXPECT_EQ(reply->to, "proto-client");
}

TEST_F(PromiseManagerTest, HandleCombinedRequestActionUsesFreshPromise) {
  Envelope env;
  env.message_id = MessageId(2);
  env.from = "proto-client";
  env.to = "pm-under-test";
  PromiseRequestHeader req;
  req.request_id = RequestId(1);
  req.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 4));
  env.promise_request = std::move(req);
  env.environment =
      EnvironmentHeader{{{PromiseId(), /*release_after=*/true}}};
  ActionBody a;
  a.service = "inventory";
  a.operation = "purchase";
  a.params["item"] = Value("widget");
  a.params["quantity"] = Value(4);
  env.action = std::move(a);

  auto reply = pm_->Handle(env);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->action_result.has_value());
  EXPECT_TRUE(reply->action_result->ok) << reply->action_result->error;
  EXPECT_EQ(Quantity("widget"), 6);
  EXPECT_EQ(pm_->active_promises(), 0u);  // released with the action
}

TEST_F(PromiseManagerTest, HandleSkipsActionWhenRequestRejected) {
  Envelope env;
  env.message_id = MessageId(3);
  env.from = "proto-client";
  env.to = "pm-under-test";
  PromiseRequestHeader req;
  req.request_id = RequestId(1);
  req.predicates.push_back(
      Predicate::Quantity("widget", CompareOp::kGe, 999));
  env.promise_request = std::move(req);
  ActionBody a;
  a.service = "inventory";
  a.operation = "purchase";
  a.params["item"] = Value("widget");
  a.params["quantity"] = Value(1);
  env.action = std::move(a);

  auto reply = pm_->Handle(env);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->promise_response->result, PromiseResultCode::kRejected);
  ASSERT_TRUE(reply->action_result.has_value());
  EXPECT_FALSE(reply->action_result->ok);
  EXPECT_EQ(Quantity("widget"), 10);  // nothing purchased
}

TEST_F(PromiseManagerTest, HandleReleaseHeader) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 5");
  Envelope env;
  env.message_id = MessageId(4);
  env.from = "test-client";  // same ClientFor mapping
  env.to = "pm-under-test";
  env.release = ReleaseHeader{{g.promise_id}};
  auto reply = pm_->Handle(env);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(pm_->active_promises(), 0u);
}

TEST_F(PromiseManagerTest, StatsAccumulate) {
  MustGrant(client_, "quantity('widget') >= 5");
  MustReject(other_, "quantity('widget') >= 50");
  PromiseManagerStats s = pm_->stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.granted, 1u);
  EXPECT_EQ(s.rejected, 1u);
}

TEST_F(PromiseManagerTest, ExpireDueSweepsEagerly) {
  MustGrant(client_, "quantity('widget') >= 5", 1'000);
  MustGrant(client_, "quantity('widget') >= 2", 2'000);
  clock_.Advance(1'500);
  EXPECT_EQ(pm_->ExpireDue(), 1u);
  EXPECT_EQ(pm_->active_promises(), 1u);
  clock_.Advance(1'000);
  EXPECT_EQ(pm_->ExpireDue(), 1u);
  EXPECT_EQ(pm_->active_promises(), 0u);
}

TEST_F(PromiseManagerTest, StrictModeRequiresCoveringPromise) {
  // A second manager in §2 strict mode over the same resources.
  PromiseManagerConfig config;
  config.name = "strict-pm";
  config.strict_actions = true;
  PromiseManager strict(config, &clock_, &rm_, &tm_);
  strict.RegisterService("inventory", MakeInventoryService());
  ClientId me = strict.ClientFor("strict-client");

  // Unprotected purchase refused outright (not merely post-checked).
  ActionBody buy;
  buy.service = "inventory";
  buy.operation = "purchase";
  buy.params["item"] = Value("widget");
  buy.params["quantity"] = Value(1);
  auto out = strict.Execute(me, buy, {});
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->ok);
  EXPECT_NE(out->error.find("strict mode"), std::string::npos);
  EXPECT_EQ(Quantity("widget"), 10);

  // Promise-covered purchase goes through.
  auto g = strict.RequestPromise(
      me, {Predicate::Quantity("widget", CompareOp::kGe, 2)});
  ASSERT_TRUE(g.ok() && g->accepted);
  buy.params["quantity"] = Value(2);
  buy.params["promise"] = Value(static_cast<int64_t>(g->promise_id.value()));
  EnvironmentHeader env;
  env.entries.push_back({g->promise_id, true});
  out = strict.Execute(me, buy, env);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ok) << out->error;
  EXPECT_EQ(Quantity("widget"), 8);
}

TEST_F(PromiseManagerTest, DumpStateListsPromisesAndEngines) {
  GrantOutcome g = MustGrant(client_, "quantity('widget') >= 5");
  std::string dump = pm_->DumpState();
  EXPECT_NE(dump.find(g.promise_id.ToString()), std::string::npos);
  EXPECT_NE(dump.find("quantity('widget') >= 5"), std::string::npos);
  EXPECT_NE(dump.find("widget"), std::string::npos);
}

TEST_F(PromiseManagerTest, ConcurrentMixedWorkloadKeepsInvariant) {
  // Hammer the manager from several threads; afterwards the §3.1
  // invariant must hold: stock was never oversold.
  constexpr int kThreads = 6;
  constexpr int kIters = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientId me = pm_->ClientFor("hammer-" + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        auto g = pm_->RequestPromise(
            me, {Predicate::Quantity("widget", CompareOp::kGe, 2)});
        if (!g.ok() || !g->accepted) continue;
        ActionBody buy;
        buy.service = "inventory";
        buy.operation = "purchase";
        buy.params["item"] = Value("widget");
        buy.params["quantity"] = Value(2);
        EnvironmentHeader env;
        env.entries.push_back({g->promise_id, true});
        auto out = pm_->Execute(me, buy, env);
        if (out.ok() && out->ok) {
          // Sell back so the workload sustains.
          ActionBody restock;
          restock.service = "inventory";
          restock.operation = "restock";
          restock.params["item"] = Value("widget");
          restock.params["quantity"] = Value(2);
          (void)pm_->Execute(me, restock, {});
        } else {
          (void)pm_->Release(me, {g->promise_id});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(Quantity("widget"), 0);
  EXPECT_LE(Quantity("widget"), 10);
  EXPECT_EQ(pm_->active_promises(), 0u);
}

}  // namespace
}  // namespace promises

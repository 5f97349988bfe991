// Unit tests for the §5 checking engines, driven directly (the promise
// manager integration is covered in promise_manager_test.cc), plus a
// seeded differential test of the tentative engine, run through the
// manager, against a from-scratch maximum matching.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/pool_engine.h"
#include "core/promise_manager.h"
#include "core/satisfiability_engine.h"
#include "core/tag_engine.h"
#include "core/tentative_engine.h"
#include "matching/bipartite.h"
#include "predicate/evaluator.h"
#include "service/services.h"

namespace promises {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rm_.CreatePool("widget", 10).ok());
    Schema schema({{"floor", ValueType::kInt, false},
                   {"view", ValueType::kBool, false}});
    ASSERT_TRUE(rm_.CreateInstanceClass("room", schema).ok());
    ASSERT_TRUE(rm_.AddInstance("room", "301",
                                {{"floor", Value(3)}, {"view", Value(true)}})
                    .ok());
    ASSERT_TRUE(rm_.AddInstance("room", "504",
                                {{"floor", Value(5)}, {"view", Value(false)}})
                    .ok());
    ASSERT_TRUE(rm_.AddInstance("room", "512",
                                {{"floor", Value(5)}, {"view", Value(true)}})
                    .ok());
  }

  EngineContext Ctx() { return EngineContext{&rm_, &table_, &clock_}; }

  /// Builds a record, registers it in the table and reserves every
  /// predicate with `engine`. Returns the reserve status of the first
  /// failing predicate (table entry removed again on failure).
  Status GrantThrough(ResourceEngine* engine, uint64_t id,
                      std::vector<Predicate> preds, Transaction* txn,
                      DurationMs duration = 1'000'000) {
    PromiseRecord r;
    r.id = PromiseId(id);
    r.owner = ClientId(1);
    r.predicates = std::move(preds);
    r.granted_at = clock_.Now();
    r.expires_at = clock_.Now() + duration;
    Status st = table_.Insert(r);
    if (!st.ok()) return st;
    for (const Predicate& p : r.predicates) {
      st = engine->Reserve(txn, r, p);
      if (!st.ok()) {
        (void)table_.Remove(r.id);
        return st;
      }
    }
    return Status::OK();
  }

  Status ReleaseThrough(ResourceEngine* engine, uint64_t id,
                        Transaction* txn) {
    const PromiseRecord* rec = table_.Find(PromiseId(id));
    if (rec == nullptr) return Status::NotFound("no record");
    for (const Predicate& p : rec->predicates) {
      PROMISES_RETURN_IF_ERROR(engine->Unreserve(txn, PromiseId(id), p));
    }
    return table_.Remove(PromiseId(id)).status();
  }

  SimulatedClock clock_{1000};
  TransactionManager tm_{50};
  ResourceManager rm_;
  PromiseTable table_;
};

// --- ResourcePoolEngine ------------------------------------------------

TEST_F(EngineTest, PoolEngineReservesUpToQuantity) {
  ResourcePoolEngine engine("widget", Ctx());
  auto txn = tm_.Begin();
  EXPECT_TRUE(GrantThrough(&engine, 1,
                           {Predicate::Quantity("widget", CompareOp::kGe, 6)},
                           txn.get())
                  .ok());
  EXPECT_EQ(engine.reserved(), 6);
  EXPECT_TRUE(GrantThrough(&engine, 2,
                           {Predicate::Quantity("widget", CompareOp::kGe, 4)},
                           txn.get())
                  .ok());
  EXPECT_EQ(
      GrantThrough(&engine, 3,
                   {Predicate::Quantity("widget", CompareOp::kGe, 1)},
                   txn.get())
          .code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.reserved(), 10);
}

TEST_F(EngineTest, PoolEngineUnreserveFreesCapacity) {
  ResourcePoolEngine engine("widget", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1,
                           {Predicate::Quantity("widget", CompareOp::kGe, 8)},
                           txn.get())
                  .ok());
  ASSERT_TRUE(ReleaseThrough(&engine, 1, txn.get()).ok());
  EXPECT_EQ(engine.reserved(), 0);
  EXPECT_TRUE(GrantThrough(&engine, 2,
                           {Predicate::Quantity("widget", CompareOp::kGe, 9)},
                           txn.get())
                  .ok());
}

TEST_F(EngineTest, PoolEngineRollbackRestoresReservation) {
  ResourcePoolEngine engine("widget", Ctx());
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(
        GrantThrough(&engine, 1,
                     {Predicate::Quantity("widget", CompareOp::kGe, 8)},
                     txn.get())
            .ok());
    ASSERT_TRUE(txn->Rollback().ok());
  }
  EXPECT_EQ(engine.reserved(), 0);
}

TEST_F(EngineTest, PoolEngineVerifyDetectsOverdraw) {
  ResourcePoolEngine engine("widget", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1,
                           {Predicate::Quantity("widget", CompareOp::kGe, 8)},
                           txn.get())
                  .ok());
  EXPECT_TRUE(engine.VerifyConsistent(txn.get(), clock_.Now()).ok());
  // Unrelated consumption of 5 leaves 5 < 8 reserved.
  ASSERT_TRUE(rm_.AdjustQuantity(txn.get(), "widget", -5).ok());
  EXPECT_TRUE(
      engine.VerifyConsistent(txn.get(), clock_.Now()).IsViolated());
}

TEST_F(EngineTest, PoolEngineRejectsWrongPredicateKind) {
  ResourcePoolEngine engine("widget", Ctx());
  auto txn = tm_.Begin();
  EXPECT_FALSE(GrantThrough(&engine, 1, {Predicate::Named("widget", "x")},
                            txn.get())
                   .ok());
  EXPECT_FALSE(
      engine.ResolveInstance(txn.get(), PromiseId(1),
                             Predicate::Quantity("widget", CompareOp::kGe, 1),
                             0)
          .ok());
}

// --- AllocatedTagEngine ------------------------------------------------

TEST_F(EngineTest, TagEngineMarksNamedInstancePromised) {
  AllocatedTagEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1, {Predicate::Named("room", "512")},
                           txn.get())
                  .ok());
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "512"),
            InstanceStatus::kPromised);
  // Second promise on the same instance refused.
  EXPECT_EQ(GrantThrough(&engine, 2, {Predicate::Named("room", "512")},
                         txn.get())
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, TagEngineReleaseRestoresAvailability) {
  AllocatedTagEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1, {Predicate::Named("room", "512")},
                           txn.get())
                  .ok());
  ASSERT_TRUE(ReleaseThrough(&engine, 1, txn.get()).ok());
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "512"),
            InstanceStatus::kAvailable);
}

TEST_F(EngineTest, TagEngineReleaseKeepsTakenInstances) {
  AllocatedTagEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1, {Predicate::Named("room", "512")},
                           txn.get())
                  .ok());
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "512",
                                    InstanceStatus::kTaken)
                  .ok());
  ASSERT_TRUE(ReleaseThrough(&engine, 1, txn.get()).ok());
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "512"),
            InstanceStatus::kTaken);
}

TEST_F(EngineTest, TagEnginePropertyPredicateAllocatesEagerly) {
  AllocatedTagEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  Predicate two_on_five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 2);
  ASSERT_TRUE(GrantThrough(&engine, 1, {two_on_five}, txn.get()).ok());
  EXPECT_EQ(*rm_.CountAvailable(txn.get(), "room"), 1);  // only 301 left
  // Only one more view room exists and it's floor 3; asking for a
  // 5th-floor room now fails.
  Predicate one_on_five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 1);
  EXPECT_EQ(GrantThrough(&engine, 2, {one_on_five}, txn.get()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, TagEngineEagernessCausesFalseRejection) {
  // The documented weakness (E4): tags may pick 512 for a view promise
  // even though 301 would do, then refuse a 5th-floor request that only
  // 512 could satisfy... depending on iteration order. Construct the
  // order-dependent case explicitly: instances iterate lexicographically
  // (301, 504, 512), so a view request takes 301 first — make 301
  // unavailable to force 512.
  AllocatedTagEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "301",
                                    InstanceStatus::kTaken)
                  .ok());
  Predicate view = Predicate::Property(
      "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 1);
  ASSERT_TRUE(GrantThrough(&engine, 1, {view}, txn.get()).ok());
  // 512 is now promised; a 5th-floor request can still use 504.
  Predicate five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 1);
  ASSERT_TRUE(GrantThrough(&engine, 2, {five}, txn.get()).ok());
  // But a second 5th-floor request fails even though a reallocation
  // (view promise has no alternative here) genuinely does not exist —
  // and with 301 available again, tags still would not reconsider.
  EXPECT_FALSE(GrantThrough(&engine, 3, {five}, txn.get()).ok());
}

TEST_F(EngineTest, TagEngineResolveWalksAssignments) {
  AllocatedTagEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  Predicate two_on_five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 2);
  ASSERT_TRUE(GrantThrough(&engine, 1, {two_on_five}, txn.get()).ok());
  auto first =
      engine.ResolveInstance(txn.get(), PromiseId(1), two_on_five, 0);
  auto second =
      engine.ResolveInstance(txn.get(), PromiseId(1), two_on_five, 1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
  EXPECT_FALSE(
      engine.ResolveInstance(txn.get(), PromiseId(1), two_on_five, 2).ok());
}

TEST_F(EngineTest, TagEngineVerifyFlagsConsumedButUnreleased) {
  AllocatedTagEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1, {Predicate::Named("room", "512")},
                           txn.get())
                  .ok());
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "512",
                                    InstanceStatus::kTaken)
                  .ok());
  EXPECT_TRUE(
      engine.VerifyConsistent(txn.get(), clock_.Now()).IsViolated());
}

TEST_F(EngineTest, TagEngineRollbackRestoresTagsAndLedger) {
  AllocatedTagEngine engine("room", Ctx());
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(GrantThrough(&engine, 1, {Predicate::Named("room", "512")},
                             txn.get())
                    .ok());
    ASSERT_TRUE(txn->Rollback().ok());
    (void)table_.Remove(PromiseId(1));
  }
  auto txn = tm_.Begin();
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "512"),
            InstanceStatus::kAvailable);
  // Fresh reserve works (ledger clean).
  EXPECT_TRUE(GrantThrough(&engine, 2, {Predicate::Named("room", "512")},
                           txn.get())
                  .ok());
}

// --- TentativeEngine ---------------------------------------------------

TEST_F(EngineTest, TentativeEngineReallocatesWhereTagsWouldRefuse) {
  TentativeEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  Predicate view = Predicate::Property(
      "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 1);
  Predicate five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 1);
  ASSERT_TRUE(GrantThrough(&engine, 1, {view}, txn.get()).ok());
  ASSERT_TRUE(GrantThrough(&engine, 2, {five}, txn.get()).ok());
  // Both 5th-floor rooms: one may require displacing the view promise
  // onto 301.
  ASSERT_TRUE(GrantThrough(&engine, 3, {five}, txn.get()).ok());
  // Now everything is pinned: 301=view, {504,512}=five,five.
  EXPECT_FALSE(GrantThrough(&engine, 4, {view}, txn.get()).ok());
  EXPECT_TRUE(engine.VerifyConsistent(txn.get(), clock_.Now()).ok());
}

TEST_F(EngineTest, TentativeEngineMirrorsStatuses) {
  TentativeEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  Predicate view = Predicate::Property(
      "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 1);
  ASSERT_TRUE(GrantThrough(&engine, 1, {view}, txn.get()).ok());
  EXPECT_EQ(*rm_.CountAvailable(txn.get(), "room"), 2);
  ASSERT_TRUE(ReleaseThrough(&engine, 1, txn.get()).ok());
  EXPECT_EQ(*rm_.CountAvailable(txn.get(), "room"), 3);
}

TEST_F(EngineTest, TentativeEngineNamedPredicates) {
  TentativeEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1, {Predicate::Named("room", "512")},
                           txn.get())
                  .ok());
  // The named instance is pinned: a second named promise fails...
  EXPECT_FALSE(GrantThrough(&engine, 2, {Predicate::Named("room", "512")},
                            txn.get())
                   .ok());
  // ...and property demands that only 512 could fill fail too.
  Predicate five_view = Predicate::Property(
      "room",
      Expr::And(Expr::Compare("floor", CompareOp::kEq, Value(5)),
                Expr::Compare("view", CompareOp::kEq, Value(true))),
      1);
  EXPECT_FALSE(GrantThrough(&engine, 3, {five_view}, txn.get()).ok());
}

TEST_F(EngineTest, TentativeEngineResolveReturnsMatchedInstance) {
  TentativeEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  Predicate five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 2);
  ASSERT_TRUE(GrantThrough(&engine, 1, {five}, txn.get()).ok());
  auto a = engine.ResolveInstance(txn.get(), PromiseId(1), five, 0);
  auto b = engine.ResolveInstance(txn.get(), PromiseId(1), five, 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::set<std::string> got{*a, *b};
  EXPECT_EQ(got, (std::set<std::string>{"504", "512"}));
}

TEST_F(EngineTest, TentativeEngineVerifyDetectsExternallyTaken) {
  TentativeEngine engine("room", Ctx());
  auto txn = tm_.Begin();
  Predicate five_view = Predicate::Property(
      "room",
      Expr::And(Expr::Compare("floor", CompareOp::kEq, Value(5)),
                Expr::Compare("view", CompareOp::kEq, Value(true))),
      1);
  ASSERT_TRUE(GrantThrough(&engine, 1, {five_view}, txn.get()).ok());
  // Only 512 matches; an outside action takes it without a promise.
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "512",
                                    InstanceStatus::kTaken)
                  .ok());
  EXPECT_TRUE(
      engine.VerifyConsistent(txn.get(), clock_.Now()).IsViolated());
}

TEST_F(EngineTest, TentativeEngineRollbackRestoresMatcher) {
  TentativeEngine engine("room", Ctx());
  Predicate view = Predicate::Property(
      "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 2);
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(GrantThrough(&engine, 1, {view}, txn.get()).ok());
    ASSERT_TRUE(txn->Rollback().ok());
    (void)table_.Remove(PromiseId(1));
  }
  auto txn = tm_.Begin();
  EXPECT_EQ(*rm_.CountAvailable(txn.get(), "room"), 3);
  EXPECT_TRUE(GrantThrough(&engine, 2, {view}, txn.get()).ok());
}

TEST_F(EngineTest, TentativeEngineAbortMidAugmentRestoresExactly) {
  // `a` fits {A, C}, `b` fits {B, D}, `c` fits {A, B}, `e` fits {E}.
  Schema schema({{"a", ValueType::kInt, false},
                 {"b", ValueType::kInt, false},
                 {"c", ValueType::kInt, false},
                 {"e", ValueType::kInt, false}});
  ASSERT_TRUE(rm_.CreateInstanceClass("suite", schema).ok());
  const std::vector<std::string> ids = {"A", "B", "C", "D", "E"};
  const std::vector<PropertyMap> props = {
      {{"a", Value(1)}, {"c", Value(1)}},
      {{"b", Value(1)}, {"c", Value(1)}},
      {{"a", Value(1)}},
      {{"b", Value(1)}},
      {{"e", Value(1)}}};
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(rm_.AddInstance("suite", ids[i], props[i]).ok());
  }
  auto fits = [](const std::string& name, int64_t count) {
    return Predicate::Property(
        "suite", Expr::Compare(name, CompareOp::kEq, Value(1)), count);
  };
  auto statuses = [&] {
    auto txn = tm_.Begin();
    std::vector<InstanceStatus> out;
    for (const std::string& id : ids) {
      out.push_back(*rm_.GetInstanceStatus(txn.get(), "suite", id));
    }
    return out;
  };
  TentativeEngine engine("suite", Ctx());
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(GrantThrough(&engine, 1, {fits("a", 1)}, txn.get()).ok());
    ASSERT_TRUE(GrantThrough(&engine, 2, {fits("b", 1)}, txn.get()).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const std::string before = engine.SerializeState();
  const std::vector<InstanceStatus> before_status = statuses();
  EXPECT_EQ(before_status,
            (std::vector<InstanceStatus>{
                InstanceStatus::kPromised, InstanceStatus::kPromised,
                InstanceStatus::kAvailable, InstanceStatus::kAvailable,
                InstanceStatus::kAvailable}));
  {
    auto txn = tm_.Begin();
    // A grant that writes a status first, so the rollback has RM
    // writes to undo as well.
    ASSERT_TRUE(GrantThrough(&engine, 3, {fits("e", 1)}, txn.get()).ok());
    // Unit 1 of `c` moves demand 1 from A to C; unit 2 moves demand 2
    // from B to D and unit 1 from A to B; unit 3 finds no path.
    EXPECT_EQ(GrantThrough(&engine, 4, {fits("c", 3)}, txn.get()).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_NE(engine.SerializeState(), before);
    ASSERT_TRUE(txn->Rollback().ok());
    (void)table_.Remove(PromiseId(3));
  }
  EXPECT_EQ(engine.SerializeState(), before);
  EXPECT_EQ(statuses(), before_status);
  EXPECT_EQ(engine.reallocations(), 0u);

  // The engine goes on from the restored state.
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 5, {fits("c", 2)}, txn.get()).ok());
  EXPECT_EQ(engine.reallocations(), 2u);  // rights A and B changed hands
  EXPECT_TRUE(engine.VerifyConsistent(txn.get(), clock_.Now()).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(statuses(),
            (std::vector<InstanceStatus>{
                InstanceStatus::kPromised, InstanceStatus::kPromised,
                InstanceStatus::kPromised, InstanceStatus::kPromised,
                InstanceStatus::kAvailable}));
}

TEST_F(EngineTest, TentativeEngineMirrorsRehousingFoundBySync) {
  TentativeEngine engine("room", Ctx());
  Predicate view = Predicate::Property(
      "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 1);
  Predicate five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 1);
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(GrantThrough(&engine, 1, {view}, txn.get()).ok());  // 301
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    // Taken straight through the resource manager: no engine call.
    auto txn = tm_.Begin();
    ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "301",
                                      InstanceStatus::kTaken)
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The next grant's Sync moves the view promise to 512; that move must
  // show in 512's status as well as the grant's own pick.
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 2, {five}, txn.get()).ok());
  EXPECT_EQ(*engine.ResolveInstance(txn.get(), PromiseId(1), view, 0), "512");
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "512"),
            InstanceStatus::kPromised);
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "504"),
            InstanceStatus::kPromised);
}

TEST_F(EngineTest, TentativeEngineCandidateCacheFollowsPropertyWrites) {
  TentativeEngine engine("room", Ctx());
  Predicate five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 1);
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(GrantThrough(&engine, 1, {five}, txn.get()).ok());
    ASSERT_TRUE(GrantThrough(&engine, 2, {five}, txn.get()).ok());
    EXPECT_FALSE(GrantThrough(&engine, 3, {five}, txn.get()).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    // A property write that rolls back leaves the candidate set as it
    // was (the undo moves the shape version too).
    auto txn = tm_.Begin();
    ASSERT_TRUE(
        rm_.SetInstanceProperty(txn.get(), "room", "301", "floor", Value(5))
            .ok());
    ASSERT_TRUE(txn->Rollback().ok());
  }
  {
    auto txn = tm_.Begin();
    EXPECT_FALSE(GrantThrough(&engine, 3, {five}, txn.get()).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    // A committed write makes 301 a fifth-floor room for new grants.
    auto txn = tm_.Begin();
    ASSERT_TRUE(
        rm_.SetInstanceProperty(txn.get(), "room", "301", "floor", Value(5))
            .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 3, {five}, txn.get()).ok());
  EXPECT_EQ(*engine.ResolveInstance(txn.get(), PromiseId(3), five, 0), "301");
}

// A "tent1" blob, the rooms it was written against and the history that
// wrote it, kept as a fixture: the state blob's format must not drift,
// and a checkpoint written before the journaled engine must restore.
TEST(TentativeCheckpointTest, FixtureBlobRoundTripsAndGoesOnGranting) {
  // Written by the snapshot-undo engine (before journaled undo) for the
  // history below.
  const std::string kFixture =
      "5:tent11:62:r11:12:r21:12:r31:12:r41:02:r51:12:r61:11:51:11:41:41:"
      "01:21:41:51:21:21:41:01:21:41:51:31:11:31:01:11:21:41:01:31:01:11:"
      "21:51:51:11:51:31:137:count('room' where view == true) >= 21:21:11:"
      "21:235:count('room' where floor <= 2) >= 21:21:31:41:323:available("
      "'room', 'r6')1:11:51:71:2";
  SimulatedClock clock{1000};
  TransactionManager tm{50};
  ResourceManager rm;
  PromiseTable table;
  Schema schema({{"floor", ValueType::kInt, false},
                 {"view", ValueType::kBool, false}});
  ASSERT_TRUE(rm.CreateInstanceClass("room", schema).ok());
  struct Room {
    const char* id;
    int floor;
    bool view;
  };
  const Room rooms[] = {{"r1", 1, true},  {"r2", 2, false}, {"r3", 2, true},
                        {"r4", 3, false}, {"r5", 3, true},  {"r6", 4, true}};
  for (const Room& r : rooms) {
    ASSERT_TRUE(rm.AddInstance("room", r.id,
                               {{"floor", Value(r.floor)},
                                {"view", Value(r.view)}})
                    .ok());
  }
  EngineContext ctx{&rm, &table, &clock};
  auto grant = [&](TentativeEngine* engine, uint64_t id, Predicate p,
                   Transaction* txn) {
    PromiseRecord r;
    r.id = PromiseId(id);
    r.owner = ClientId(1);
    r.predicates = {p};
    r.granted_at = clock.Now();
    r.expires_at = clock.Now() + 1'000'000;
    (void)table.Insert(r);
    return engine->Reserve(txn, r, p);
  };
  Predicate view = Predicate::Property(
      "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 2);
  Predicate low = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kLe, Value(2)), 2);
  Predicate third = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(3)), 1);

  TentativeEngine writer("room", ctx);
  {
    auto txn = tm.Begin();
    ASSERT_TRUE(grant(&writer, 1, view, txn.get()).ok());
    ASSERT_TRUE(grant(&writer, 2, low, txn.get()).ok());
    ASSERT_TRUE(grant(&writer, 3, Predicate::Named("room", "r6"), txn.get())
                    .ok());
    ASSERT_TRUE(grant(&writer, 4, third, txn.get()).ok());
    ASSERT_TRUE(writer.Unreserve(txn.get(), PromiseId(4), third).ok());
    (void)table.Remove(PromiseId(4));
    ASSERT_TRUE(rm.SetInstanceStatus(txn.get(), "room", "r4",
                                     InstanceStatus::kTaken)
                    .ok());
    ASSERT_TRUE(writer.VerifyConsistent(txn.get(), clock.Now()).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Same history, same bytes.
  EXPECT_EQ(writer.SerializeState(), kFixture);

  // A fresh engine restores the fixture and carries on from it.
  TentativeEngine restored("room", ctx);
  ASSERT_TRUE(restored.RestoreState(kFixture).ok());
  EXPECT_EQ(restored.SerializeState(), kFixture);
  EXPECT_EQ(restored.reallocations(), 2u);
  auto txn = tm.Begin();
  EXPECT_TRUE(restored.VerifyConsistent(txn.get(), clock.Now()).ok());
  EXPECT_EQ(*restored.ResolveInstance(txn.get(), PromiseId(3),
                                      Predicate::Named("room", "r6"), 0),
            "r6");
  // Every untaken room is held; freeing p2 makes room for a floor<=2
  // grant, which must displace nothing the restored matching promised.
  EXPECT_FALSE(grant(&restored, 5, low, txn.get()).ok());
  (void)table.Remove(PromiseId(5));
  ASSERT_TRUE(restored.Unreserve(txn.get(), PromiseId(2), low).ok());
  (void)table.Remove(PromiseId(2));
  ASSERT_TRUE(grant(&restored, 6, low, txn.get()).ok());
  EXPECT_TRUE(restored.VerifyConsistent(txn.get(), clock.Now()).ok());
  ASSERT_TRUE(txn->Commit().ok());
}

// --- SatisfiabilityEngine ----------------------------------------------

TEST_F(EngineTest, SatisfiabilityPoolSumsPromises) {
  SatisfiabilityEngine engine("widget", /*is_pool=*/true, Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1,
                           {Predicate::Quantity("widget", CompareOp::kGe, 6)},
                           txn.get())
                  .ok());
  ASSERT_TRUE(GrantThrough(&engine, 2,
                           {Predicate::Quantity("widget", CompareOp::kGe, 4)},
                           txn.get())
                  .ok());
  EXPECT_EQ(
      GrantThrough(&engine, 3,
                   {Predicate::Quantity("widget", CompareOp::kGe, 1)},
                   txn.get())
          .code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, SatisfiabilityInstanceMatching) {
  SatisfiabilityEngine engine("room", /*is_pool=*/false, Ctx());
  auto txn = tm_.Begin();
  Predicate view = Predicate::Property(
      "room", Expr::Compare("view", CompareOp::kEq, Value(true)), 1);
  Predicate five = Predicate::Property(
      "room", Expr::Compare("floor", CompareOp::kEq, Value(5)), 1);
  ASSERT_TRUE(GrantThrough(&engine, 1, {view}, txn.get()).ok());
  ASSERT_TRUE(GrantThrough(&engine, 2, {five}, txn.get()).ok());
  ASSERT_TRUE(GrantThrough(&engine, 3, {five}, txn.get()).ok());
  EXPECT_FALSE(GrantThrough(&engine, 4, {view}, txn.get()).ok());
}

TEST_F(EngineTest, SatisfiabilityNamedExcludedFromAnonymousCount) {
  // §3.2: a promised named seat must not satisfy anonymous promises.
  SatisfiabilityEngine engine("room", false, Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1, {Predicate::Named("room", "512")},
                           txn.get())
                  .ok());
  Predicate any3 = Predicate::Property("room", Expr::Const(true), 3);
  EXPECT_FALSE(GrantThrough(&engine, 2, {any3}, txn.get()).ok());
  Predicate any2 = Predicate::Property("room", Expr::Const(true), 2);
  EXPECT_TRUE(GrantThrough(&engine, 3, {any2}, txn.get()).ok());
}

TEST_F(EngineTest, SatisfiabilityVerifyAfterConsumption) {
  SatisfiabilityEngine engine("room", false, Ctx());
  auto txn = tm_.Begin();
  Predicate any2 = Predicate::Property("room", Expr::Const(true), 2);
  ASSERT_TRUE(GrantThrough(&engine, 1, {any2}, txn.get()).ok());
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "301",
                                    InstanceStatus::kTaken)
                  .ok());
  EXPECT_TRUE(engine.VerifyConsistent(txn.get(), clock_.Now()).ok());
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "504",
                                    InstanceStatus::kTaken)
                  .ok());
  EXPECT_TRUE(
      engine.VerifyConsistent(txn.get(), clock_.Now()).IsViolated());
}

TEST_F(EngineTest, SatisfiabilityResolveDiscountsTakenUnits) {
  SatisfiabilityEngine engine("room", false, Ctx());
  auto txn = tm_.Begin();
  Predicate any2 = Predicate::Property("room", Expr::Const(true), 2);
  ASSERT_TRUE(GrantThrough(&engine, 1, {any2}, txn.get()).ok());
  auto first = engine.ResolveInstance(txn.get(), PromiseId(1), any2, 0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", *first,
                                    InstanceStatus::kTaken)
                  .ok());
  auto second = engine.ResolveInstance(txn.get(), PromiseId(1), any2, 1);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(*first, *second);
}

TEST_F(EngineTest, SatisfiabilityExpiredPromisesFreeResources) {
  SatisfiabilityEngine engine("widget", true, Ctx());
  auto txn = tm_.Begin();
  ASSERT_TRUE(GrantThrough(&engine, 1,
                           {Predicate::Quantity("widget", CompareOp::kGe, 10)},
                           txn.get(), /*duration=*/100)
                  .ok());
  EXPECT_FALSE(GrantThrough(&engine, 2,
                            {Predicate::Quantity("widget", CompareOp::kGe, 1)},
                            txn.get())
                   .ok());
  clock_.Advance(200);  // promise 1 lapses
  EXPECT_TRUE(GrantThrough(&engine, 3,
                           {Predicate::Quantity("widget", CompareOp::kGe, 10)},
                           txn.get())
                  .ok());
}

// --- Differential test: tentative engine vs from-scratch matching ------

/// The tentative engine's "tent1" state blob, parsed.
struct TentState {
  struct Demand {
    uint64_t id = 0;
    int64_t matched = -1;
    std::vector<size_t> candidates;
  };
  std::vector<std::string> rights;  // right index -> instance id
  std::vector<bool> enabled;
  std::vector<Demand> demands;
  std::map<uint64_t, std::vector<uint64_t>> ledger;  // promise -> demands
};

TentState ParseTentState(const std::string& blob) {
  TentState state;
  if (blob.empty()) return state;
  std::string_view cursor(blob);
  auto field = [&cursor] {
    Result<std::string> f = DecodeField(&cursor);
    EXPECT_TRUE(f.ok());
    return f.ok() ? *f : std::string("0");
  };
  auto number = [&field] { return std::stoll(field()); };
  EXPECT_EQ(field(), "tent1");
  for (int64_t i = 0, n = number(); i < n; ++i) {
    state.rights.push_back(field());
    state.enabled.push_back(field() == "1");
  }
  for (int64_t i = 0, n = number(); i < n; ++i) {
    TentState::Demand d;
    d.id = static_cast<uint64_t>(number());
    d.matched = number();
    for (int64_t j = 0, m = number(); j < m; ++j) {
      d.candidates.push_back(static_cast<size_t>(number()));
    }
    state.demands.push_back(std::move(d));
  }
  for (int64_t i = 0, n = number(); i < n; ++i) {
    uint64_t promise = static_cast<uint64_t>(number());
    (void)field();  // predicate text
    for (int64_t j = 0, m = number(); j < m; ++j) {
      state.ledger[promise].push_back(static_cast<uint64_t>(number()));
    }
  }
  return state;
}

/// Actions that write the resource manager without holding a promise:
/// `take` marks an instance taken, `book_then_fail` consumes a promised
/// instance and then fails (so the whole action rolls back).
ServiceFn MakeRawRoomService() {
  return [](ActionContext* ctx, const std::string& op,
            const std::map<std::string, Value>& params)
             -> Result<std::map<std::string, Value>> {
    if (op == "take") {
      PROMISES_RETURN_IF_ERROR(ctx->rm()->SetInstanceStatus(
          ctx->txn(), "room", params.at("instance").as_string(),
          InstanceStatus::kTaken));
      return std::map<std::string, Value>{};
    }
    if (op == "book_then_fail") {
      PromiseId promise(static_cast<uint64_t>(params.at("promise").as_int()));
      PROMISES_RETURN_IF_ERROR(ctx->TakeInstance(promise, "room").status());
      return Status::Internal("injected failure after booking");
    }
    return Status::NotFound("raw: unknown operation '" + op + "'");
  };
}

class TentativeDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kRooms = 12;

  void SetUp() override {
    Schema schema({{"floor", ValueType::kInt, false},
                   {"view", ValueType::kBool, false},
                   {"grade", ValueType::kInt, false}});
    ASSERT_TRUE(rm_.CreateInstanceClass("room", schema).ok());
    for (int i = 0; i < kRooms; ++i) {
      ASSERT_TRUE(rm_.AddInstance("room", RoomId(i),
                                  {{"floor", Value(1 + i % 4)},
                                   {"view", Value(i % 3 != 0)},
                                   {"grade", Value(1 + i % 3)}})
                      .ok());
    }
    PromiseManagerConfig config;
    config.name = "differential";
    config.default_duration_ms = 1'000'000'000;
    config.policy.Set("room", Technique::kTentative);
    pm_ = std::make_unique<PromiseManager>(config, &clock_, &rm_, &tm_);
    pm_->RegisterService("booking", MakeBookingService());
    pm_->RegisterService("raw", MakeRawRoomService());
    client_ = pm_->ClientFor("guest");
  }

  static std::string RoomId(int i) {
    return std::string(i < 10 ? "r0" : "r") + std::to_string(i);
  }

  std::vector<InstanceView> Rooms() { return *rm_.ExportInstances("room"); }

  TentState State() {
    ResourceEngine* engine = pm_->EngineIfExists("room");
    return engine == nullptr ? TentState{}
                             : ParseTentState(engine->SerializeState());
  }

  /// Rooms (ids, in id order) a fresh demand of `pred` may use.
  std::vector<std::string> FreshCandidates(const Predicate& pred) {
    std::vector<std::string> out;
    for (const InstanceView& room : Rooms()) {
      if (pred.kind() == PredicateKind::kNamed) {
        if (room.id == pred.instance_id()) out.push_back(room.id);
      } else if (*InstanceMatches(pred, room, rm_.GetSchema("room"))) {
        out.push_back(room.id);
      }
    }
    return out;
  }

  /// From scratch: can every registered demand plus `request`'s units
  /// be matched to distinct untaken rooms, with `also_taken` taken too?
  bool Satisfiable(const std::vector<Predicate>& request,
                   const std::string& also_taken = "") {
    TentState state = State();
    std::vector<InstanceView> rooms = Rooms();
    std::map<std::string, size_t> right_of;
    for (size_t i = 0; i < rooms.size(); ++i) {
      if (rooms[i].status != InstanceStatus::kTaken &&
          rooms[i].id != also_taken) {
        right_of[rooms[i].id] = i;
      }
    }
    std::vector<std::vector<size_t>> left;
    for (const TentState::Demand& d : state.demands) {
      std::vector<size_t> edges;
      for (size_t c : d.candidates) {
        auto it = right_of.find(state.rights[c]);
        if (it != right_of.end()) edges.push_back(it->second);
      }
      left.push_back(std::move(edges));
    }
    for (const Predicate& pred : request) {
      std::vector<size_t> edges;
      for (const std::string& id : FreshCandidates(pred)) {
        auto it = right_of.find(id);
        if (it != right_of.end()) edges.push_back(it->second);
      }
      int64_t units = pred.kind() == PredicateKind::kNamed ? 1 : pred.count();
      for (int64_t u = 0; u < units; ++u) left.push_back(edges);
    }
    BipartiteGraph graph(left.size(), rooms.size());
    for (size_t l = 0; l < left.size(); ++l) {
      for (size_t r : left[l]) graph.AddEdge(l, r);
    }
    return MaxMatching(graph).Saturating();
  }

  /// Every active demand is matched to an enabled candidate, no right
  /// has two owners, and a room reads 'promised' exactly when matched.
  void ExpectInvariants(int step) {
    TentState state = State();
    std::set<uint64_t> ledgered;
    for (const auto& [promise, demands] : state.ledger) {
      EXPECT_NE(pm_->FindPromise(PromiseId(promise)), nullptr)
          << "step " << step << ": ledger holds a dead promise";
      ledgered.insert(demands.begin(), demands.end());
    }
    EXPECT_EQ(ledgered.size(), state.demands.size()) << "step " << step;
    std::set<size_t> owned;
    for (const TentState::Demand& d : state.demands) {
      EXPECT_EQ(ledgered.count(d.id), 1u) << "step " << step;
      ASSERT_GE(d.matched, 0) << "step " << step << ": demand " << d.id
                              << " unmatched";
      size_t r = static_cast<size_t>(d.matched);
      EXPECT_TRUE(state.enabled[r]) << "step " << step;
      EXPECT_NE(std::find(d.candidates.begin(), d.candidates.end(), r),
                d.candidates.end())
          << "step " << step;
      EXPECT_TRUE(owned.insert(r).second)
          << "step " << step << ": right " << r << " has two owners";
    }
    if (state.rights.empty()) return;
    for (const InstanceView& room : Rooms()) {
      auto at = std::find(state.rights.begin(), state.rights.end(), room.id);
      ASSERT_NE(at, state.rights.end()) << room.id;
      size_t r = static_cast<size_t>(at - state.rights.begin());
      bool matched = owned.count(r) > 0;
      if (room.status == InstanceStatus::kTaken) {
        EXPECT_FALSE(matched) << "step " << step << ": " << room.id;
        EXPECT_FALSE(state.enabled[r]) << "step " << step << ": " << room.id;
      } else {
        EXPECT_TRUE(state.enabled[r]) << "step " << step << ": " << room.id;
        EXPECT_EQ(room.status == InstanceStatus::kPromised, matched)
            << "step " << step << ": " << room.id;
      }
    }
  }

  Result<ActionOutcome> Act(const std::string& service, const std::string& op,
                            std::map<std::string, Value> params,
                            PromiseId promise = PromiseId()) {
    ActionBody action;
    action.service = service;
    action.operation = op;
    action.params = std::move(params);
    action.params["class"] = Value("room");
    EnvironmentHeader env;
    if (promise.valid()) {
      action.params["promise"] = Value(static_cast<int64_t>(promise.value()));
      env.entries.push_back({promise, true});
    }
    return pm_->Execute(client_, action, env);
  }

  SimulatedClock clock_{1000};
  TransactionManager tm_{100};
  ResourceManager rm_;
  std::unique_ptr<PromiseManager> pm_;
  ClientId client_;
};

TEST_F(TentativeDifferentialTest, RandomOperationsAgreeWithMaxMatching) {
  const std::vector<ExprPtr> shapes = {
      Expr::Compare("floor", CompareOp::kEq, Value(1)),
      Expr::Compare("floor", CompareOp::kGe, Value(3)),
      Expr::Compare("view", CompareOp::kEq, Value(true)),
      Expr::And(Expr::Compare("grade", CompareOp::kEq, Value(2)),
                Expr::Compare("view", CompareOp::kEq, Value(true))),
      Expr::Or(Expr::Compare("view", CompareOp::kEq, Value(false)),
               Expr::Compare("floor", CompareOp::kLe, Value(2))),
  };
  Rng rng(2024);
  auto random_room = [&] {
    return RoomId(static_cast<int>(rng.UniformInt(0, kRooms - 1)));
  };
  auto random_predicate = [&] {
    if (rng.Chance(0.15)) return Predicate::Named("room", random_room());
    return Predicate::Property(
        "room", shapes[static_cast<size_t>(rng.UniformInt(0, 4))],
        rng.UniformInt(1, 2));
  };
  std::vector<PromiseId> held;
  std::vector<std::string> occupied;
  auto pick = [&](auto& list) {
    size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(list.size()) - 1));
    auto value = list[i];
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
    return value;
  };
  int granted = 0, refused = 0, books = 0, takes_refused = 0;

  for (int step = 0; step < 2000; ++step) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // grant; one in five also asks for an impossible count
        std::vector<Predicate> request = {random_predicate()};
        if (rng.Chance(0.2)) {
          request.push_back(Predicate::Property("room", shapes[2],
                                                kRooms + 1));
        }
        const bool expected = Satisfiable(request);
        auto out = pm_->RequestPromise(client_, request);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        ASSERT_EQ(out->accepted, expected)
            << "step " << step << ": " << request[0].ToString() << " — "
            << out->reason;
        if (!out->accepted) {
          ++refused;
          break;
        }
        ++granted;
        held.push_back(out->promise_id);
        // The new demands use the candidates the rooms have now, not a
        // stale cached set.
        TentState state = State();
        std::vector<std::string> want = FreshCandidates(request[0]);
        for (uint64_t d : state.ledger[out->promise_id.value()]) {
          for (const TentState::Demand& demand : state.demands) {
            if (demand.id != d) continue;
            std::vector<std::string> got;
            for (size_t c : demand.candidates) {
              got.push_back(state.rights[c]);
            }
            EXPECT_EQ(got, want) << "step " << step;
          }
        }
        break;
      }
      case 4:
      case 5: {  // book one room under a held promise, releasing it
        if (held.empty()) break;
        PromiseId promise = pick(held);
        auto out = Act("booking", "book", {}, promise);
        ASSERT_TRUE(out.ok() && out->ok)
            << "step " << step << ": " << (out.ok() ? out->error : "");
        occupied.push_back(out->outputs.at("booked").as_string());
        ++books;
        break;
      }
      case 6: {  // vacate
        if (occupied.empty()) break;
        auto out = Act("booking", "vacate", {{"instance", Value(pick(occupied))}});
        ASSERT_TRUE(out.ok() && out->ok) << "step " << step;
        break;
      }
      case 7: {  // release
        if (held.empty()) break;
        ASSERT_TRUE(pm_->Release(client_, {pick(held)}).ok());
        break;
      }
      case 8: {
        std::string room = random_room();
        if (rng.Chance(0.5)) {
          // An unprotected take: the manager refuses it exactly when no
          // rearrangement can keep every promise.
          if (std::find(occupied.begin(), occupied.end(), room) !=
              occupied.end()) {
            break;
          }
          const bool expected = Satisfiable({}, room);
          auto out = Act("raw", "take", {{"instance", Value(room)}});
          ASSERT_TRUE(out.ok());
          ASSERT_EQ(out->ok, expected) << "step " << step << ": " << room;
          if (out->ok) {
            occupied.push_back(room);
          } else {
            ++takes_refused;
          }
        } else {
          // A property write straight to the resource manager, behind
          // the manager's back; a quarter of them roll back.
          auto txn = tm_.Begin();
          ASSERT_TRUE(rm_.SetInstanceProperty(txn.get(), "room", room,
                                              "floor",
                                              Value(rng.UniformInt(1, 4)))
                          .ok());
          ASSERT_TRUE((rng.Chance(0.25) ? txn->Rollback() : txn->Commit())
                          .ok());
        }
        break;
      }
      case 9: {  // an action that books, then fails and rolls back
        if (held.empty()) break;
        PromiseId promise = held[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1))];
        const std::string before =
            pm_->EngineIfExists("room")->SerializeState();
        auto out = Act("raw", "book_then_fail", {}, promise);
        ASSERT_TRUE(out.ok());
        EXPECT_FALSE(out->ok);
        EXPECT_EQ(pm_->EngineIfExists("room")->SerializeState(), before)
            << "step " << step;
        break;
      }
    }
    ExpectInvariants(step);
    if (HasFatalFailure()) return;
  }
  // The stream exercised every path.
  EXPECT_GT(granted, 100);
  EXPECT_GT(refused, 50);
  EXPECT_GT(books, 50);
  EXPECT_GT(takes_refused, 0);
  EXPECT_GT(static_cast<TentativeEngine*>(pm_->EngineIfExists("room"))
                ->reallocations(),
            0u);
}

}  // namespace
}  // namespace promises

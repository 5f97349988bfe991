// Tests for Value, Schema and the transactional ResourceManager.

#include <gtest/gtest.h>

#include "resource/resource_manager.h"
#include "resource/schema.h"
#include "resource/value.h"

namespace promises {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(7).is_numeric());
  EXPECT_TRUE(Value(2.5).is_numeric());
  EXPECT_FALSE(Value("s").is_numeric());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(*Value(3).Compare(Value(3.0)), 0);
  EXPECT_EQ(*Value(2).Compare(Value(2.5)), -1);
  EXPECT_EQ(*Value(3.5).Compare(Value(3)), 1);
}

TEST(ValueTest, StringComparison) {
  EXPECT_EQ(*Value("a").Compare(Value("b")), -1);
  EXPECT_EQ(*Value("b").Compare(Value("b")), 0);
  EXPECT_EQ(*Value("c").Compare(Value("b")), 1);
}

TEST(ValueTest, BoolComparison) {
  EXPECT_EQ(*Value(false).Compare(Value(true)), -1);
  EXPECT_TRUE(Value(true).Equals(Value(true)));
}

TEST(ValueTest, IncomparableTypesError) {
  EXPECT_FALSE(Value("s").Compare(Value(3)).ok());
  EXPECT_FALSE(Value(true).Compare(Value(1)).ok());
  EXPECT_FALSE(Value("s").Equals(Value(3)));  // unequal, not an error
}

struct FromTextCase {
  const char* text;
  ValueType type;
};

// Names each case by its input text; without this gtest prints the raw
// bytes of the struct, pointer included, so test names change every run.
void PrintTo(const FromTextCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.text));
}

class ValueFromTextTest : public ::testing::TestWithParam<FromTextCase> {};

TEST_P(ValueFromTextTest, ParsesToExpectedType) {
  Value v = Value::FromText(GetParam().text);
  EXPECT_EQ(v.type(), GetParam().type) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ValueFromTextTest,
    ::testing::Values(FromTextCase{"true", ValueType::kBool},
                      FromTextCase{"false", ValueType::kBool},
                      FromTextCase{"42", ValueType::kInt},
                      FromTextCase{"-3", ValueType::kInt},
                      FromTextCase{"2.75", ValueType::kDouble},
                      FromTextCase{"hello", ValueType::kString},
                      FromTextCase{"  7 ", ValueType::kInt},
                      FromTextCase{"7up", ValueType::kString}));

TEST(ValueTest, ToStringFromTextRoundTrip) {
  for (Value v : {Value(true), Value(false), Value(int64_t{-12}),
                  Value("room-512")}) {
    Value back = Value::FromText(v.ToString());
    EXPECT_EQ(back.type(), v.type());
    EXPECT_TRUE(back.Equals(v)) << v.ToString();
  }
}

TEST(SchemaTest, FindAndHas) {
  Schema s({{"floor", ValueType::kInt, false},
            {"view", ValueType::kBool, false}});
  EXPECT_TRUE(s.Has("floor"));
  EXPECT_FALSE(s.Has("grade"));
  ASSERT_NE(s.Find("view"), nullptr);
  EXPECT_EQ(s.Find("view")->type, ValueType::kBool);
}

TEST(SchemaTest, ValidatePropertiesChecksNamesAndTypes) {
  Schema s({{"floor", ValueType::kInt, false}});
  EXPECT_TRUE(s.ValidateProperties({{"floor", Value(5)}}).ok());
  EXPECT_FALSE(s.ValidateProperties({{"color", Value("red")}}).ok());
  EXPECT_FALSE(s.ValidateProperties({{"floor", Value("five")}}).ok());
  EXPECT_TRUE(s.ValidateProperties({}).ok());  // sparse allowed
}

TEST(SchemaTest, ExportsIsPolymorphismTest) {
  Schema wide({{"floor", ValueType::kInt, false},
               {"view", ValueType::kBool, false}});
  Schema narrow({{"floor", ValueType::kInt, false}});
  EXPECT_TRUE(wide.Exports(narrow));
  EXPECT_FALSE(narrow.Exports(wide));
  Schema mismatched({{"floor", ValueType::kString, false}});
  EXPECT_FALSE(wide.Exports(mismatched));
}

// ---------------------------------------------------------------------

class ResourceManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rm_.CreatePool("widget", 10).ok());
    Schema schema({{"floor", ValueType::kInt, false},
                   {"view", ValueType::kBool, false}});
    ASSERT_TRUE(rm_.CreateInstanceClass("room", schema).ok());
    ASSERT_TRUE(
        rm_.AddInstance("room", "101", {{"floor", Value(1)}}).ok());
    ASSERT_TRUE(rm_.AddInstance("room", "512",
                                {{"floor", Value(5)}, {"view", Value(true)}})
                    .ok());
  }

  TransactionManager tm_{50};
  ResourceManager rm_;
};

TEST_F(ResourceManagerTest, DuplicateClassNamesRejected) {
  EXPECT_TRUE(rm_.CreatePool("widget", 1).IsConflict() ||
              rm_.CreatePool("widget", 1).code() ==
                  StatusCode::kAlreadyExists);
  EXPECT_EQ(rm_.CreateInstanceClass("room", Schema()).code(),
            StatusCode::kAlreadyExists);
  // Pool and instance namespaces are shared.
  EXPECT_EQ(rm_.CreatePool("room", 5).code(), StatusCode::kAlreadyExists);
}

TEST_F(ResourceManagerTest, NegativeInitialQuantityRejected) {
  EXPECT_FALSE(rm_.CreatePool("bad", -1).ok());
}

TEST_F(ResourceManagerTest, DuplicateInstanceRejected) {
  EXPECT_EQ(rm_.AddInstance("room", "101", {}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ResourceManagerTest, InstancePropertiesValidatedAgainstSchema) {
  EXPECT_FALSE(rm_.AddInstance("room", "x", {{"bogus", Value(1)}}).ok());
}

TEST_F(ResourceManagerTest, QuantityAdjustAndFloor) {
  auto txn = tm_.Begin();
  EXPECT_EQ(*rm_.GetQuantity(txn.get(), "widget"), 10);
  EXPECT_TRUE(rm_.AdjustQuantity(txn.get(), "widget", -4).ok());
  EXPECT_EQ(*rm_.GetQuantity(txn.get(), "widget"), 6);
  Status st = rm_.AdjustQuantity(txn.get(), "widget", -7);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(*rm_.GetQuantity(txn.get(), "widget"), 6);  // unchanged
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_F(ResourceManagerTest, QuantityRollbackRestores) {
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(rm_.AdjustQuantity(txn.get(), "widget", -9).ok());
    ASSERT_TRUE(txn->Rollback().ok());
  }
  auto txn = tm_.Begin();
  EXPECT_EQ(*rm_.GetQuantity(txn.get(), "widget"), 10);
}

TEST_F(ResourceManagerTest, UnknownPoolReported) {
  auto txn = tm_.Begin();
  EXPECT_TRUE(rm_.GetQuantity(txn.get(), "nope").status().IsNotFound());
  EXPECT_TRUE(rm_.AdjustQuantity(txn.get(), "nope", 1).IsNotFound());
}

TEST_F(ResourceManagerTest, InstanceStatusLifecycleWithUndo) {
  {
    auto txn = tm_.Begin();
    EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "512"),
              InstanceStatus::kAvailable);
    ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "512",
                                      InstanceStatus::kPromised)
                    .ok());
    ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "512",
                                      InstanceStatus::kTaken)
                    .ok());
    ASSERT_TRUE(txn->Rollback().ok());
  }
  auto txn = tm_.Begin();
  EXPECT_EQ(*rm_.GetInstanceStatus(txn.get(), "room", "512"),
            InstanceStatus::kAvailable);
}

TEST_F(ResourceManagerTest, PropertyUpdateWithUndo) {
  {
    auto txn = tm_.Begin();
    ASSERT_TRUE(rm_.SetInstanceProperty(txn.get(), "room", "101", "view",
                                        Value(true))
                    .ok());
    ASSERT_TRUE(
        rm_.SetInstanceProperty(txn.get(), "room", "101", "floor", Value(9))
            .ok());
    ASSERT_TRUE(txn->Rollback().ok());
  }
  auto txn = tm_.Begin();
  InstanceView v = *rm_.GetInstance(txn.get(), "room", "101");
  EXPECT_EQ(v.properties.count("view"), 0u);  // newly-added prop removed
  EXPECT_EQ(v.properties.at("floor").as_int(), 1);  // restored
}

TEST_F(ResourceManagerTest, PropertyUpdateValidatesSchema) {
  auto txn = tm_.Begin();
  EXPECT_FALSE(rm_.SetInstanceProperty(txn.get(), "room", "101", "bogus",
                                       Value(1))
                   .ok());
  EXPECT_FALSE(rm_.SetInstanceProperty(txn.get(), "room", "101", "view",
                                       Value("yes"))
                   .ok());
}

TEST_F(ResourceManagerTest, ListAndCount) {
  auto txn = tm_.Begin();
  auto list = *rm_.ListInstances(txn.get(), "room");
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(*rm_.CountAvailable(txn.get(), "room"), 2);
  ASSERT_TRUE(rm_.SetInstanceStatus(txn.get(), "room", "101",
                                    InstanceStatus::kTaken)
                  .ok());
  EXPECT_EQ(*rm_.CountAvailable(txn.get(), "room"), 1);
}

TEST_F(ResourceManagerTest, ClassEnumeration) {
  EXPECT_EQ(rm_.PoolClasses(), (std::vector<std::string>{"widget"}));
  EXPECT_EQ(rm_.InstanceClasses(), (std::vector<std::string>{"room"}));
  EXPECT_TRUE(rm_.HasPool("widget"));
  EXPECT_FALSE(rm_.HasPool("room"));
  EXPECT_TRUE(rm_.HasInstanceClass("room"));
  ASSERT_NE(rm_.GetSchema("room"), nullptr);
  EXPECT_EQ(rm_.GetSchema("widget"), nullptr);
}

TEST_F(ResourceManagerTest, WriteLocksIsolateConcurrentTxns) {
  auto a = tm_.Begin();
  ASSERT_TRUE(rm_.AdjustQuantity(a.get(), "widget", -1).ok());
  auto b = tm_.Begin();
  // b cannot even read while a holds the write lock (strict 2PL).
  EXPECT_TRUE(rm_.GetQuantity(b.get(), "widget").status().IsTimeout());
  ASSERT_TRUE(a->Commit().ok());
  EXPECT_EQ(*rm_.GetQuantity(b.get(), "widget"), 9);
}

}  // namespace
}  // namespace promises

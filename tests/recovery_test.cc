// Tests for the operation log and manager recovery: a manager rebuilt
// by replaying its log must be observationally identical to the one
// that crashed — same promise ids, same table, same resource state.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/promise_manager.h"
#include "core/tentative_engine.h"
#include "obs/metrics.h"
#include "service/services.h"
#include "txn/lock_manager.h"

namespace promises {
namespace {

class TempLogFile {
 public:
  explicit TempLogFile(const std::string& tag)
      : path_("/tmp/promises_oplog_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log") {
    std::remove(path_.c_str());
  }
  ~TempLogFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(OperationLogTest, AppendAndReadBack) {
  TempLogFile file("basic");
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(log.Append(100, "<a/>").ok());
  ASSERT_TRUE(log.Append(250, "damage|widget|3").ok());
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].timestamp, 100);
  EXPECT_EQ((*records)[0].payload, "<a/>");
  EXPECT_EQ((*records)[1].timestamp, 250);
}

TEST(OperationLogTest, SurvivesReopenAndAppends) {
  TempLogFile file("reopen");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<a/>").ok());
  }
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(2, "<b/>").ok());
  }
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(OperationLogTest, TornTailTruncated) {
  TempLogFile file("torn");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<a/>").ok());
  }
  // Simulate a crash mid-write: append garbage without newline.
  std::FILE* f = std::fopen(file.path().c_str(), "ab");
  std::fputs("9999|12345|7|<torn", f);
  std::fclose(f);
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST(OperationLogTest, CorruptChecksumEndsScan) {
  TempLogFile file("corrupt");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<a/>").ok());
    ASSERT_TRUE(log.Append(2, "<b/>").ok());
  }
  // Flip a byte in the middle record's payload region.
  std::FILE* f = std::fopen(file.path().c_str(), "rb+");
  std::fseek(f, -3, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST(OperationLogTest, RejectsMultilinePayloadAndClosedLog) {
  TempLogFile file("guard");
  OperationLog log;
  EXPECT_FALSE(log.Append(1, "x").ok());  // not open
  ASSERT_TRUE(log.Open(file.path()).ok());
  // v3 records are framed by length: a multi-line payload round-trips.
  ASSERT_TRUE(log.Append(1, "two\nlines").ok());
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "two\nlines");
  EXPECT_TRUE(OperationLog::ReadAll("/no/such/file").status().IsNotFound());
}

// --- Injected mid-append crashes ----------------------------------------

int64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(OperationLogTest, InjectedTornWriteIsTruncatedOnReopen) {
  TempLogFile file("torn_inject");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<first/>").ok());
  }
  const int64_t clean_size = FileSize(file.path());
  ASSERT_GT(clean_size, 0);

  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    log.InjectTornWrite(7);  // crash after 7 bytes of the record
    Status st = log.Append(2, "<second/>");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  }
  // The torn tail reached the file...
  EXPECT_GT(FileSize(file.path()), clean_size);
  // ...and the scan sees only the intact prefix.
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "<first/>");

  // Reopen physically truncates back to the clean prefix, and appends
  // extend it without tripping over the old tail.
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    EXPECT_EQ(FileSize(file.path()), clean_size);
    ASSERT_TRUE(log.Append(3, "<third/>").ok());
  }
  records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1].timestamp, 3);
  EXPECT_EQ((*records)[1].payload, "<third/>");
}

TEST(OperationLogTest, TornWriteMidHeaderAndMidPayloadBothTruncate) {
  for (size_t torn_bytes : {1u, 3u, 12u}) {
    TempLogFile file("torn_at_" + std::to_string(torn_bytes));
    {
      OperationLog log;
      ASSERT_TRUE(log.Open(file.path()).ok());
      ASSERT_TRUE(log.Append(1, "<keep/>").ok());
      log.InjectTornWrite(torn_bytes);
      EXPECT_FALSE(log.Append(2, "<lost-in-the-crash/>").ok());
    }
    OperationLog reopened;
    ASSERT_TRUE(reopened.Open(file.path()).ok()) << torn_bytes;
    reopened.Close();
    auto records = OperationLog::ReadAll(file.path());
    ASSERT_TRUE(records.ok()) << torn_bytes;
    ASSERT_EQ(records->size(), 1u) << torn_bytes;
    EXPECT_EQ((*records)[0].payload, "<keep/>");
  }
}

// --- Manager recovery ---------------------------------------------------

struct WorldParts {
  SimulatedClock clock{0};
  TransactionManager tm{100};
  ResourceManager rm;
  std::unique_ptr<PromiseManager> pm;
  ClientId client;

  WorldParts() {
    (void)rm.CreatePool("stock", 50);
    Schema schema({{"floor", ValueType::kInt, false}});
    (void)rm.CreateInstanceClass("room", schema);
    for (int i = 0; i < 4; ++i) {
      (void)rm.AddInstance("room", "r" + std::to_string(i),
                           {{"floor", Value(1 + i % 2)}});
    }
    PromiseManagerConfig config;
    config.name = "recoverable";
    config.default_duration_ms = 5'000;
    pm = std::make_unique<PromiseManager>(config, &clock, &rm, &tm);
    pm->RegisterService("inventory", MakeInventoryService());
    pm->RegisterService("booking", MakeBookingService());
    client = pm->ClientFor("survivor");
  }
};

void ExpectEquivalent(WorldParts& a, WorldParts& b) {
  EXPECT_EQ(a.pm->active_promises(), b.pm->active_promises());
  auto ta = a.tm.Begin();
  auto tb = b.tm.Begin();
  EXPECT_EQ(*a.rm.GetQuantity(ta.get(), "stock"),
            *b.rm.GetQuantity(tb.get(), "stock"));
  auto rooms_a = *a.rm.ListInstances(ta.get(), "room");
  auto rooms_b = *b.rm.ListInstances(tb.get(), "room");
  ASSERT_EQ(rooms_a.size(), rooms_b.size());
  for (size_t i = 0; i < rooms_a.size(); ++i) {
    EXPECT_EQ(rooms_a[i].id, rooms_b[i].id);
    EXPECT_EQ(rooms_a[i].status, rooms_b[i].status) << rooms_a[i].id;
  }
}

TEST(RecoveryTest, ReplayReproducesGrantsActionsAndIds) {
  TempLogFile file("replay");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());

  // A scripted history: grant, reject, purchase+release, book, update.
  auto g1 = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 20)});
  ASSERT_TRUE(g1.ok() && g1->accepted);
  auto too_big = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 49)});
  ASSERT_TRUE(too_big.ok());
  EXPECT_FALSE(too_big->accepted);  // consumes an id; must replay too

  ActionBody buy;
  buy.service = "inventory";
  buy.operation = "purchase";
  buy.params["item"] = Value("stock");
  buy.params["quantity"] = Value(20);
  buy.params["promise"] = Value(static_cast<int64_t>(g1->promise_id.value()));
  EnvironmentHeader env;
  env.entries.push_back({g1->promise_id, true});
  auto bought = original.pm->Execute(original.client, buy, env);
  ASSERT_TRUE(bought.ok() && bought->ok);

  auto g2 = original.pm->RequestPromise(
      original.client,
      {Predicate::Property("room",
                           Expr::Compare("floor", CompareOp::kEq, Value(1)),
                           1)});
  ASSERT_TRUE(g2.ok() && g2->accepted);
  auto g3 = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 5)}, 0,
      {});
  ASSERT_TRUE(g3.ok() && g3->accepted);
  log.Close();

  // Crash. Rebuild from the log.
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  WorldParts recovered;
  ASSERT_TRUE(
      recovered.pm->ReplayLog(*records, &recovered.clock).ok());

  ExpectEquivalent(original, recovered);
  // Ids must line up: the still-held promises exist under the same ids.
  EXPECT_NE(recovered.pm->FindPromise(g2->promise_id), nullptr);
  EXPECT_NE(recovered.pm->FindPromise(g3->promise_id), nullptr);
  EXPECT_EQ(recovered.pm->FindPromise(g1->promise_id), nullptr);
}

TEST(RecoveryTest, ExpiryDecisionsReplayFromTimestamps) {
  TempLogFile file("expiry");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());

  auto g1 = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 30)},
      1'000);
  ASSERT_TRUE(g1.ok() && g1->accepted);
  original.clock.Advance(2'000);  // g1 lapses
  // This grant only fits because g1 expired; its log timestamp carries
  // that fact into the replay.
  auto g2 = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 40)},
      60'000);
  ASSERT_TRUE(g2.ok() && g2->accepted);
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  EXPECT_EQ(recovered.pm->active_promises(), 1u);
  EXPECT_NE(recovered.pm->FindPromise(g2->promise_id), nullptr);
}

TEST(RecoveryTest, ExternalEventsReplay) {
  TempLogFile file("external");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());

  auto g = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 50)});
  ASSERT_TRUE(g.ok() && g->accepted);
  auto broken = original.pm->ReportExternalDamage("stock", 10);
  ASSERT_TRUE(broken.ok());
  ASSERT_EQ(broken->size(), 1u);
  auto lost = original.pm->ReportInstanceLost("room", "r2");
  ASSERT_TRUE(lost.ok());
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  ExpectEquivalent(original, recovered);
}

TEST(RecoveryTest, AttachGuards) {
  WorldParts world;
  OperationLog closed;
  EXPECT_FALSE(world.pm->AttachLog(&closed).ok());
  EXPECT_FALSE(world.pm->AttachLog(nullptr).ok());
}

// Property: a random operation history replays to an equivalent world.
class RecoveryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryFuzzTest, RandomHistoryReplaysEquivalently) {
  TempLogFile file("fuzz" + std::to_string(GetParam()));
  Rng rng(GetParam() * 31 + 7);
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());

  std::vector<PromiseId> held;
  for (int step = 0; step < 120; ++step) {
    switch (rng.UniformInt(0, 5)) {
      case 0: {
        auto g = original.pm->RequestPromise(
            original.client,
            {Predicate::Quantity("stock", CompareOp::kGe,
                                 rng.UniformInt(1, 15))},
            rng.UniformInt(200, 3'000));
        if (g.ok() && g->accepted) held.push_back(g->promise_id);
        break;
      }
      case 1: {
        auto g = original.pm->RequestPromise(
            original.client,
            {Predicate::Property(
                "room",
                Expr::Compare("floor", CompareOp::kEq,
                              Value(rng.UniformInt(1, 2))),
                1)},
            rng.UniformInt(200, 3'000));
        if (g.ok() && g->accepted) held.push_back(g->promise_id);
        break;
      }
      case 2: {
        if (held.empty()) break;
        size_t pick = rng.NextU64() % held.size();
        (void)original.pm->Release(original.client, {held[pick]});
        held.erase(held.begin() + pick);
        break;
      }
      case 3: {
        ActionBody buy;
        buy.service = "inventory";
        buy.operation = "purchase";
        buy.params["item"] = Value("stock");
        buy.params["quantity"] = Value(rng.UniformInt(1, 4));
        (void)original.pm->Execute(original.client, buy, {});
        break;
      }
      case 4: {
        ActionBody restock;
        restock.service = "inventory";
        restock.operation = "restock";
        restock.params["item"] = Value("stock");
        restock.params["quantity"] = Value(rng.UniformInt(1, 4));
        (void)original.pm->Execute(original.client, restock, {});
        break;
      }
      default:
        original.clock.Advance(rng.UniformInt(0, 800));
        if (rng.Chance(0.1)) {
          (void)original.pm->ReportExternalDamage("stock", 1);
        }
        break;
    }
  }
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok())
      << "seed " << GetParam();
  // Sweep any promises that lapsed between the last logged op and the
  // original's current clock, then compare at the same instant.
  recovered.clock.AdvanceTo(original.clock.Now());
  original.pm->ExpireDue();
  recovered.pm->ExpireDue();
  ExpectEquivalent(original, recovered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

TEST(RecoveryTest, CrashMidAppendRecoversTheCleanPrefix) {
  // A torn write injected while the manager is logging: recovery must
  // replay exactly the operations whose records survived intact.
  TempLogFile file("mid_append");
  PromiseId first_id;
  {
    WorldParts original;
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(original.pm->AttachLog(&log).ok());

    auto g1 = original.pm->RequestPromise(
        original.client, {Predicate::Quantity("stock", CompareOp::kGe, 20)});
    ASSERT_TRUE(g1.ok() && g1->accepted);
    first_id = g1->promise_id;

    // The process "dies" while appending the second grant's record:
    // only a fragment of it reaches the file.
    uint64_t detached_before = MetricsRegistry::Global()
                                   .GetCounter("promises_oplog_detached_total")
                                   ->Value();
    log.InjectTornWrite(10);
    auto g2 = original.pm->RequestPromise(
        original.client, {Predicate::Quantity("stock", CompareOp::kGe, 5)});
    // The in-memory operation itself committed — but durability was
    // lost, so the caller gets kDataLoss (not silence) and the manager
    // detached the failing log, counting the detach.
    ASSERT_FALSE(g2.ok());
    EXPECT_TRUE(g2.status().IsDataLoss()) << g2.status().ToString();
    EXPECT_EQ(original.pm->active_promises(), 2u);
    EXPECT_EQ(MetricsRegistry::Global()
                  .GetCounter("promises_oplog_detached_total")
                  ->Value(),
              detached_before + 1);

    // With the log detached, the next operation proceeds unlogged and
    // succeeds — the detach is one loud failure, not a wedged manager.
    auto g3 = original.pm->RequestPromise(
        original.client, {Predicate::Quantity("stock", CompareOp::kGe, 1)});
    ASSERT_TRUE(g3.ok() && g3->accepted);
    EXPECT_EQ(MetricsRegistry::Global()
                  .GetCounter("promises_oplog_detached_total")
                  ->Value(),
              detached_before + 1);
  }

  // Reopen truncates the torn tail; replay reproduces the first grant
  // only, under its original id.
  OperationLog reopened;
  ASSERT_TRUE(reopened.Open(file.path()).ok());
  reopened.Close();
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);

  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  EXPECT_EQ(recovered.pm->active_promises(), 1u);
  EXPECT_NE(recovered.pm->FindPromise(first_id), nullptr);
}

TEST(RecoveryTest, TornWriteFailsReleaseAndExecuteWithDataLoss) {
  // CrashMidAppendRecoversTheCleanPrefix covers a torn grant record;
  // Release and Execute report the lost record the same way, and their
  // in-memory effect stands (the log is detached, not rolled back).
  for (bool release : {true, false}) {
    SCOPED_TRACE(release ? "release" : "execute");
    TempLogFile file("torn_direct");
    WorldParts world;
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(world.pm->AttachLog(&log).ok());
    auto held = world.pm->RequestPromise(
        world.client, {Predicate::Quantity("stock", CompareOp::kGe, 10)});
    ASSERT_TRUE(held.ok() && held->accepted);

    log.InjectTornWrite(10);
    if (release) {
      Status st = world.pm->Release(world.client, {held->promise_id});
      EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
      EXPECT_EQ(world.pm->active_promises(), 0u);
    } else {
      ActionBody buy;
      buy.service = "inventory";
      buy.operation = "purchase";
      buy.params["item"] = Value("stock");
      buy.params["quantity"] = Value(4);
      auto bought = world.pm->Execute(world.client, buy);
      EXPECT_TRUE(bought.status().IsDataLoss()) << bought.status().ToString();
      auto txn = world.tm.Begin();
      EXPECT_EQ(*world.rm.GetQuantity(txn.get(), "stock"), 46);
    }
  }
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// A record in the single-line v2 format that builds before v3 wrote.
std::string V2Line(uint64_t sequence, Timestamp timestamp,
                   uint64_t promise_id, const std::string& payload) {
  return std::string("v2|")
      .append(std::to_string(payload.size()))
      .append("|")
      .append(std::to_string(OperationLog::RecordChecksum(
          payload.size(), sequence, timestamp, promise_id, payload)))
      .append("|")
      .append(std::to_string(sequence))
      .append("|")
      .append(std::to_string(timestamp))
      .append("|")
      .append(std::to_string(promise_id))
      .append("|")
      .append(payload)
      .append("\n");
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
}

// Seven direct-API operations: three grants (one rejected, one atomic
// update), a booking under a promise, a restock, a grant and a partly
// unknown release.
void RunDirectApiHistory(WorldParts& world) {
  auto g1 = world.pm->RequestPromise(
      world.client, {Predicate::Quantity("stock", CompareOp::kGe, 20)}, 3'000);
  ASSERT_TRUE(g1.ok() && g1->accepted);
  auto rejected = world.pm->RequestPromise(
      world.client, {Predicate::Quantity("stock", CompareOp::kGe, 49)});
  ASSERT_TRUE(rejected.ok() && !rejected->accepted);
  auto g2 = world.pm->RequestPromise(
      world.client,
      {Predicate::Property("room",
                           Expr::Compare("floor", CompareOp::kEq, Value(1)),
                           1)},
      0, {g1->promise_id});
  ASSERT_TRUE(g2.ok() && g2->accepted);
  ActionBody book;
  book.service = "booking";
  book.operation = "book";
  book.params["class"] = Value("room");
  book.params["promise"] = Value(static_cast<int64_t>(g2->promise_id.value()));
  auto booked = world.pm->Execute(world.client, book,
                                  EnvironmentHeader{{{g2->promise_id, true}}});
  ASSERT_TRUE(booked.ok() && booked->ok) << booked->error;
  ActionBody restock;
  restock.service = "inventory";
  restock.operation = "restock";
  restock.params["item"] = Value("stock");
  restock.params["quantity"] = Value(2);
  ASSERT_TRUE(world.pm->Execute(world.client, restock).ok());
  auto g3 = world.pm->RequestPromise(
      world.client, {Predicate::Quantity("stock", CompareOp::kGe, 1)});
  ASSERT_TRUE(g3.ok() && g3->accepted);
  EXPECT_TRUE(world.pm->Release(world.client, {g3->promise_id, PromiseId(77)})
                  .IsNotFound());
}

TEST(RecoveryTest, DirectApiLogPayloadsArePinned) {
  // The exact records the direct API writes, as binary envelopes in v3
  // records. Logs written by earlier builds must keep replaying, so
  // these bytes must not drift; the XML payloads those builds wrote
  // are the v2 fixture below.
  TempLogFile file("direct_payloads");
  WorldParts world;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(world.pm->AttachLog(&log).ok());
  RunDirectApiHistory(world);
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  const std::vector<std::pair<uint64_t, std::string>> expected = {
      {1,
       "b100087375727669766f720b7265636f76657261626c65000201f02e00011771"
       "75616e74697479282773746f636b2729203e3d20323000"},
      {2,
       "b100087375727669766f720b7265636f76657261626c65000201000001177175"
       "616e74697479282773746f636b2729203e3d20343900"},
      {3,
       "b100087375727669766f720b7265636f76657261626c6500020100000123636f"
       "756e742827726f6f6d2720776865726520666c6f6f72203d3d203129203e3d20"
       "310101"},
      {0,
       "b100087375727669766f720b7265636f76657261626c6500880201030107626f"
       "6f6b696e6704626f6f6b0205636c6173730304726f6f6d0770726f6d69736501"
       "06"},
      {0,
       "b100087375727669766f720b7265636f76657261626c650088020009696e7665"
       "6e746f727907726573746f636b02046974656d030573746f636b087175616e74"
       "6974790104"},
      {4,
       "b100087375727669766f720b7265636f76657261626c65000201000001167175"
       "616e74697479282773746f636b2729203e3d203100"},
      {0,
       "b100087375727669766f720b7265636f76657261626c65001002044d"},
  };
  ASSERT_EQ(records->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*records)[i].promise_id, expected[i].first) << i;
    EXPECT_EQ(Hex((*records)[i].payload), expected[i].second) << i;
  }
  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  ExpectEquivalent(world, recovered);

  // The same seven operations as the XML payloads of a v2 log written
  // before the binary codec: they must still replay to the same world.
  const std::vector<std::pair<uint64_t, std::string>> v2_fixture = {
      {1,
       R"(<envelope from="survivor" message-id="0" to="recoverable"><header><promise-request duration-ms="3000" request-id="1"><predicate resource="stock">quantity(&apos;stock&apos;) &gt;= 20</predicate></promise-request></header><body/></envelope>)"},
      {2,
       R"(<envelope from="survivor" message-id="0" to="recoverable"><header><promise-request duration-ms="0" request-id="1"><predicate resource="stock">quantity(&apos;stock&apos;) &gt;= 49</predicate></promise-request></header><body/></envelope>)"},
      {3,
       R"(<envelope from="survivor" message-id="0" to="recoverable"><header><promise-request duration-ms="0" request-id="1"><predicate resource="room">count(&apos;room&apos; where floor == 1) &gt;= 1</predicate><release-on-grant promise-id="1"/></promise-request></header><body/></envelope>)"},
      {0,
       R"(<envelope from="survivor" message-id="0" to="recoverable"><header><environment><promise promise-id="3" release-after="true"/></environment></header><body><action operation="book" service="booking"><param name="class" type="string">room</param><param name="promise" type="int">3</param></action></body></envelope>)"},
      {0,
       R"(<envelope from="survivor" message-id="0" to="recoverable"><header><environment/></header><body><action operation="restock" service="inventory"><param name="item" type="string">stock</param><param name="quantity" type="int">2</param></action></body></envelope>)"},
      {4,
       R"(<envelope from="survivor" message-id="0" to="recoverable"><header><promise-request duration-ms="0" request-id="1"><predicate resource="stock">quantity(&apos;stock&apos;) &gt;= 1</predicate></promise-request></header><body/></envelope>)"},
      {0,
       R"(<envelope from="survivor" message-id="0" to="recoverable"><header><release><promise promise-id="4"/><promise promise-id="77"/></release></header><body/></envelope>)"},
  };
  TempLogFile v2_file("direct_payloads_v2");
  std::string v2_log;
  for (size_t i = 0; i < v2_fixture.size(); ++i) {
    v2_log += V2Line(i + 1, 0, v2_fixture[i].first, v2_fixture[i].second);
  }
  WriteFile(v2_file.path(), v2_log);
  auto v2_records = OperationLog::ReadAll(v2_file.path());
  ASSERT_TRUE(v2_records.ok());
  ASSERT_EQ(v2_records->size(), v2_fixture.size());
  WorldParts from_v2;
  ASSERT_TRUE(from_v2.pm->ReplayLog(*v2_records, &from_v2.clock).ok());
  ExpectEquivalent(world, from_v2);
}

TEST(RecoveryTest, NewlineInStringParamStaysLogged) {
  // Regression: single-line records refused a payload with a newline
  // in it, which detached the log for the whole manager while the
  // reply still said ok. Length-framed records carry any byte.
  TempLogFile file("newline_param");
  WorldParts world;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(world.pm->AttachLog(&log).ok());
  Counter* detached =
      MetricsRegistry::Global().GetCounter("promises_oplog_detached_total");
  const uint64_t detached_before = detached->Value();
  uint64_t message_id = 0;
  for (const char* note : {"one line", "two\nlines", "three"}) {
    Envelope request;
    request.message_id = MessageId(++message_id);
    request.from = "survivor";
    request.to = "recoverable";
    ActionBody& restock = request.action.emplace();
    restock.service = "inventory";
    restock.operation = "restock";
    restock.params["item"] = Value("stock");
    restock.params["quantity"] = Value(1);
    restock.params["note"] = Value(note);
    auto reply = world.pm->Handle(request);
    ASSERT_TRUE(reply.ok() && reply->action_result && reply->action_result->ok)
        << note;
  }
  log.Close();
  EXPECT_EQ(detached->Value(), detached_before);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  ExpectEquivalent(world, recovered);
  auto txn = recovered.tm.Begin();
  EXPECT_EQ(*recovered.rm.GetQuantity(txn.get(), "stock"), 53);
}

TEST(RecoveryTest, MixedVersionLogReplaysLikeAllV2Log) {
  // One history, written twice: once as an all-v2 log of XML payloads,
  // once as a log that changed format as it grew (a v1 line, v2 XML
  // lines, v3 binary records appended by the current writer, then a
  // torn v3 tail). Both must scan and replay to the same world.
  TempLogFile source("mixed_source");
  WorldParts world;
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(source.path()).ok());
    ASSERT_TRUE(world.pm->AttachLog(&log).ok());
    RunDirectApiHistory(world);
  }
  auto history = OperationLog::ReadAll(source.path());
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 7u);
  std::vector<std::string> xml;
  for (const LogRecord& r : *history) {
    ASSERT_EQ(Envelope::Sniff(r.payload), EnvelopeEncoding::kBinary);
    auto env = Envelope::Decode(r.payload);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    xml.push_back(env->ToXml());
  }

  TempLogFile all_v2("mixed_all_v2");
  std::string v2_log;
  for (size_t i = 0; i < history->size(); ++i) {
    const LogRecord& r = (*history)[i];
    v2_log += V2Line(r.sequence, r.timestamp, r.promise_id, xml[i]);
  }
  WriteFile(all_v2.path(), v2_log);

  // v1 carries no promise id; the first grant consumes id 1 anyway.
  TempLogFile mixed("mixed_versions");
  const LogRecord& first = (*history)[0];
  ASSERT_EQ(first.promise_id, 1u);
  std::string prefix = std::to_string(xml[0].size()) + "|" +
                       std::to_string(OperationLog::Checksum(xml[0])) + "|" +
                       std::to_string(first.timestamp) + "|" + xml[0] + "\n";
  for (size_t i = 1; i < 3; ++i) {
    const LogRecord& r = (*history)[i];
    prefix += V2Line(r.sequence, r.timestamp, r.promise_id, xml[i]);
  }
  WriteFile(mixed.path(), prefix);
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(mixed.path()).ok());
    SimulatedClock clock(0);
    for (size_t i = 3; i < history->size(); ++i) {
      const LogRecord& r = (*history)[i];
      clock.AdvanceTo(r.timestamp);
      auto seq = log.AppendOperation(&clock, r.payload, r.promise_id);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(*seq, r.sequence);
    }
  }
  // A crash mid-append of an eighth record: half a v3 record.
  const std::string& tail_payload = (*history)[0].payload;
  std::string torn = std::string("v3|")
                         .append(std::to_string(tail_payload.size()))
                         .append("|")
                         .append(std::to_string(OperationLog::RecordChecksum(
                             tail_payload.size(), 8, 0, 5, tail_payload)))
                         .append("|8|0|5|")
                         .append(tail_payload)
                         .append("\n");
  std::FILE* f = std::fopen(mixed.path().c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(torn.data(), 1, torn.size() / 2, f);
  std::fclose(f);

  LogScanStats stats;
  auto mixed_records = OperationLog::ReadForRecovery(mixed.path(), &stats);
  ASSERT_TRUE(mixed_records.ok()) << mixed_records.status().ToString();
  EXPECT_EQ(stats.stop_reason, ScanStopReason::kTornTail);
  EXPECT_FALSE(stats.valid_beyond_stop);
  EXPECT_EQ(stats.discarded_bytes, torn.size() / 2);
  auto v2_records = OperationLog::ReadAll(all_v2.path());
  ASSERT_TRUE(v2_records.ok());
  ASSERT_EQ(mixed_records->size(), v2_records->size());
  for (size_t i = 0; i < v2_records->size(); ++i) {
    EXPECT_EQ((*mixed_records)[i].sequence, (*v2_records)[i].sequence) << i;
    EXPECT_EQ(Envelope::Decode((*mixed_records)[i].payload)->ToXml(), xml[i])
        << i;
  }

  WorldParts from_v2;
  ASSERT_TRUE(from_v2.pm->ReplayLog(*v2_records, &from_v2.clock).ok());
  WorldParts from_mixed;
  ASSERT_TRUE(
      from_mixed.pm->ReplayLog(*mixed_records, &from_mixed.clock).ok());
  ExpectEquivalent(from_v2, from_mixed);
  ExpectEquivalent(world, from_mixed);
}

// --- Logged managers keep the striped lock scope ------------------------

TEST(RecoveryTest, LoggedOperationsKeepStripedLockScope) {
  TempLogFile file("lock_scope");
  WorldParts world;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(world.pm->AttachLog(&log).ok());

  // A probe service inspects its own transaction's lock set: with the
  // log attached the operation must still run under the striped scope
  // (root shared + touched stripes exclusive), not the whole-manager
  // exclusive lock the logged configuration used to force.
  bool probed = false;
  world.pm->RegisterService(
      "lockprobe",
      [&](ActionContext* ctx, const std::string&,
          const std::map<std::string, Value>&)
          -> Result<std::map<std::string, Value>> {
        const LockManager& lm = world.tm.lock_manager();
        TxnId txn = ctx->txn()->id();
        EXPECT_FALSE(lm.Holds(txn, "pm:recoverable", LockMode::kExclusive))
            << "logged operation took the whole-manager lock";
        EXPECT_TRUE(lm.Holds(txn, "pm:recoverable", LockMode::kShared));
        EXPECT_TRUE(
            lm.Holds(txn, "pm:recoverable/c:stock", LockMode::kExclusive));
        probed = true;
        return std::map<std::string, Value>{};
      });

  ActionBody probe;
  probe.service = "lockprobe";
  probe.operation = "inspect";
  probe.params["item"] = Value("stock");  // plans the stock stripe
  auto out = world.pm->Execute(world.client, probe);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->ok) << out->error;
  EXPECT_TRUE(probed);
  log.Close();
}

TEST(RecoveryTest, LoggedOperationsOnDisjointStripesOverlap) {
  TempLogFile file("overlap");
  SimulatedClock clock(0);
  TransactionManager tm(100);
  ResourceManager rm;
  (void)rm.CreatePool("left", 1'000);
  (void)rm.CreatePool("right", 1'000);
  PromiseManagerConfig config;
  config.name = "parallel";
  config.default_duration_ms = 5'000;
  PromiseManager pm(config, &clock, &rm, &tm);

  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig gc;  // group mode, no linger
  ASSERT_TRUE(log.StartGroupCommit(gc, &clock).ok());
  ASSERT_TRUE(pm.AttachLog(&log).ok());

  // Two operations on disjoint stripes rendezvous INSIDE the service:
  // this only completes if both hold their locks at the same time —
  // impossible under a whole-manager exclusive lock.
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  bool met = false;
  pm.RegisterService(
      "rendezvous",
      [&](ActionContext*, const std::string&,
          const std::map<std::string, Value>&)
          -> Result<std::map<std::string, Value>> {
        std::unique_lock<std::mutex> lock(mu);
        if (++inside == 2) {
          met = true;
          cv.notify_all();
        } else {
          cv.wait_for(lock, std::chrono::seconds(5), [&] { return met; });
        }
        return std::map<std::string, Value>{};
      });

  auto run = [&pm](const std::string& cls) {
    ClientId client = pm.ClientFor("worker-" + cls);
    ActionBody action;
    action.service = "rendezvous";
    action.operation = "meet";
    action.params["item"] = Value(cls);
    auto out = pm.Execute(client, action);
    EXPECT_TRUE(out.ok() && out->ok);
  };
  std::thread a(run, "left");
  std::thread b(run, "right");
  a.join();
  b.join();
  EXPECT_TRUE(met) << "logged operations serialized against each other";
  log.Close();
}

// --- Concurrent group commit: crash and recover -------------------------

TEST(RecoveryTest, GroupCommitConcurrentCrashRecoversDurablePrefix) {
  TempLogFile file("cc_crash");
  constexpr int kWorkers = 4;
  constexpr int kPhase1Ops = 20;
  constexpr int kPhase2Ops = 20;

  auto make_world = [](SimulatedClock* clock, TransactionManager* tm,
                       ResourceManager* rm) {
    for (int i = 0; i < kWorkers; ++i) {
      (void)rm->CreatePool("c" + std::to_string(i), 1'000);
    }
    PromiseManagerConfig config;
    config.name = "cc-crash";
    config.default_duration_ms = 5'000;
    return std::make_unique<PromiseManager>(config, clock, rm, tm);
  };

  // Phase 1 acks are durable before the tear is armed; they form the
  // guaranteed survivor set. Phase 2 races the injected torn group
  // write: each op either acks durably, fails with kDataLoss, or (post
  // detach) succeeds unlogged — only the log decides what survives.
  std::vector<std::vector<PromiseId>> durable_ids(kWorkers);
  {
    SimulatedClock clock(0);
    TransactionManager tm(100);
    ResourceManager rm;
    auto pm = make_world(&clock, &tm, &rm);
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    GroupCommitConfig gc;
    gc.max_batch = 16;
    ASSERT_TRUE(log.StartGroupCommit(gc, &clock).ok());
    ASSERT_TRUE(pm->AttachLog(&log).ok());

    auto worker = [&](int w, int ops, bool stop_on_error) {
      ClientId client = pm->ClientFor("w" + std::to_string(w));
      std::string cls = "c" + std::to_string(w);
      for (int i = 0; i < ops; ++i) {
        auto g = pm->RequestPromise(
            client, {Predicate::Quantity(cls, CompareOp::kGe, 1)});
        if (g.ok() && g->accepted && !stop_on_error) {
          durable_ids[w].push_back(g->promise_id);
        }
        if (!g.ok() && stop_on_error) break;
      }
    };

    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back(worker, w, kPhase1Ops, false);
    }
    for (std::thread& t : threads) t.join();
    threads.clear();

    log.InjectTornWrite(30);  // the next group tears mid-record
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back(worker, w, kPhase2Ops, true);
    }
    for (std::thread& t : threads) t.join();
    log.Close();  // crash: whatever reached the disk is the truth
  }

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  // Everything acked before the tear is on disk.
  size_t phase1_total = 0;
  for (const auto& ids : durable_ids) phase1_total += ids.size();
  EXPECT_EQ(phase1_total, static_cast<size_t>(kWorkers * kPhase1Ops));
  ASSERT_GE(records->size(), phase1_total);

  // Replay twice; both recoveries must agree with each other and
  // contain every durably-acked grant under its original id.
  SimulatedClock clock_a(0), clock_b(0);
  TransactionManager tm_a(100), tm_b(100);
  ResourceManager rm_a, rm_b;
  auto pm_a = make_world(&clock_a, &tm_a, &rm_a);
  auto pm_b = make_world(&clock_b, &tm_b, &rm_b);
  ASSERT_TRUE(pm_a->ReplayLog(*records, &clock_a).ok());
  ASSERT_TRUE(pm_b->ReplayLog(*records, &clock_b).ok());

  for (const auto& ids : durable_ids) {
    for (PromiseId id : ids) {
      EXPECT_NE(pm_a->FindPromise(id), nullptr) << id.ToString();
    }
  }
  EXPECT_EQ(pm_a->active_promises(), records->size());
  EXPECT_EQ(pm_a->active_promises(), pm_b->active_promises());
  auto txn_a = tm_a.Begin();
  auto txn_b = tm_b.Begin();
  for (int i = 0; i < kWorkers; ++i) {
    std::string cls = "c" + std::to_string(i);
    EXPECT_EQ(*rm_a.GetQuantity(txn_a.get(), cls),
              *rm_b.GetQuantity(txn_b.get(), cls))
        << cls;
  }
}

TEST(RecoveryTest, DedupRepliesSurviveGroupCommitRecovery) {
  TempLogFile file("dedup_group");
  Envelope env;
  env.message_id = MessageId(41);
  env.from = "survivor";
  env.to = "recoverable";
  PromiseRequestHeader req;
  req.request_id = RequestId(9);
  req.predicates.push_back(Predicate::Quantity("stock", CompareOp::kGe, 10));
  env.promise_request = std::move(req);

  Envelope original_reply;
  {
    WorldParts original;
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    GroupCommitConfig gc;
    ASSERT_TRUE(log.StartGroupCommit(gc, &original.clock).ok());
    ASSERT_TRUE(original.pm->AttachLog(&log).ok());
    auto first = original.pm->Handle(env);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->promise_response.has_value());
    ASSERT_EQ(first->promise_response->result, PromiseResultCode::kAccepted);
    original_reply = *first;
    log.Close();
  }

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);

  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  // The client retries its pre-crash envelope: recovery must replay
  // the cached reply, not grant a second promise.
  auto retry = recovered.pm->Handle(env);
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE(retry->promise_response.has_value());
  EXPECT_EQ(retry->promise_response->promise_id,
            original_reply.promise_response->promise_id);
  EXPECT_EQ(retry->ToXml(), original_reply.ToXml());
  EXPECT_EQ(recovered.pm->active_promises(), 1u);
}

TEST(RecoveryTest, ReplayPinsPromiseIdsRecordedOutOfOrder) {
  TempLogFile file("pin");
  // Under striped concurrency the allocation order can differ from the
  // log order; each record carries its consumed id, so replay must
  // reproduce ids even when they regress across records.
  auto make_env = [](int64_t quantity) {
    Envelope env;
    env.message_id = MessageId(0);  // bypass dedup, like the direct API
    env.from = "survivor";
    env.to = "recoverable";
    PromiseRequestHeader req;
    req.request_id = RequestId(1);
    req.predicates.push_back(
        Predicate::Quantity("stock", CompareOp::kGe, quantity));
    env.promise_request = std::move(req);
    return env;
  };
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(log.AppendOperation(&clock, make_env(5).ToXml(), 7).ok());
  ASSERT_TRUE(log.AppendOperation(&clock, make_env(3).ToXml(), 3).ok());
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].promise_id, 7u);
  EXPECT_EQ((*records)[1].promise_id, 3u);

  WorldParts recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  EXPECT_EQ(recovered.pm->active_promises(), 2u);
  EXPECT_NE(recovered.pm->FindPromise(PromiseId(7)), nullptr);
  EXPECT_NE(recovered.pm->FindPromise(PromiseId(3)), nullptr);
  // Fresh allocation resumes past the highest replayed id.
  auto g = recovered.pm->RequestPromise(
      recovered.client, {Predicate::Quantity("stock", CompareOp::kGe, 1)});
  ASSERT_TRUE(g.ok() && g->accepted);
  EXPECT_EQ(g->promise_id.value(), 8u);
}

// Booking-shaped traffic on a tentative class (grant a window of
// property promises, book the oldest with release_after, vacate the
// room) replays into an engine whose state blob is byte-identical:
// replay runs the same journaled engine code as the live path.
TEST(RecoveryTest, TentativeBookingStreamReplaysToIdenticalEngineState) {
  struct Hotel {
    SimulatedClock clock{0};
    TransactionManager tm{100};
    ResourceManager rm;
    std::unique_ptr<PromiseManager> pm;
    ClientId client;

    Hotel() {
      Schema schema({{"floor", ValueType::kInt, false},
                     {"view", ValueType::kBool, false}});
      (void)rm.CreateInstanceClass("room", schema);
      for (int i = 0; i < 24; ++i) {
        (void)rm.AddInstance("room", "room-" + std::to_string(100 + i),
                             {{"floor", Value(1 + i % 6)},
                              {"view", Value(i % 3 != 2)}});
      }
      PromiseManagerConfig config;
      config.name = "hotel";
      config.default_duration_ms = 600'000;
      pm = std::make_unique<PromiseManager>(config, &clock, &rm, &tm);
      pm->RegisterService("booking", MakeBookingService());
      client = pm->ClientFor("guest");
    }
  };
  const std::vector<Predicate> shapes = {
      Predicate::Property(
          "room",
          Expr::And(Expr::Compare("view", CompareOp::kEq, Value(true)),
                    Expr::Compare("floor", CompareOp::kGe, Value(2))),
          1),
      Predicate::Property(
          "room", Expr::Compare("floor", CompareOp::kGe, Value(5)), 1),
      Predicate::Property(
          "room",
          Expr::Or(Expr::Compare("view", CompareOp::kEq, Value(false)),
                   Expr::Compare("floor", CompareOp::kLe, Value(2))),
          2),
  };

  TempLogFile file("tentative_replay");
  Hotel original;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  Rng rng(5);
  std::deque<PromiseId> window;
  for (int order = 0; order < 200; ++order) {
    original.clock.Advance(3);
    auto grant = original.pm->RequestPromise(
        original.client,
        {shapes[static_cast<size_t>(rng.UniformInt(0, 2))]});
    ASSERT_TRUE(grant.ok());
    if (grant->accepted) window.push_back(grant->promise_id);
    if (window.size() < 6) continue;
    PromiseId oldest = window.front();
    window.pop_front();
    ActionBody book;
    book.service = "booking";
    book.operation = "book";
    book.params["class"] = Value("room");
    book.params["promise"] = Value(static_cast<int64_t>(oldest.value()));
    EnvironmentHeader env;
    env.entries.push_back({oldest, true});
    auto booked = original.pm->Execute(original.client, book, env);
    ASSERT_TRUE(booked.ok() && booked->ok);
    ActionBody vacate;
    vacate.service = "booking";
    vacate.operation = "vacate";
    vacate.params["class"] = Value("room");
    vacate.params["instance"] = booked->outputs.at("booked");
    auto left = original.pm->Execute(original.client, vacate);
    ASSERT_TRUE(left.ok() && left->ok);
  }
  log.Close();
  const std::string live = original.pm->EngineIfExists("room")->SerializeState();
  EXPECT_NE(
      static_cast<TentativeEngine*>(original.pm->EngineIfExists("room"))
          ->reallocations(),
      0u);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  Hotel recovered;
  ASSERT_TRUE(recovered.pm->ReplayLog(*records, &recovered.clock).ok());
  ASSERT_NE(recovered.pm->EngineIfExists("room"), nullptr);
  EXPECT_EQ(recovered.pm->EngineIfExists("room")->SerializeState(), live);
  EXPECT_EQ(recovered.pm->active_promises(), original.pm->active_promises());
  auto ta = original.tm.Begin();
  auto tb = recovered.tm.Begin();
  auto rooms_a = *original.rm.ListInstances(ta.get(), "room");
  auto rooms_b = *recovered.rm.ListInstances(tb.get(), "room");
  ASSERT_EQ(rooms_a.size(), rooms_b.size());
  for (size_t i = 0; i < rooms_a.size(); ++i) {
    EXPECT_EQ(rooms_a[i].status, rooms_b[i].status) << rooms_a[i].id;
  }
}

}  // namespace
}  // namespace promises

// Tests for fuzzy checkpoints and bounded recovery: a manager restored
// from snapshot + log tail must be observationally identical to one
// rebuilt by full replay — same promise ids, same table, same resource
// state, same cached replies — for every crash point the install and
// compaction protocol admits.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/promise_manager.h"
#include "obs/metrics.h"
#include "service/services.h"
#include "txn/lock_manager.h"

namespace promises {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_("/tmp/promises_ckpt_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f),
            contents.size());
  std::fclose(f);
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// --- Serialization format ------------------------------------------------

CheckpointData SampleCheckpoint() {
  CheckpointData data;
  data.cut_lsn = 42;
  data.captured_at = 9'000;
  data.promise_id_watermark = 17;
  data.clients = {{1, "alice"}, {2, "bob"}};
  data.pools["stock"] = 31;
  data.pools["fuel"] = -2;  // escrow debt is representable
  InstanceView room;
  room.id = "r0";
  room.status = InstanceStatus::kPromised;
  room.properties["floor"] = Value(2);
  room.properties["name"] = Value("12");  // string that looks numeric
  room.properties["rate"] = Value(99.25);
  room.properties["smoking"] = Value(false);
  data.instances["room"] = {room};
  PromiseRecord rec;
  rec.id = PromiseId(17);
  rec.owner = ClientId(2);
  rec.granted_at = 8'000;
  rec.expires_at = 13'000;
  rec.state = PromiseState::kActive;
  rec.predicates.push_back(Predicate::Quantity("stock", CompareOp::kGe, 5));
  data.promises.emplace(17, rec);
  data.engine_state["stock"] = "opaque|blob|with|delimiters\nand newlines";
  CheckpointDedupEntry entry;
  entry.from = "alice";
  entry.message_id = 7;
  entry.lsn = 40;
  entry.reply = "<envelope/>";
  data.dedup.push_back(entry);
  return data;
}

TEST(CheckpointFormatTest, SerializeParseRoundtrip) {
  CheckpointData data = SampleCheckpoint();
  std::string serialized = SerializeCheckpoint(data);
  auto parsed = ParseCheckpoint(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Re-serialization is canonical (maps are ordered), so byte equality
  // proves every field — including value *types* — survived.
  EXPECT_EQ(SerializeCheckpoint(*parsed), serialized);
  EXPECT_EQ(parsed->cut_lsn, 42u);
  EXPECT_EQ(parsed->promise_id_watermark, 17u);
  ASSERT_EQ(parsed->instances["room"].size(), 1u);
  const InstanceView& room = parsed->instances["room"][0];
  EXPECT_TRUE(room.properties.at("name").is_string());
  EXPECT_TRUE(room.properties.at("floor").is_int());
  EXPECT_TRUE(room.properties.at("rate").is_double());
  EXPECT_TRUE(room.properties.at("smoking").is_bool());
  ASSERT_EQ(parsed->promises.count(17), 1u);
  EXPECT_EQ(parsed->promises.at(17).predicates.size(), 1u);
  EXPECT_EQ(parsed->engine_state["stock"],
            "opaque|blob|with|delimiters\nand newlines");
  ASSERT_EQ(parsed->dedup.size(), 1u);
  EXPECT_EQ(parsed->dedup[0].lsn, 40u);
}

TEST(CheckpointFormatTest, DamageIsDetected) {
  std::string good = SerializeCheckpoint(SampleCheckpoint());

  // Flipped body byte: checksum mismatch.
  std::string flipped = good;
  flipped[flipped.size() - 2] = flipped[flipped.size() - 2] == 'X' ? 'Y' : 'X';
  EXPECT_TRUE(ParseCheckpoint(flipped).status().IsDataLoss());

  // Truncated body: length mismatch.
  EXPECT_TRUE(ParseCheckpoint(good.substr(0, good.size() - 5))
                  .status()
                  .IsDataLoss());

  // Trailing garbage: length mismatch the other way.
  EXPECT_TRUE(ParseCheckpoint(good + "extra").status().IsDataLoss());

  // Mangled and unsupported headers.
  EXPECT_TRUE(ParseCheckpoint("not a checkpoint").status().IsDataLoss());
  EXPECT_TRUE(ParseCheckpoint("junk|1|0|0\n").status().IsDataLoss());
  std::string v9 = good;
  ASSERT_EQ(v9.rfind("pmckpt|2|", 0), 0u);
  v9.replace(0, 9, "pmckpt|9|");
  EXPECT_TRUE(ParseCheckpoint(v9).status().IsDataLoss());
}

TEST(CheckpointFormatTest, WriteIsAtomicAndLoadable) {
  TempFile file("install");
  CheckpointData data = SampleCheckpoint();
  ASSERT_TRUE(WriteCheckpointFile(file.path(), data).ok());
  EXPECT_FALSE(FileExists(file.path() + ".tmp"));
  auto loaded = LoadCheckpointFile(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeCheckpoint(*loaded), SerializeCheckpoint(data));

  // A second install replaces the first in one rename.
  data.cut_lsn = 99;
  ASSERT_TRUE(WriteCheckpointFile(file.path(), data).ok());
  loaded = LoadCheckpointFile(file.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->cut_lsn, 99u);

  EXPECT_TRUE(LoadCheckpointFile("/no/such/ckpt").status().IsNotFound());
}

// --- Manager capture / restore ------------------------------------------

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
      (void)rm.AddInstance("room", std::string("r").append(std::to_string(i)),
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

// A scripted history with a bit of everything recoverable: grants on
// both resource kinds, a rejected request (consumes an id), an action
// that mutates stock, and a release.
std::vector<PromiseId> RunScriptedHistory(WorldParts& world) {
  std::vector<PromiseId> held;
  auto g1 = world.pm->RequestPromise(
      world.client, {Predicate::Quantity("stock", CompareOp::kGe, 20)});
  EXPECT_TRUE(g1.ok() && g1->accepted);
  held.push_back(g1->promise_id);
  auto rejected = world.pm->RequestPromise(
      world.client, {Predicate::Quantity("stock", CompareOp::kGe, 49)});
  EXPECT_TRUE(rejected.ok() && !rejected->accepted);
  ActionBody buy;
  buy.service = "inventory";
  buy.operation = "purchase";
  buy.params["item"] = Value("stock");
  buy.params["quantity"] = Value(10);
  EXPECT_TRUE(world.pm->Execute(world.client, buy, {}).ok());
  auto g2 = world.pm->RequestPromise(
      world.client,
      {Predicate::Property("room",
                           Expr::Compare("floor", CompareOp::kEq, Value(1)),
                           1)});
  EXPECT_TRUE(g2.ok() && g2->accepted);
  held.push_back(g2->promise_id);
  return held;
}

TEST(CheckpointTest, CaptureGuards) {
  WorldParts world;
  // No log attached: there is no LSN to cut at.
  auto no_log = world.pm->CaptureCheckpoint();
  EXPECT_EQ(no_log.status().code(), StatusCode::kFailedPrecondition);

  // Restore refuses a manager that already has history or a log.
  TempFile log_file("capture_guards");
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(world.pm->AttachLog(&log).ok());
  (void)RunScriptedHistory(world);
  auto data = world.pm->CaptureCheckpoint();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(world.pm->RestoreCheckpoint(*data, &world.clock).code(),
            StatusCode::kFailedPrecondition);
  WorldParts dirty;
  (void)dirty.pm->RequestPromise(
      dirty.client, {Predicate::Quantity("stock", CompareOp::kGe, 1)});
  EXPECT_EQ(dirty.pm->RestoreCheckpoint(*data, &dirty.clock).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, CaptureRestoreRoundtripsManagerState) {
  TempFile log_file("capture_restore");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  std::vector<PromiseId> held = RunScriptedHistory(original);

  auto data = original.pm->CaptureCheckpoint();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->cut_lsn, 4u);  // four logged operations
  EXPECT_EQ(data->promises.size(), 2u);

  WorldParts restored;
  ASSERT_TRUE(restored.pm->RestoreCheckpoint(*data, &restored.clock).ok());
  ExpectEquivalent(original, restored);
  for (PromiseId id : held) {
    EXPECT_NE(restored.pm->FindPromise(id), nullptr) << id.ToString();
  }
  // Fresh allocation resumes past the watermark, exactly like replay.
  auto g = restored.pm->RequestPromise(
      restored.client, {Predicate::Quantity("stock", CompareOp::kGe, 1)});
  ASSERT_TRUE(g.ok() && g->accepted);
  EXPECT_GT(g->promise_id.value(), data->promise_id_watermark);
  log.Close();
}

// --- Twin worlds: snapshot + tail vs full replay ------------------------

TEST(CheckpointTest, SnapshotPlusTailMatchesFullReplay) {
  TempFile log_file("twin");
  TempFile ckpt_file("twin_ckpt");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());

  std::vector<PromiseId> held = RunScriptedHistory(original);
  auto data = original.pm->CaptureCheckpoint();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_TRUE(WriteCheckpointFile(ckpt_file.path(), *data).ok());

  // The tail: more history after the cut, including a release of a
  // snapshotted promise and an expiry decided by a tail timestamp.
  ASSERT_TRUE(original.pm->Release(original.client, {held[0]}).ok());
  auto g3 = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 10)},
      1'000);
  ASSERT_TRUE(g3.ok() && g3->accepted);
  original.clock.Advance(2'000);  // g3 lapses
  auto g4 = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 35)});
  ASSERT_TRUE(g4.ok() && g4->accepted);
  log.Close();  // crash

  auto records = OperationLog::ReadAll(log_file.path());
  ASSERT_TRUE(records.ok());
  WorldParts full;
  ASSERT_TRUE(full.pm->ReplayLog(*records, &full.clock).ok());

  WorldParts snap;
  RecoveryReport report;
  RecoveryOptions options;
  options.replay_workers = 4;
  ASSERT_TRUE(RecoverWithCheckpoint(snap.pm.get(), &snap.clock,
                                    ckpt_file.path(), log_file.path(), options,
                                    &report)
                  .ok());
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(report.checkpoint_lsn, data->cut_lsn);
  EXPECT_EQ(report.total_records, records->size());
  EXPECT_LT(report.tail_records, report.total_records);

  ExpectEquivalent(full, snap);
  ExpectEquivalent(original, snap);
  EXPECT_EQ(snap.pm->FindPromise(held[0]), nullptr);  // released in tail
  EXPECT_NE(snap.pm->FindPromise(held[1]), nullptr);  // survives from snapshot
  EXPECT_EQ(snap.pm->FindPromise(g3->promise_id), nullptr);  // expired
  EXPECT_NE(snap.pm->FindPromise(g4->promise_id), nullptr);
}

TEST(CheckpointTest, FullReplayFallbackWhenNoCheckpointExists) {
  TempFile log_file("fallback");
  TempFile ckpt_file("fallback_ckpt");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  std::vector<PromiseId> held = RunScriptedHistory(original);
  log.Close();

  // Origin log, no checkpoint: recovery degrades to full replay.
  WorldParts recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(recovered.pm.get(), &recovered.clock,
                                    ckpt_file.path(), log_file.path(), {},
                                    &report)
                  .ok());
  EXPECT_FALSE(report.used_checkpoint);
  EXPECT_EQ(report.tail_records, report.total_records);
  ExpectEquivalent(original, recovered);
  for (PromiseId id : held) {
    EXPECT_NE(recovered.pm->FindPromise(id), nullptr);
  }

  // Nothing at all: NotFound, not silence.
  WorldParts empty;
  EXPECT_TRUE(RecoverWithCheckpoint(empty.pm.get(), &empty.clock,
                                    "/no/such/ckpt", "/no/such/log")
                  .IsNotFound());
}

// --- CheckpointWriter: install + compaction + crash windows -------------

TEST(CheckpointTest, WriterRunOnceInstallsCompactsAndRecovers) {
  TempFile log_file("writer");
  TempFile ckpt_file("writer_ckpt");
  auto* installs = MetricsRegistry::Global().GetCounter(
      "promises_checkpoint_installs_total");
  uint64_t installs_before = installs->Value();

  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  std::vector<PromiseId> held = RunScriptedHistory(original);

  CheckpointWriter writer(original.pm.get(), &log, ckpt_file.path());
  auto cut = writer.RunOnce();
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_EQ(*cut, 4u);
  EXPECT_EQ(installs->Value(), installs_before + 1);

  // The compacted log starts with a marker, not record one.
  std::string compacted = ReadFileOrDie(log_file.path());
  EXPECT_EQ(compacted.rfind("trunc|", 0), 0u) << compacted.substr(0, 40);

  // Crash IMMEDIATELY after compaction: the tail is empty and the
  // checkpoint alone must reproduce the world.
  log.Close();
  WorldParts recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(recovered.pm.get(), &recovered.clock,
                                    ckpt_file.path(), log_file.path(), {},
                                    &report)
                  .ok());
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(report.tail_records, 0u);
  ExpectEquivalent(original, recovered);

  // Life goes on: the recovered manager attaches a reopened log and the
  // sequence numbers continue past the cut (the marker seeds the base —
  // without it the tail would renumber from 1 and a second compaction
  // would corrupt recovery).
  OperationLog reopened;
  ASSERT_TRUE(reopened.Open(log_file.path()).ok());
  ASSERT_TRUE(recovered.pm->AttachLog(&reopened).ok());
  auto g = recovered.pm->RequestPromise(
      recovered.client, {Predicate::Quantity("stock", CompareOp::kGe, 2)});
  ASSERT_TRUE(g.ok() && g->accepted);
  reopened.Close();

  LogScanStats stats;
  auto tail = OperationLog::ReadForRecovery(log_file.path(), &stats);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(stats.base_sequence, *cut);
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].sequence, *cut + 1);

  // Second-generation recovery sees snapshot + one-record tail.
  WorldParts second;
  ASSERT_TRUE(RecoverWithCheckpoint(second.pm.get(), &second.clock,
                                    ckpt_file.path(), log_file.path(), {},
                                    &report)
                  .ok());
  EXPECT_EQ(report.tail_records, 1u);
  for (PromiseId id : held) {
    EXPECT_NE(second.pm->FindPromise(id), nullptr);
  }
  EXPECT_NE(second.pm->FindPromise(g->promise_id), nullptr);
}

// A pre-v2 tail behind a snapshot: v1 records carry no sequence field,
// so the scanner numbers them by position from its base. Before the
// trunc marker seeded that base, a v1 record behind a compacted prefix
// renumbered from 1, landed at-or-below the cut, and tail filtering
// silently dropped it. Hand-append a v1-format line to a compacted log
// and require it to sequence past the cut and replay.
TEST(CheckpointTest, V1TailBehindSnapshotReplays) {
  TempFile log_file("v1_tail");
  TempFile ckpt_file("v1_tail_ckpt");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  std::vector<PromiseId> held = RunScriptedHistory(original);

  CheckpointWriter writer(original.pm.get(), &log, ckpt_file.path());
  auto cut = writer.RunOnce();
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  ASSERT_EQ(*cut, 4u);
  log.Close();

  // An old-format writer appends one grant request behind the marker:
  // "<len>|<checksum>|<timestamp>|<payload>", checksum over the payload
  // alone, no sequence or promise-id fields.
  Envelope env;
  env.message_id = MessageId(0);
  env.from = "survivor";
  env.to = "recoverable";
  PromiseRequestHeader req;
  req.request_id = RequestId(9);
  req.predicates.push_back(Predicate::Quantity("stock", CompareOp::kGe, 2));
  env.promise_request = std::move(req);
  std::string payload = env.ToXml();
  ASSERT_EQ(payload.find('\n'), std::string::npos);
  std::string v1_line = std::to_string(payload.size()) + "|" +
                        std::to_string(OperationLog::Checksum(payload)) +
                        "|5|" + payload + "\n";
  std::string contents = ReadFileOrDie(log_file.path());
  ASSERT_EQ(contents.rfind("trunc|", 0), 0u);
  WriteFileOrDie(log_file.path(), contents + v1_line);

  // The marker seeds the scan base, so the v1 record numbers cut+1 —
  // not 1, which would read as already-checkpointed.
  LogScanStats stats;
  auto tail = OperationLog::ReadForRecovery(log_file.path(), &stats);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(stats.base_sequence, *cut);
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].sequence, *cut + 1);
  EXPECT_EQ((*tail)[0].promise_id, 0u);

  WorldParts recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(recovered.pm.get(), &recovered.clock,
                                    ckpt_file.path(), log_file.path(), {},
                                    &report)
                  .ok());
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(report.tail_records, 1u);
  for (PromiseId id : held) {
    EXPECT_NE(recovered.pm->FindPromise(id), nullptr);
  }
  // The v1 grant replays on top of the snapshot state.
  EXPECT_EQ(recovered.pm->active_promises(),
            original.pm->active_promises() + 1);
}

TEST(CheckpointTest, StaleTmpFromCrashedInstallIsIgnored) {
  TempFile log_file("stale_tmp");
  TempFile ckpt_file("stale_tmp_ckpt");
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  std::vector<PromiseId> held = RunScriptedHistory(original);

  auto data = original.pm->CaptureCheckpoint();
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteCheckpointFile(ckpt_file.path(), *data).ok());

  // More history, then a crash DURING the next install: the new
  // checkpoint was written to .tmp but the rename never happened.
  auto g = original.pm->RequestPromise(
      original.client, {Predicate::Quantity("stock", CompareOp::kGe, 7)});
  ASSERT_TRUE(g.ok() && g->accepted);
  auto data2 = original.pm->CaptureCheckpoint();
  ASSERT_TRUE(data2.ok());
  WriteFileOrDie(ckpt_file.path() + ".tmp", SerializeCheckpoint(*data2));
  log.Close();

  // Recovery must use the PUBLISHED checkpoint plus the longer tail,
  // and clear the orphan so it can never shadow a later install.
  WorldParts recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(recovered.pm.get(), &recovered.clock,
                                    ckpt_file.path(), log_file.path(), {},
                                    &report)
                  .ok());
  EXPECT_FALSE(FileExists(ckpt_file.path() + ".tmp"));
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(report.checkpoint_lsn, data->cut_lsn);
  EXPECT_EQ(report.tail_records, 1u);
  ExpectEquivalent(original, recovered);
  EXPECT_NE(recovered.pm->FindPromise(g->promise_id), nullptr);
}

TEST(CheckpointTest, RefusesWhenPrefixIsUnrecoverable) {
  TempFile log_file("refuse");
  TempFile ckpt_file("refuse_ckpt");
  std::string stale_checkpoint;
  {
    WorldParts original;
    OperationLog log;
    ASSERT_TRUE(log.Open(log_file.path()).ok());
    ASSERT_TRUE(original.pm->AttachLog(&log).ok());
    (void)RunScriptedHistory(original);
    CheckpointWriter writer(original.pm.get(), &log, ckpt_file.path());
    ASSERT_TRUE(writer.RunOnce().ok());
    stale_checkpoint = ReadFileOrDie(ckpt_file.path());
    // Advance and compact again: the log base moves past the first cut.
    auto g = original.pm->RequestPromise(
        original.client, {Predicate::Quantity("stock", CompareOp::kGe, 3)});
    ASSERT_TRUE(g.ok() && g->accepted);
    ASSERT_TRUE(writer.RunOnce().ok());
    log.Close();
  }

  // (a) Stale checkpoint + newer compaction: records between the old
  // cut and the new base are gone; refusing beats silent loss.
  WriteFileOrDie(ckpt_file.path(), stale_checkpoint);
  WorldParts w1;
  EXPECT_TRUE(RecoverWithCheckpoint(w1.pm.get(), &w1.clock, ckpt_file.path(),
                                    log_file.path())
                  .IsDataLoss());

  // (b) Damaged checkpoint + compacted log.
  WriteFileOrDie(ckpt_file.path(), "pmckpt|1|3|0\nxyz");
  WorldParts w2;
  EXPECT_TRUE(RecoverWithCheckpoint(w2.pm.get(), &w2.clock, ckpt_file.path(),
                                    log_file.path())
                  .IsDataLoss());

  // (c) Missing checkpoint + compacted log.
  std::remove(ckpt_file.path().c_str());
  WorldParts w3;
  EXPECT_TRUE(RecoverWithCheckpoint(w3.pm.get(), &w3.clock, ckpt_file.path(),
                                    log_file.path())
                  .IsDataLoss());
}

// --- Scan forensics: stop reasons, discarded bytes, mid-log damage ------

TEST(OplogScanTest, TornTailIsAccountedNotFatal) {
  TempFile log_file("scan_torn");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(log_file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<a/>").ok());
    ASSERT_TRUE(log.Append(2, "<b/>").ok());
  }
  std::FILE* f = std::fopen(log_file.path().c_str(), "ab");
  std::fputs("v2|9999|12345|3|3|0|<torn", f);
  std::fclose(f);

  auto* torn_counter = MetricsRegistry::Global().GetCounter(
      "promises_oplog_scan_stopped_total_torn_tail");
  auto* discarded_counter = MetricsRegistry::Global().GetCounter(
      "promises_oplog_scan_discarded_bytes_total");
  uint64_t torn_before = torn_counter->Value();
  uint64_t discarded_before = discarded_counter->Value();

  LogScanStats stats;
  auto records = OperationLog::ReadForRecovery(log_file.path(), &stats);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(stats.stop_reason, ScanStopReason::kTornTail);
  EXPECT_FALSE(stats.valid_beyond_stop);
  EXPECT_GT(stats.discarded_bytes, 0u);
  EXPECT_EQ(stats.total_bytes, stats.valid_bytes + stats.discarded_bytes);
  EXPECT_EQ(torn_counter->Value(), torn_before + 1);
  EXPECT_EQ(discarded_counter->Value(),
            discarded_before + stats.discarded_bytes);
}

TEST(OplogScanTest, MidLogCorruptionRefusedUnlessOverridden) {
  TempFile log_file("scan_midlog");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(log_file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<a/>").ok());
    ASSERT_TRUE(log.Append(2, "<b/>").ok());
    ASSERT_TRUE(log.Append(3, "<c/>").ok());
  }
  // Flip a payload byte in the MIDDLE record: the scan stops there but
  // a checksum-valid record follows — that is damage, not a crash.
  std::string contents = ReadFileOrDie(log_file.path());
  size_t first_nl = contents.find('\n');
  size_t second_nl = contents.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  contents[second_nl - 2] = contents[second_nl - 2] == 'X' ? 'Y' : 'X';
  WriteFileOrDie(log_file.path(), contents);

  auto* bad_counter = MetricsRegistry::Global().GetCounter(
      "promises_oplog_scan_stopped_total_bad_record");
  uint64_t bad_before = bad_counter->Value();

  LogScanStats stats;
  auto refused = OperationLog::ReadForRecovery(log_file.path(), &stats);
  EXPECT_TRUE(refused.status().IsDataLoss()) << refused.status().ToString();
  EXPECT_EQ(stats.stop_reason, ScanStopReason::kBadRecord);
  EXPECT_TRUE(stats.valid_beyond_stop);
  EXPECT_EQ(bad_counter->Value(), bad_before + 1);

  // Open refuses too: appending would destroy the evidence.
  OperationLog log;
  EXPECT_TRUE(log.Open(log_file.path()).IsDataLoss());

  // Operator override: recover the valid prefix, count the damage.
  auto forced = OperationLog::ReadForRecovery(
      log_file.path(), &stats, /*allow_mid_log_corruption=*/true);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->size(), 1u);
  EXPECT_GT(stats.discarded_bytes, 0u);
  ASSERT_TRUE(log.Open(log_file.path(), /*allow_mid_log_corruption=*/true)
                  .ok());
  log.Close();
}

TEST(OplogScanTest, RecoveryHonorsMidLogOverride) {
  TempFile log_file("recover_midlog");
  TempFile ckpt_file("recover_midlog_ckpt");
  WorldParts original;
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(log_file.path()).ok());
    ASSERT_TRUE(original.pm->AttachLog(&log).ok());
    (void)RunScriptedHistory(original);
    log.Close();
  }
  std::string contents = ReadFileOrDie(log_file.path());
  size_t first_nl = contents.find('\n');
  size_t second_nl = contents.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  contents[second_nl - 2] = contents[second_nl - 2] == 'X' ? 'Y' : 'X';
  WriteFileOrDie(log_file.path(), contents);

  WorldParts refused;
  EXPECT_TRUE(RecoverWithCheckpoint(refused.pm.get(), &refused.clock,
                                    ckpt_file.path(), log_file.path())
                  .IsDataLoss());

  WorldParts forced;
  RecoveryOptions options;
  options.allow_mid_log_corruption = true;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(forced.pm.get(), &forced.clock,
                                    ckpt_file.path(), log_file.path(), options,
                                    &report)
                  .ok());
  EXPECT_EQ(report.total_records, 1u);  // the valid prefix only
}

// --- Parallel tail replay -----------------------------------------------

TEST(CheckpointTest, ParallelReplayMatchesSequential) {
  TempFile log_file("par_replay");
  Rng rng(1234);
  WorldParts original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  std::vector<PromiseId> held;
  for (int step = 0; step < 150; ++step) {
    switch (rng.UniformInt(0, 4)) {
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
        if (held.empty()) break;
        size_t pick = rng.NextU64() % held.size();
        (void)original.pm->Release(original.client, {held[pick]});
        held.erase(held.begin() + pick);
        break;
      }
      case 2: {
        ActionBody buy;
        buy.service = "inventory";
        buy.operation = "purchase";
        buy.params["item"] = Value("stock");
        buy.params["quantity"] = Value(rng.UniformInt(1, 3));
        (void)original.pm->Execute(original.client, buy, {});
        break;
      }
      case 3: {
        ActionBody restock;
        restock.service = "inventory";
        restock.operation = "restock";
        restock.params["item"] = Value("stock");
        restock.params["quantity"] = Value(rng.UniformInt(1, 3));
        (void)original.pm->Execute(original.client, restock, {});
        break;
      }
      default:
        original.clock.Advance(rng.UniformInt(0, 600));
        break;
    }
  }
  log.Close();

  auto records = OperationLog::ReadAll(log_file.path());
  ASSERT_TRUE(records.ok());
  WorldParts sequential, parallel;
  ASSERT_TRUE(sequential.pm->ReplayLog(*records, &sequential.clock).ok());
  ASSERT_TRUE(
      parallel.pm->ReplayLogParallel(*records, &parallel.clock, 4).ok());
  ExpectEquivalent(sequential, parallel);
  ExpectEquivalent(original, parallel);
  // Short random durations mean some held promises lapsed; the two
  // replays must agree on exactly which ones survived.
  for (PromiseId id : held) {
    EXPECT_EQ(sequential.pm->FindPromise(id) != nullptr,
              parallel.pm->FindPromise(id) != nullptr)
        << id.ToString();
  }
}

TEST(CheckpointTest, ParallelReplayPinsOutOfOrderIds) {
  TempFile log_file("par_pin");
  auto make_env = [](int64_t quantity) {
    Envelope env;
    env.message_id = MessageId(0);
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
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  ASSERT_TRUE(log.AppendOperation(&clock, make_env(5).ToXml(), 7).ok());
  ASSERT_TRUE(log.AppendOperation(&clock, make_env(3).ToXml(), 3).ok());
  ASSERT_TRUE(log.AppendOperation(&clock, make_env(2).ToXml(), 9).ok());
  log.Close();

  auto records = OperationLog::ReadAll(log_file.path());
  ASSERT_TRUE(records.ok());
  WorldParts recovered;
  ASSERT_TRUE(
      recovered.pm->ReplayLogParallel(*records, &recovered.clock, 4).ok());
  EXPECT_EQ(recovered.pm->active_promises(), 3u);
  EXPECT_NE(recovered.pm->FindPromise(PromiseId(7)), nullptr);
  EXPECT_NE(recovered.pm->FindPromise(PromiseId(3)), nullptr);
  EXPECT_NE(recovered.pm->FindPromise(PromiseId(9)), nullptr);
  auto g = recovered.pm->RequestPromise(
      recovered.client, {Predicate::Quantity("stock", CompareOp::kGe, 1)});
  ASSERT_TRUE(g.ok() && g->accepted);
  EXPECT_EQ(g->promise_id.value(), 10u);
}

// --- Dedup replies through a snapshot -----------------------------------

TEST(CheckpointTest, DedupRepliesSurviveSnapshotRecovery) {
  TempFile log_file("dedup_snap");
  TempFile ckpt_file("dedup_snap_ckpt");
  Envelope env;
  env.message_id = MessageId(77);
  env.from = "survivor";
  env.to = "recoverable";
  PromiseRequestHeader req;
  req.request_id = RequestId(5);
  req.predicates.push_back(Predicate::Quantity("stock", CompareOp::kGe, 10));
  env.promise_request = std::move(req);

  Envelope original_reply;
  {
    WorldParts original;
    OperationLog log;
    ASSERT_TRUE(log.Open(log_file.path()).ok());
    GroupCommitConfig gc;
    ASSERT_TRUE(log.StartGroupCommit(gc, &original.clock).ok());
    ASSERT_TRUE(original.pm->AttachLog(&log).ok());
    auto first = original.pm->Handle(env);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->promise_response.has_value());
    original_reply = *first;
    // Checkpoint + compact: the only copy of the reply is the snapshot.
    CheckpointWriter writer(original.pm.get(), &log, ckpt_file.path());
    auto cut = writer.RunOnce();
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    log.Close();
  }

  WorldParts recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(recovered.pm.get(), &recovered.clock,
                                    ckpt_file.path(), log_file.path(), {},
                                    &report)
                  .ok());
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(report.tail_records, 0u);
  // The client retries its pre-crash envelope: the snapshot must serve
  // the cached reply, not grant a second promise.
  auto retry = recovered.pm->Handle(env);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->ToXml(), original_reply.ToXml());
  EXPECT_EQ(recovered.pm->active_promises(), 1u);
}

TEST(CheckpointTest, Version1CheckpointWithXmlDedupRepliesRestores) {
  // Checkpoints written before the binary codec are version 1 and hold
  // their cached replies as XML. Rewrite a fresh checkpoint into that
  // form and require the same recovery, cached reply included.
  TempFile log_file("dedup_v1");
  TempFile ckpt_file("dedup_v1_ckpt");
  Envelope env;
  env.message_id = MessageId(78);
  env.from = "survivor";
  env.to = "recoverable";
  PromiseRequestHeader req;
  req.request_id = RequestId(6);
  req.predicates.push_back(Predicate::Quantity("stock", CompareOp::kGe, 10));
  env.promise_request = std::move(req);

  Envelope original_reply;
  {
    WorldParts original;
    OperationLog log;
    ASSERT_TRUE(log.Open(log_file.path()).ok());
    ASSERT_TRUE(original.pm->AttachLog(&log).ok());
    auto first = original.pm->Handle(env);
    ASSERT_TRUE(first.ok());
    original_reply = *first;
    CheckpointWriter writer(original.pm.get(), &log, ckpt_file.path());
    ASSERT_TRUE(writer.RunOnce().ok());
    log.Close();
  }
  auto current = LoadCheckpointFile(ckpt_file.path());
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  ASSERT_EQ(current->dedup.size(), 1u);
  for (CheckpointDedupEntry& entry : current->dedup) {
    ASSERT_EQ(Envelope::Sniff(entry.reply), EnvelopeEncoding::kBinary);
    auto reply = Envelope::Decode(entry.reply);
    ASSERT_TRUE(reply.ok());
    entry.reply = reply->ToXml();
  }
  std::string v1 = SerializeCheckpoint(*current);
  ASSERT_EQ(v1.rfind("pmckpt|2|", 0), 0u);
  v1.replace(0, 9, "pmckpt|1|");  // the checksum covers the body only
  WriteFileOrDie(ckpt_file.path(), v1);

  WorldParts recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(recovered.pm.get(), &recovered.clock,
                                    ckpt_file.path(), log_file.path(), {},
                                    &report)
                  .ok());
  EXPECT_TRUE(report.used_checkpoint);
  auto retry = recovered.pm->Handle(env);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->Encode(), original_reply.Encode());
  EXPECT_EQ(recovered.pm->active_promises(), 1u);
}

// --- Fuzzy capture under live traffic -----------------------------------

TEST(CheckpointTest, FuzzyCaptureUnderConcurrentLoad) {
  TempFile log_file("fuzzy");
  TempFile ckpt_file("fuzzy_ckpt");
  constexpr int kWorkers = 4;
  constexpr int kOps = 40;

  auto make_world = [](SimulatedClock* clock, TransactionManager* tm,
                       ResourceManager* rm) {
    for (int i = 0; i < kWorkers; ++i) {
      (void)rm->CreatePool(std::string("c").append(std::to_string(i)), 1'000);
    }
    PromiseManagerConfig config;
    config.name = "fuzzy";
    config.default_duration_ms = 60'000;
    return std::make_unique<PromiseManager>(config, clock, rm, tm);
  };

  SimulatedClock clock(0);
  TransactionManager tm(100);
  ResourceManager rm;
  auto pm = make_world(&clock, &tm, &rm);
  OperationLog log;
  ASSERT_TRUE(log.Open(log_file.path()).ok());
  GroupCommitConfig gc;
  gc.max_batch = 8;
  ASSERT_TRUE(log.StartGroupCommit(gc, &clock).ok());
  ASSERT_TRUE(pm->AttachLog(&log).ok());

  // The capture runs while every stripe keeps granting: nothing stalls,
  // and the snapshot lands on a consistent cut anyway.
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      ClientId client = pm->ClientFor("w" + std::to_string(w));
      std::string cls = "c" + std::to_string(w);
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        auto g = pm->RequestPromise(
            client, {Predicate::Quantity(cls, CompareOp::kGe, 1)});
        ASSERT_TRUE(g.ok() && g->accepted);
      }
    });
  }
  start.store(true);
  auto data = pm->CaptureCheckpoint();
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_TRUE(WriteCheckpointFile(ckpt_file.path(), *data).ok());
  log.Close();

  auto records = OperationLog::ReadAll(log_file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), static_cast<size_t>(kWorkers * kOps));

  // Twin worlds: full replay vs snapshot + tail must agree with each
  // other AND with the world that kept running through the capture.
  SimulatedClock clock_full(0), clock_snap(0);
  TransactionManager tm_full(100), tm_snap(100);
  ResourceManager rm_full, rm_snap;
  auto pm_full = make_world(&clock_full, &tm_full, &rm_full);
  auto pm_snap = make_world(&clock_snap, &tm_snap, &rm_snap);
  ASSERT_TRUE(pm_full->ReplayLog(*records, &clock_full).ok());
  RecoveryOptions options;
  options.replay_workers = 4;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(pm_snap.get(), &clock_snap,
                                    ckpt_file.path(), log_file.path(), options,
                                    &report)
                  .ok());
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_EQ(data->cut_lsn + report.tail_records, report.total_records);

  EXPECT_EQ(pm_full->active_promises(), pm_snap->active_promises());
  EXPECT_EQ(pm_snap->active_promises(), pm->active_promises());
  auto txn_full = tm_full.Begin();
  auto txn_snap = tm_snap.Begin();
  auto txn_live = tm.Begin();
  for (int i = 0; i < kWorkers; ++i) {
    std::string cls = "c" + std::to_string(i);
    int64_t full_qty = *rm_full.GetQuantity(txn_full.get(), cls);
    EXPECT_EQ(full_qty, *rm_snap.GetQuantity(txn_snap.get(), cls)) << cls;
    EXPECT_EQ(full_qty, *rm.GetQuantity(txn_live.get(), cls)) << cls;
  }
}

}  // namespace
}  // namespace promises

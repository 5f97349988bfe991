// Tests for OperationLog group commit: caller-led flushes,
// batching/linger knobs, durable acks, failure poisoning, the v2/v3
// record format + v1 version sniff, and TSan-targeted multi-writer
// stress.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/oplog.h"
#include "obs/metrics.h"
#include "protocol/transport.h"
#include "wsba/business_activity.h"

namespace promises {
namespace {

class TempLogFile {
 public:
  explicit TempLogFile(const std::string& tag)
      : path_("/tmp/promises_gclog_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log") {
    std::remove(path_.c_str());
  }
  ~TempLogFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(GroupCommitTest, SyncPathIsDurableImmediately) {
  TempLogFile file("sync");
  SimulatedClock clock(500);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  // No writer running: AppendOperation degrades to the sync path.
  auto seq = log.AppendOperation(&clock, "<a/>", 7);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(*seq, 1u);
  EXPECT_TRUE(log.WaitDurable(*seq).ok());
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].sequence, 1u);
  EXPECT_EQ((*records)[0].timestamp, 500);
  EXPECT_EQ((*records)[0].promise_id, 7u);
  EXPECT_EQ((*records)[0].payload, "<a/>");
}

TEST(GroupCommitTest, FullBatchFlushesAsOneGroup) {
  TempLogFile file("batch");
  SimulatedClock clock(0);  // never advanced: the linger cannot expire
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  config.max_batch = 8;
  config.max_delay_ms = 1'000'000;  // effectively: flush only when full
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  Counter* groups =
      MetricsRegistry::Global().GetCounter("promises_oplog_groups_total");
  uint64_t groups_before = groups->Value();

  // Fill exactly one batch from concurrent committers; the writer must
  // coalesce all 8 records into a single flush.
  std::vector<std::thread> committers;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i) {
    committers.emplace_back([&log, &clock, &failures, i] {
      auto seq = log.AppendOperation(
          &clock, "<r i=\"" + std::to_string(i) + "\"/>", 0);
      if (!seq.ok() || !log.WaitDurable(*seq).ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : committers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(groups->Value(), groups_before + 1);
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 8u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].sequence, i + 1);  // dense, monotone
  }
}

TEST(GroupCommitTest, MaxDelayLingerFlushesOnInjectedClockAdvance) {
  TempLogFile file("linger");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  config.max_batch = 1024;  // never fills
  config.max_delay_ms = 50;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  auto seq = log.AppendOperation(&clock, "<lingering/>", 0);
  ASSERT_TRUE(seq.ok());
  // The group is held open while the injected clock stands still;
  // advancing it past the delay releases the flush.
  std::thread waiter([&log, &seq] {
    EXPECT_TRUE(log.WaitDurable(*seq).ok());
  });
  clock.Advance(51);
  waiter.join();
  log.Close();
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST(GroupCommitTest, AsyncModeAcksWithoutWaitingAndFlushesOnClose) {
  TempLogFile file("async");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kAsync;
  config.max_batch = 1024;
  config.max_delay_ms = 1'000'000;  // nothing forces a flush...
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());
  for (int i = 0; i < 5; ++i) {
    auto seq = log.AppendOperation(&clock, "<fire-and-forget/>", 0);
    ASSERT_TRUE(seq.ok());
    EXPECT_TRUE(log.WaitDurable(*seq).ok());  // returns immediately
  }
  log.Close();  // ...except the drain on close
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 5u);
}

TEST(GroupCommitTest, TornGroupWriteFailsCommittersAndPoisonsLog) {
  TempLogFile file("torn_group");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(log.Append(1, "<durable/>").ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  log.InjectTornWrite(4);  // the whole next group tears after 4 bytes
  auto seq = log.AppendOperation(&clock, "<lost/>", 0);
  ASSERT_TRUE(seq.ok());  // sequencing succeeded...
  Status st = log.WaitDurable(*seq);
  ASSERT_FALSE(st.ok());  // ...durability did not
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();

  // The log is poisoned: no record may land past the torn tail, where
  // the recovery scan could never reach it.
  EXPECT_FALSE(log.AppendOperation(&clock, "<after/>", 0).ok());
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "<durable/>");
}

TEST(GroupCommitTest, DropToSyncFallbackAfterWriterStops) {
  TempLogFile file("fallback");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());
  auto s1 = log.AppendOperation(&clock, "<grouped/>", 0);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(log.WaitDurable(*s1).ok());
  log.StopGroupCommit();
  // Appends keep working synchronously; sequence numbering continues.
  auto s2 = log.AppendOperation(&clock, "<synced/>", 0);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s1 + 1);
  EXPECT_TRUE(log.WaitDurable(*s2).ok());
  log.Close();
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

// --- Caller-led flushing: unwaited records, Abandon racing a leader ----

TEST(GroupCommitTest, AsyncRecordReachesFileWithoutLaterCommit) {
  TempLogFile file("async_alone");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kAsync;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());
  auto seq = log.AppendOperation(&clock, "<async/>", 0);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(log.WaitDurable(*seq).ok());
  // No later commit, no Close: the record is in the file already.
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "<async/>");
}

TEST(GroupCommitTest, UnwaitedRecordRidesTheFlushInProgress) {
  TempLogFile file("unwaited");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  config.max_batch = 1;  // the unwaited record needs a group of its own
  config.max_delay_ms = 50;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  auto waited = log.AppendOperation(&clock, "<waited/>", 0);
  ASSERT_TRUE(waited.ok());
  // The waiter leads a flush and lingers on the frozen clock.
  std::thread waiter([&log, &waited] {
    EXPECT_TRUE(log.WaitDurable(*waited).ok());
  });
  while (log.CutPoint()->sequence == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto unwaited = log.AppendOperation(&clock, "<unwaited/>", 0);
  ASSERT_TRUE(unwaited.ok());
  log.FlushWithoutWaiting(*unwaited);  // a flush is in progress: returns
  clock.Advance(51);
  waiter.join();
  // The leader wrote the unwaited record before its flush ended.
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1].payload, "<unwaited/>");
}

TEST(GroupCommitTest, WsbaNonDurableRecordReachesFileWithoutLaterCommit) {
  TempLogFile file("wsba_unwaited");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(log.StartGroupCommit(GroupCommitConfig{}, &clock).ok());
  Transport transport;
  CoordinatorOptions opts;
  opts.log = &log;
  opts.clock = &clock;
  BusinessActivityCoordinator coordinator("coordinator", &transport, opts);
  ActivityId activity = coordinator.CreateActivity();  // durable=false
  ASSERT_TRUE(activity.valid());
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload,
            "ba|create|" + std::to_string(activity.value()));
}

TEST(GroupCommitConcurrencyTest, AbandonRacingLeaderFlushMatchesTheFile) {
  // Abandon lands while committers lead their own flushes: the file
  // must never be closed under a write (ASan), and every committer
  // told "durable" must find its record in the file afterwards.
  const std::string big(64 << 10, 'x');  // long writes widen the race
  for (int round = 0; round < 40; ++round) {
    TempLogFile file("abandon_race");
    SystemClock clock;
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.StartGroupCommit(GroupCommitConfig{}, &clock).ok());
    constexpr int kCommitters = 3;
    std::vector<std::vector<std::string>> acked(kCommitters);
    std::vector<std::string> refused(kCommitters);
    std::vector<std::thread> committers;
    for (int c = 0; c < kCommitters; ++c) {
      committers.emplace_back([&, c] {
        for (int i = 0; i < 50; ++i) {
          std::string payload = std::to_string(c) + "/" + std::to_string(i) +
                                "|" + big;
          auto seq = log.AppendOperation(&clock, payload, 0);
          if (!seq.ok()) return;
          if (!log.WaitDurable(*seq).ok()) {
            refused[static_cast<size_t>(c)] = std::move(payload);
            return;
          }
          acked[static_cast<size_t>(c)].push_back(std::move(payload));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 8)));
    log.Abandon();
    for (std::thread& t : committers) t.join();

    auto records = OperationLog::ReadAll(file.path());
    ASSERT_TRUE(records.ok());
    std::set<std::string> in_file;
    for (const LogRecord& r : *records) in_file.insert(r.payload);
    for (const auto& per_committer : acked) {
      for (const std::string& payload : per_committer) {
        EXPECT_EQ(in_file.count(payload), 1u)
            << "acked record missing: " << payload.substr(0, 8);
      }
    }
    for (const std::string& payload : refused) {
      if (payload.empty()) continue;
      EXPECT_EQ(in_file.count(payload), 0u)
          << "refused record written: " << payload.substr(0, 8);
    }
  }
}

// --- Record format: v2 checksum coverage + v1 compatibility -------------

TEST(GroupCommitTest, CorruptedTimestampFieldFailsVerification) {
  // The v1 checksum covered only the payload, so a flipped digit in
  // the timestamp header replayed with a wrong clock. v2 folds every
  // header field into the hash.
  TempLogFile file("hdr_corrupt");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(123456, "<a/>").ok());
  }
  // Rewrite the file with the timestamp digits tampered.
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  std::FILE* f = std::fopen(file.path().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  size_t pos = contents.find("123456");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = '9';
  f = std::fopen(file.path().c_str(), "wb");
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);

  records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 0u);  // header tampering is detected
}

std::string ReadFileBytes(const std::string& path) {
  std::string contents;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  return contents;
}

TEST(GroupCommitTest, GoldenV3RecordBytes) {
  // Pins the v3 wire format byte for byte: header field order, decimal
  // formatting (a negative timestamp, the widest integers) and
  // the FNV-1a checksum over "<len>|<seq>|<ts>|<pid>|<payload>".
  TempLogFile file("golden");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(1234, "grant|x").ok());
    SimulatedClock far(INT64_MAX);
    auto seq = log.AppendOperation(&far, std::string("a\nb|\0c", 6),
                                   INT64_MAX);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(log.WaitDurable(*seq).ok());
    ASSERT_TRUE(log.Append(-5, "").ok());
  }
  const std::string golden =
      std::string("v3|7|1521725709|1|1234|0|grant|x\n") +
      "v3|6|1929952705|2|9223372036854775807|9223372036854775807|" +
      std::string("a\nb|\0c\n", 7) +
      "v3|0|2432456580|3|-5|0|\n";
  EXPECT_EQ(ReadFileBytes(file.path()), golden);
  EXPECT_EQ(OperationLog::RecordChecksum(7, 1, 1234, 0, "grant|x"),
            1521725709u);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[1].timestamp, INT64_MAX);
  EXPECT_EQ((*records)[1].promise_id, uint64_t{INT64_MAX});
  EXPECT_EQ((*records)[1].payload, std::string("a\nb|\0c", 6));
  EXPECT_EQ((*records)[2].timestamp, -5);
}

TEST(GroupCommitTest, V1RecordsStillReplayBehindVersionSniff) {
  TempLogFile file("v1_compat");
  // Hand-craft two v1-format records (payload-only checksum), as an
  // old binary would have written them.
  std::string p1 = "<old-grant/>";
  std::string p2 = "damage|stock|3";
  std::FILE* f = std::fopen(file.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "%zu|%u|%d|%s\n", p1.size(), OperationLog::Checksum(p1),
               100, p1.c_str());
  std::fprintf(f, "%zu|%u|%d|%s\n", p2.size(), OperationLog::Checksum(p2),
               250, p2.c_str());
  std::fclose(f);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].payload, p1);
  EXPECT_EQ((*records)[0].timestamp, 100);
  EXPECT_EQ((*records)[0].sequence, 1u);  // numbered by position
  EXPECT_EQ((*records)[0].promise_id, 0u);
  EXPECT_EQ((*records)[1].sequence, 2u);

  // A new binary continuing an old log writes v2 records after the v1
  // prefix, with the sequence resuming past it.
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(300, "<new-grant/>").ok());
  }
  records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].sequence, 3u);
  EXPECT_EQ((*records)[2].payload, "<new-grant/>");
}

TEST(GroupCommitTest, SequenceRegressionEndsScan) {
  TempLogFile file("seq_regress");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<a/>").ok());
    ASSERT_TRUE(log.Append(2, "<b/>").ok());
  }
  // Duplicate the first (seq=1) line after the second: a regressed
  // sequence must end the scan even though its checksum is intact.
  std::FILE* f = std::fopen(file.path().c_str(), "rb");
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::string first_line = contents.substr(0, contents.find('\n') + 1);
  f = std::fopen(file.path().c_str(), "ab");
  std::fwrite(first_line.data(), 1, first_line.size(), f);
  std::fclose(f);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

// --- Multi-writer stress (TSan target) ----------------------------------

TEST(GroupCommitConcurrencyTest, MultiWriterStressKeepsEveryAckedRecord) {
  TempLogFile file("stress");
  SystemClock clock;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  config.max_batch = 32;
  config.queue_capacity = 64;  // small: exercises backpressure
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> acked{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, &clock, &acked, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto seq = log.AppendOperation(
            &clock,
            "<op t=\"" + std::to_string(t) + "\" i=\"" + std::to_string(i) +
                "\"/>",
            static_cast<uint64_t>(t * kOpsPerThread + i + 1));
        if (seq.ok() && log.WaitDurable(*seq).ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  log.Close();
  EXPECT_EQ(acked.load(), kThreads * kOpsPerThread);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), static_cast<size_t>(kThreads * kOpsPerThread));
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].sequence, i + 1);  // dense and monotone
  }
}

}  // namespace
}  // namespace promises

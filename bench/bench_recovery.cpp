// Bounded-recovery sweep: time-to-recover as a function of log length,
// full replay vs snapshot + tail. Each point generates a grant/release
// history against four disjoint pools (active set bounded by a ring, so
// the state stays small while the log grows without bound), installs a
// fuzzy checkpoint at 95% of the history, and then recovers a fresh
// world both ways from the same artifacts. Full replay scales with the
// whole history; snapshot + tail scales with the 5% tail — the gap is
// the entire point of checkpointing, so the bench self-gates on it:
// exit nonzero unless snapshot + tail is at least 5x faster than full
// replay at the longest log length.
//
// Plain main (not google-benchmark): each row is one timed recovery,
// and the output contract is the BENCH_recovery.json file.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/checkpoint.h"
#include "core/oplog.h"
#include "core/promise_manager.h"
#include "obs/trace.h"
#include "txn/transaction.h"

namespace {

constexpr const char* kLogPath = "bench_recovery_oplog.log";
constexpr const char* kFullLogPath = "bench_recovery_oplog_full.log";
constexpr const char* kCkptPath = "bench_recovery.ckpt";
constexpr int kPools = 4;
constexpr int kRingPerPool = 16;  // bounded active set per pool
constexpr double kCheckpointFraction = 0.95;

struct RecoveryPoint {
  std::string mode;
  int log_length = 0;
  double recovery_ms = 0.0;
  double replay_ops_s = 0.0;  // history length / recovery time
  uint64_t tail_records = 0;
  uint64_t active_promises = 0;
};

struct World {
  promises::SimulatedClock clock{0};
  promises::TransactionManager tm{100};
  promises::ResourceManager rm;
  std::unique_ptr<promises::PromiseManager> pm;

  World() {
    for (int i = 0; i < kPools; ++i) {
      (void)rm.CreatePool(std::string("p").append(std::to_string(i)), 1'000);
    }
    promises::PromiseManagerConfig config;
    config.name = "recovery-bench";
    config.default_duration_ms = 3'600'000;  // nothing expires mid-run
    pm = std::make_unique<promises::PromiseManager>(config, &clock, &rm, &tm);
  }
};

void CopyFile(const char* from, const char* to) {
  std::FILE* in = std::fopen(from, "rb");
  std::FILE* out = std::fopen(to, "wb");
  if (in == nullptr || out == nullptr) {
    std::fprintf(stderr, "copy %s -> %s failed\n", from, to);
    std::exit(1);
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    if (std::fwrite(buf, 1, n, out) != n) {
      std::fprintf(stderr, "copy write failed\n");
      std::exit(1);
    }
  }
  std::fclose(in);
  std::fclose(out);
}

// Round-robin grants across the pools, releasing the oldest grant of a
// pool once its ring is full: every operation appends one log record
// while the live state stays a constant ~kPools * kRingPerPool
// promises. A checkpoint is captured and installed after
// kCheckpointFraction of the operations; the full pre-compaction log is
// preserved as a copy so the full-replay mode recovers from the exact
// same history, then the live log is compacted to the cut — precisely
// what CheckpointWriter::RunOnce leaves behind in production.
void GenerateHistory(int log_length) {
  std::remove(kLogPath);
  std::remove(kFullLogPath);
  std::remove(kCkptPath);
  World world;
  promises::OperationLog log;
  promises::Status st = log.Open(kLogPath);
  if (st.ok()) st = world.pm->AttachLog(&log);
  if (!st.ok()) {
    std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  promises::ClientId client = world.pm->ClientFor("bench");
  std::vector<std::deque<promises::PromiseId>> rings(kPools);

  const int cut_at = static_cast<int>(log_length * kCheckpointFraction);
  uint64_t cut_lsn = 0;
  for (int i = 0; i < log_length; ++i) {
    if (i == cut_at) {
      auto data = world.pm->CaptureCheckpoint();
      if (data.ok()) {
        cut_lsn = data->cut_lsn;
        st = promises::WriteCheckpointFile(kCkptPath, *data);
      } else {
        st = data.status();
      }
      if (!st.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
    int pool = i % kPools;
    std::string cls = std::string("p").append(std::to_string(pool));
    if (rings[pool].size() >= kRingPerPool) {
      promises::PromiseId oldest = rings[pool].front();
      rings[pool].pop_front();
      auto released = world.pm->Release(client, {oldest});
      if (!released.ok()) {
        std::fprintf(stderr, "release: %s\n",
                     released.ToString().c_str());
        std::exit(1);
      }
    } else {
      auto g = world.pm->RequestPromise(
          client,
          {promises::Predicate::Quantity(cls, promises::CompareOp::kGe, 1)});
      if (!g.ok() || !g->accepted) {
        std::fprintf(stderr, "grant %d rejected\n", i);
        std::exit(1);
      }
      rings[pool].push_back(g->promise_id);
    }
    world.clock.Advance(1);
  }
  log.Close();

  // Full-replay mode recovers from the pre-compaction copy; the live
  // log is compacted to the cut, as the checkpoint writer leaves it.
  CopyFile(kLogPath, kFullLogPath);
  promises::OperationLog compactor;
  st = compactor.Open(kLogPath);
  if (st.ok()) st = compactor.TruncateBefore(cut_lsn);
  if (!st.ok()) {
    std::fprintf(stderr, "compact: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  compactor.Close();
}

RecoveryPoint RecoverOnce(const std::string& mode, int log_length) {
  World world;
  promises::RecoveryOptions options;
  promises::RecoveryReport report;
  auto start = std::chrono::steady_clock::now();
  promises::Status st;
  if (mode == "full-replay") {
    auto records = promises::OperationLog::ReadAll(kFullLogPath);
    if (records.ok()) {
      st = world.pm->ReplayLog(*records, &world.clock);
      report.total_records = records->size();
      report.tail_records = records->size();
    } else {
      st = records.status();
    }
  } else {
    options.replay_workers = 4;
    st = promises::RecoverWithCheckpoint(world.pm.get(), &world.clock,
                                         kCkptPath, kLogPath, options,
                                         &report);
  }
  auto end = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "recover (%s): %s\n", mode.c_str(),
                 st.ToString().c_str());
    std::exit(1);
  }

  RecoveryPoint point;
  point.mode = mode;
  point.log_length = log_length;
  point.recovery_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  double secs = point.recovery_ms / 1'000.0;
  // Goodput is history-normalized: operations *recovered* per second,
  // whether they came from replaying records or loading the snapshot.
  point.replay_ops_s = secs > 0 ? log_length / secs : 0.0;
  point.tail_records = report.tail_records;
  point.active_promises = world.pm->active_promises();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";

  promises::Tracer::Global().set_sampling(1.0);
  promises::SpanCollector::Global().Reset();

  std::vector<int> lengths = {1'000, 4'000, 16'000};
  std::vector<std::string> modes = {"full-replay", "snapshot-tail"};
  // Three interleaved trials, per-point median by recovery time: one
  // history generation serves both modes, so the comparison at each
  // trial runs against identical artifacts.
  constexpr int kTrials = 3;
  std::vector<std::vector<RecoveryPoint>> trials(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    for (int length : lengths) {
      GenerateHistory(length);
      for (const std::string& mode : modes) {
        trials[t].push_back(RecoverOnce(mode, length));
      }
    }
  }
  std::remove(kLogPath);
  std::remove(kFullLogPath);
  std::remove(kCkptPath);

  std::vector<RecoveryPoint> points;
  for (size_t i = 0; i < trials[0].size(); ++i) {
    std::vector<RecoveryPoint> samples;
    for (int t = 0; t < kTrials; ++t) samples.push_back(trials[t][i]);
    std::sort(samples.begin(), samples.end(),
              [](const RecoveryPoint& a, const RecoveryPoint& b) {
                return a.recovery_ms < b.recovery_ms;
              });
    points.push_back(samples[kTrials / 2]);
  }

  double full_longest = 0.0, snap_longest = 0.0;
  std::string rows;
  for (const RecoveryPoint& p : points) {
    if (p.log_length == lengths.back()) {
      if (p.mode == "full-replay") full_longest = p.recovery_ms;
      if (p.mode == "snapshot-tail") snap_longest = p.recovery_ms;
    }
    char row[320];
    std::snprintf(
        row, sizeof(row),
        "    {\"mode\": \"%s\", \"log_length\": %d, "
        "\"recovery_ms\": %.2f, \"replay_ops_s\": %.1f, "
        "\"tail_records\": %llu, \"active_promises\": %llu}",
        p.mode.c_str(), p.log_length, p.recovery_ms, p.replay_ops_s,
        static_cast<unsigned long long>(p.tail_records),
        static_cast<unsigned long long>(p.active_promises));
    if (!rows.empty()) rows += ",\n";
    rows += row;
  }
  double speedup = snap_longest > 0.0 ? full_longest / snap_longest : 0.0;

  promises::Tracer::Global().set_sampling(0);
  std::vector<promises::Span> spans =
      promises::SpanCollector::Global().Drain();
  std::vector<promises::PhaseStat> phases = promises::AggregatePhases(spans);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"bounded recovery sweep\",\n"
               "  \"workload\": {\"pools\": %d, \"ring_per_pool\": %d, "
               "\"checkpoint_fraction\": %.2f},\n"
               "  \"points\": [\n%s\n  ],\n"
               "  \"snapshot_speedup_at_longest\": %.2f,\n"
               "  \"spans_collected\": %llu,\n"
               "  \"phase_latency_us\": %s\n"
               "}\n",
               kPools, kRingPerPool, kCheckpointFraction, rows.c_str(),
               speedup, static_cast<unsigned long long>(spans.size()),
               promises::PhaseLatencyJson(phases, "  ").c_str());
  std::fclose(f);

  std::printf("%-14s %-10s %12s %14s %8s\n", "mode", "log_len",
              "recovery_ms", "replay_ops/s", "tail");
  for (const RecoveryPoint& p : points) {
    std::printf("%-14s %-10d %12.2f %14.1f %8llu\n", p.mode.c_str(),
                p.log_length, p.recovery_ms, p.replay_ops_s,
                static_cast<unsigned long long>(p.tail_records));
  }
  std::printf("%s", promises::FormatPhaseTable(phases).c_str());
  std::printf("snapshot+tail vs full replay at %d records: %.2fx -> %s\n",
              lengths.back(), speedup, out_path);

  // The gate: bounded recovery must beat unbounded replay decisively at
  // the longest log, or checkpointing is not paying for itself.
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: snapshot+tail only %.2fx faster than full replay "
                 "at %d records (gate: >= 5x)\n",
                 speedup, lengths.back());
    return 1;
  }
  return 0;
}

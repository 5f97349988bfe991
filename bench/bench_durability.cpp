// Durability sweep for group-commit logging: promise-manager goodput
// at 1/2/4/8 workers under three durability levels — no log attached,
// sync-per-record (one fdatasync per operation), and group commit
// (one fdatasync per batch). Workers grant against disjoint pools, so
// the sweep isolates the log path: sync-per-record serializes every
// operation behind its own disk sync, while group commit amortizes
// the sync across whatever the batch collected.
//
// Plain main (not google-benchmark): each row is one timed run, and
// the output contract is the BENCH_durability.json file.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/oplog.h"
#include "core/promise_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "txn/transaction.h"

namespace {

constexpr int kOpsPerWorker = 500;
constexpr const char* kLogPath = "bench_durability_oplog.log";

struct DurabilityPoint {
  std::string mode;
  int workers = 0;
  double throughput_ops_s = 0.0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  uint64_t completed = 0;
  double avg_group_size = 0.0;
};

int64_t Percentile(std::vector<int64_t>& us, double p) {
  if (us.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (us.size() - 1));
  std::nth_element(us.begin(), us.begin() + idx, us.end());
  return us[idx];
}

DurabilityPoint RunOne(const std::string& mode, int workers) {
  std::remove(kLogPath);
  promises::SystemClock clock;
  promises::TransactionManager tm(100);
  promises::ResourceManager rm;
  for (int w = 0; w < workers; ++w) {
    (void)rm.CreatePool(std::string("d").append(std::to_string(w)),
                        kOpsPerWorker + 1);
  }
  promises::PromiseManagerConfig config;
  config.name = "durability-bench";
  config.default_duration_ms = 3'600'000;  // never expires mid-run
  promises::PromiseManager pm(config, &clock, &rm, &tm);

  promises::Counter* records = promises::MetricsRegistry::Global().GetCounter(
      "promises_oplog_records_total");
  promises::Counter* groups = promises::MetricsRegistry::Global().GetCounter(
      "promises_oplog_groups_total");
  uint64_t records_before = records->Value();
  uint64_t groups_before = groups->Value();

  promises::OperationLog log;
  if (mode != "no-log") {
    promises::Status st = log.Open(kLogPath);
    if (!st.ok()) {
      std::fprintf(stderr, "open: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    promises::GroupCommitConfig gc;
    gc.use_fdatasync = true;  // both durable modes pay for real syncs
    gc.mode = mode == "group-commit" ? promises::DurabilityMode::kGroup
                                     : promises::DurabilityMode::kSync;
    // Batch up to the in-flight population, no linger: the group is
    // every committer that queued during the previous sync.
    gc.max_batch = static_cast<size_t>(workers);
    gc.max_delay_ms = 0;
    st = log.StartGroupCommit(gc, &clock);
    if (st.ok()) st = pm.AttachLog(&log);
    if (!st.ok()) {
      std::fprintf(stderr, "attach: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }

  std::vector<std::vector<int64_t>> latencies(workers);
  std::vector<uint64_t> completed(workers, 0);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&pm, &latencies, &completed, w] {
      promises::ClientId client =
          pm.ClientFor("worker-" + std::to_string(w));
      std::string pool = std::string("d").append(std::to_string(w));
      latencies[w].reserve(kOpsPerWorker);
      for (int i = 0; i < kOpsPerWorker; ++i) {
        auto op_start = std::chrono::steady_clock::now();
        auto g = pm.RequestPromise(
            client,
            {promises::Predicate::Quantity(pool, promises::CompareOp::kGe,
                                           1)});
        auto op_end = std::chrono::steady_clock::now();
        if (g.ok() && g->accepted) {
          ++completed[w];
          latencies[w].push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(op_end -
                                                                    op_start)
                  .count());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto end = std::chrono::steady_clock::now();
  if (mode != "no-log") log.Close();
  std::remove(kLogPath);

  DurabilityPoint point;
  point.mode = mode;
  point.workers = workers;
  std::vector<int64_t> all;
  for (int w = 0; w < workers; ++w) {
    point.completed += completed[w];
    all.insert(all.end(), latencies[w].begin(), latencies[w].end());
  }
  double secs = std::chrono::duration<double>(end - start).count();
  point.throughput_ops_s = secs > 0 ? point.completed / secs : 0.0;
  point.p50_us = Percentile(all, 0.5);
  point.p99_us = Percentile(all, 0.99);
  uint64_t d_records = records->Value() - records_before;
  uint64_t d_groups = groups->Value() - groups_before;
  point.avg_group_size =
      d_groups > 0 ? static_cast<double>(d_records) / d_groups : 0.0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_durability.json";

  // Sample a slice of requests so the phase table shows where durable
  // operations spend their time (oplog-append vs oplog-group-wait)
  // without span collection taxing the serialized wake-up path.
  promises::Tracer::Global().set_sampling(0.1);
  promises::SpanCollector::Global().Reset();

  std::vector<std::string> modes = {"no-log", "sync-per-record",
                                    "group-commit"};
  std::vector<int> worker_counts = {1, 2, 4, 8};
  // Five interleaved sweeps, per-point median by throughput: a
  // scheduler hiccup or filesystem-speed drift skews one whole sweep
  // rather than one mode, so medians compare modes under like
  // conditions.
  constexpr int kTrials = 5;
  std::vector<std::vector<DurabilityPoint>> trials(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    for (const std::string& mode : modes) {
      for (int workers : worker_counts) {
        trials[t].push_back(RunOne(mode, workers));
      }
    }
  }
  std::vector<DurabilityPoint> points;
  for (size_t i = 0; i < trials[0].size(); ++i) {
    std::vector<DurabilityPoint> samples;
    for (int t = 0; t < kTrials; ++t) samples.push_back(trials[t][i]);
    std::sort(samples.begin(), samples.end(),
              [](const DurabilityPoint& a, const DurabilityPoint& b) {
                return a.throughput_ops_s < b.throughput_ops_s;
              });
    points.push_back(samples[kTrials / 2]);
  }

  double sync8 = 0.0, group8 = 0.0;
  std::string rows;
  for (const DurabilityPoint& p : points) {
    if (p.workers == 8 && p.mode == "sync-per-record")
      sync8 = p.throughput_ops_s;
    if (p.workers == 8 && p.mode == "group-commit")
      group8 = p.throughput_ops_s;
    char row[320];
    std::snprintf(
        row, sizeof(row),
        "    {\"mode\": \"%s\", \"workers\": %d, "
        "\"throughput_ops_s\": %.1f, \"p50_us\": %lld, \"p99_us\": %lld, "
        "\"completed\": %llu, \"avg_group_size\": %.1f}",
        p.mode.c_str(), p.workers, p.throughput_ops_s,
        static_cast<long long>(p.p50_us), static_cast<long long>(p.p99_us),
        static_cast<unsigned long long>(p.completed), p.avg_group_size);
    if (!rows.empty()) rows += ",\n";
    rows += row;
  }
  double ratio = sync8 > 0.0 ? group8 / sync8 : 0.0;

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
               "  \"benchmark\": \"group-commit durability sweep\",\n"
               "  \"workload\": {\"ops_per_worker\": %d, "
               "\"pools_per_worker\": 1, \"fdatasync\": true},\n"
               "  \"points\": [\n%s\n  ],\n"
               "  \"group_vs_sync_8w\": %.2f,\n"
               "  \"spans_collected\": %llu,\n"
               "  \"phase_latency_us\": %s\n"
               "}\n",
               kOpsPerWorker, rows.c_str(), ratio,
               static_cast<unsigned long long>(spans.size()),
               promises::PhaseLatencyJson(phases, "  ").c_str());
  std::fclose(f);

  std::printf("%-16s %-8s %12s %10s %10s %8s\n", "mode", "workers", "ops/s",
              "p50(us)", "p99(us)", "grp");
  for (const DurabilityPoint& p : points) {
    std::printf("%-16s %-8d %12.1f %10lld %10lld %8.1f\n", p.mode.c_str(),
                p.workers, p.throughput_ops_s,
                static_cast<long long>(p.p50_us),
                static_cast<long long>(p.p99_us), p.avg_group_size);
  }
  std::printf("%s", promises::FormatPhaseTable(phases).c_str());
  std::printf("group-commit vs sync-per-record at 8 workers: %.2fx -> %s\n",
              ratio, out_path);
  return 0;
}

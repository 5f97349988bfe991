// Epoch-batched vs per-operation striped execution (DESIGN.md §14) on
// a no-think-time closed-loop merchant workload: every order is pure
// manager hot path (request + purchase-with-release over the
// in-process transport), with a group-commit operation log attached so
// "reply implies durable" holds on both paths.
//
//  * striped — clients hit PromiseManager::Handle directly; every
//    operation takes its stripe locks and awaits its own log record.
//    Measured twice: at 8 clients (the latency-bound reference — each
//    client serially pays the group-commit window) and at the SAME
//    256-client population the epoch path runs, so the gated
//    comparison is equal-offered-concurrency, not an artifact of the
//    group window starving a small closed loop. At 256 clients the
//    striped path amortizes the group window across concurrent
//    committers exactly as the epoch path does; what remains is the
//    per-operation cost under test — stripe-lock convoys and
//    per-op scheduling — versus one ordering decision per batch.
//  * epoch   — the same transport routed through an EpochExecutor:
//    operations batch into epochs, partitions execute lock-free, and
//    the whole epoch shares one durable wait.
//
// Identical log configuration and lock timeout on both paths; the
// speedup (and the >=4x CI gate) is computed from the equal-population
// points only. After every point the §4
// invariants are audited in-binary (stock conservation, exactly-once
// grant/release accounting, table drained) and the verdict is emitted
// as audit_ok — scripts/check_bench.py hard-gates on it and on the
// speedup floor.
//
// Plain main (not google-benchmark): each row is one timed run, and
// the output contract is the BENCH_epoch.json file.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/epoch_executor.h"
#include "core/oplog.h"
#include "core/promise_manager.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/services.h"
#include "txn/transaction.h"

namespace {

constexpr int kNumItems = 16;
constexpr int64_t kStockPerItem = 8'000;
constexpr int64_t kOrderQuantity = 1;
constexpr int kOrdersPerClient = 200;
constexpr int kEpochWorkers = 8;
constexpr int kStripedClients = 8;  // the 8-worker striped reference
// Closed-loop population feeding epochs: twice the epoch batch cap, so
// while one epoch executes, the previously released half of the
// population resubmits into the inbox. Sealing then never waits on
// client wake-ups — the pipeline keeps every batch full. The striped
// path is run at this same population for the gated comparison.
constexpr int kEpochClients = 256;
constexpr size_t kEpochMaxBatch = 128;
// Generous enough that the striped path's lock convoys at 256 clients
// stall but never abort: every order on every point must complete, or
// the audit (and the comparison) is meaningless. Identical on both
// paths.
constexpr promises::DurationMs kLockTimeoutMs = 30'000;
constexpr const char* kLogPath = "bench_epoch_oplog.log";

struct EpochPoint {
  std::string path;  // "striped" | "epoch"
  int clients = 0;   // closed-loop population
  int workers = 0;
  double goodput_ops_s = 0.0;  // completed orders per second
  int64_t p50_us = 0;          // per-order client latency
  int64_t p99_us = 0;
  uint64_t completed = 0;
  bool audit_ok = false;
  std::string audit_detail;
  // Epoch-path extras (zero on the striped row).
  uint64_t epochs = 0;
  double avg_batch = 0.0;
  uint64_t serial_ops = 0;
  uint64_t partition_misses = 0;
};

int64_t Percentile(std::vector<int64_t>& us, double p) {
  if (us.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (us.size() - 1));
  std::nth_element(us.begin(), us.begin() + idx, us.end());
  return us[idx];
}

EpochPoint RunOne(const std::string& path_mode, int clients) {
  std::remove(kLogPath);
  promises::SystemClock clock;
  promises::TransactionManager tm(kLockTimeoutMs);
  promises::ResourceManager rm;
  std::vector<std::string> items;
  for (int i = 0; i < kNumItems; ++i) {
    items.push_back("widget-" + std::to_string(i));
    (void)rm.CreatePool(items.back(), kStockPerItem);
  }
  promises::Transport transport;
  promises::PromiseManagerConfig config;
  config.name = "epoch-bench";
  config.default_duration_ms = 3'600'000;  // never expires mid-run
  promises::PromiseManager pm(config, &clock, &rm, &tm, &transport);
  pm.RegisterService("inventory", promises::MakeInventoryService());

  promises::OperationLog log;
  promises::Status st = log.Open(kLogPath);
  if (!st.ok()) {
    std::fprintf(stderr, "open: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  promises::GroupCommitConfig gc;  // same knobs on both paths
  gc.use_fdatasync = true;
  // Production-style group formation: hold a group open a couple of
  // milliseconds so one sync covers many records (MySQL/Postgres group
  // commit tunes delays in this range). The per-op striped path pays
  // this latency on every operation's durable ack; the epoch path
  // crosses it once per epoch and kicks the flush leader at the batch
  // boundary — that asymmetry is the amortization under test, not a
  // handicap (identical log config on both paths).
  gc.max_delay_ms = 2;
  st = log.StartGroupCommit(gc, &clock);
  if (st.ok()) st = pm.AttachLog(&log);
  if (!st.ok()) {
    std::fprintf(stderr, "attach: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  const bool use_epoch = path_mode == "epoch";
  std::unique_ptr<promises::EpochExecutor> executor;
  if (use_epoch) {
    promises::EpochExecutorConfig epoch_config;
    epoch_config.workers = kEpochWorkers;
    epoch_config.max_batch = kEpochMaxBatch;
    epoch_config.seal_interval_us = 200;
    executor = std::make_unique<promises::EpochExecutor>(epoch_config, &pm);
    st = executor->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "epoch start: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    executor->AdoptTransportEndpoint(&transport);
  }

  std::vector<std::vector<int64_t>> latencies(clients);
  std::vector<uint64_t> completed(clients, 0);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      promises::PromiseClient client(
          path_mode + "-c" + std::to_string(c), &transport, "epoch-bench");
      latencies[c].reserve(kOrdersPerClient);
      for (int i = 0; i < kOrdersPerClient; ++i) {
        const std::string& item =
            items[static_cast<size_t>((c + i) % kNumItems)];
        auto op_start = std::chrono::steady_clock::now();
        auto grant = client.Request(
            std::vector<promises::Predicate>{promises::Predicate::Quantity(
                item, promises::CompareOp::kGe, kOrderQuantity)},
            3'600'000);
        if (!grant.ok()) continue;
        promises::ActionBody action;
        action.service = "inventory";
        action.operation = "purchase";
        action.params["item"] = promises::Value(item);
        action.params["quantity"] = promises::Value(kOrderQuantity);
        action.params["promise"] =
            promises::Value(static_cast<int64_t>(grant->id.value()));
        auto act = client.Act(action, {grant->id}, /*release_after=*/true);
        auto op_end = std::chrono::steady_clock::now();
        if (act.ok() && act->ok) {
          ++completed[c];
          latencies[c].push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  op_end - op_start)
                  .count());
        } else {
          (void)client.Release({grant->id});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto end = std::chrono::steady_clock::now();

  EpochPoint point;
  point.path = path_mode;
  point.clients = clients;
  point.workers = use_epoch ? kEpochWorkers : clients;
  if (executor != nullptr) {
    executor->Stop();
    promises::EpochExecutorStats es = executor->stats();
    point.epochs = es.epochs;
    point.avg_batch =
        es.epochs > 0 ? static_cast<double>(es.ops) / es.epochs : 0.0;
    point.serial_ops = es.serial_ops;
    point.partition_misses = es.partition_misses;
  }
  log.Close();
  std::remove(kLogPath);

  std::vector<int64_t> all;
  for (int c = 0; c < clients; ++c) {
    point.completed += completed[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  double secs = std::chrono::duration<double>(end - start).count();
  point.goodput_ops_s = secs > 0 ? point.completed / secs : 0.0;
  point.p50_us = Percentile(all, 0.5);
  point.p99_us = Percentile(all, 0.99);

  // ---- §4 invariant audit, in-binary -------------------------------
  // Conservation: stock consumed == completed orders * quantity.
  int64_t final_stock = 0;
  {
    auto txn = tm.Begin();
    for (const std::string& item : items) {
      final_stock += *rm.GetQuantity(txn.get(), item);
    }
  }
  const int64_t consumed =
      int64_t{kNumItems} * kStockPerItem - final_stock;
  promises::PromiseManagerStats stats = pm.stats();
  char detail[256];
  if (consumed !=
      static_cast<int64_t>(point.completed) * kOrderQuantity) {
    std::snprintf(detail, sizeof(detail),
                  "conservation: consumed %lld != completed %llu * %lld",
                  static_cast<long long>(consumed),
                  static_cast<unsigned long long>(point.completed),
                  static_cast<long long>(kOrderQuantity));
    point.audit_detail = detail;
  } else if (stats.granted != stats.released ||
             pm.active_promises() != 0) {
    // Exactly-once: every grant was released exactly once and the
    // table drained (release_after on success, explicit on failure).
    std::snprintf(detail, sizeof(detail),
                  "exactly-once: granted %llu released %llu active %zu",
                  static_cast<unsigned long long>(stats.granted),
                  static_cast<unsigned long long>(stats.released),
                  pm.active_promises());
    point.audit_detail = detail;
  } else if (stats.requests != stats.granted + stats.rejected ||
             stats.duplicates_replayed != 0) {
    // No faults were injected, so nothing may have been double-counted
    // or replayed: the books must balance without a dedup assist.
    std::snprintf(
        detail, sizeof(detail),
        "accounting: requests %llu != granted %llu + rejected %llu "
        "(dups %llu)",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.granted),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.duplicates_replayed));
    point.audit_detail = detail;
  } else {
    point.audit_ok = true;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_epoch.json";

  // Sample a slice of traffic: at full sampling every operation emits
  // half a dozen spans, which costs ~10us of hot-path CPU per op on
  // both paths and distorts what the bench measures. 5% keeps the
  // seal/partition/execute/durable phase table statistically real.
  promises::Tracer::Global().set_sampling(0.05);
  promises::SpanCollector::Global().Reset();

  // Interleaved trials, per-point median by goodput: a scheduler or
  // filesystem hiccup skews one trial, not one path. The gated pair is
  // the equal-population one (striped and epoch both at kEpochClients);
  // the small striped run rides along as the latency-bound reference.
  constexpr int kTrials = 3;
  struct Config {
    const char* path;
    int clients;
  };
  const std::vector<Config> configs = {
      {"striped", kStripedClients},
      {"striped", kEpochClients},
      {"epoch", kEpochClients},
  };
  std::vector<std::vector<EpochPoint>> trials(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    for (const Config& config : configs) {
      trials[t].push_back(RunOne(config.path, config.clients));
    }
  }
  std::vector<EpochPoint> points;
  for (size_t i = 0; i < trials[0].size(); ++i) {
    std::vector<EpochPoint> samples;
    for (int t = 0; t < kTrials; ++t) samples.push_back(trials[t][i]);
    std::sort(samples.begin(), samples.end(),
              [](const EpochPoint& a, const EpochPoint& b) {
                return a.goodput_ops_s < b.goodput_ops_s;
              });
    EpochPoint median = samples[kTrials / 2];
    // The audit must hold on every trial, not just the median one.
    for (const EpochPoint& s : samples) {
      if (!s.audit_ok) {
        median.audit_ok = false;
        median.audit_detail = s.audit_detail;
      }
    }
    points.push_back(median);
  }

  // Equal-population speedup: epoch vs striped at the same client
  // count. The 8-client striped row is informational only.
  double striped_tp = 0.0, epoch_tp = 0.0;
  std::string rows;
  for (const EpochPoint& p : points) {
    if (p.path == "striped" && p.clients == kEpochClients) {
      striped_tp = p.goodput_ops_s;
    }
    if (p.path == "epoch") epoch_tp = p.goodput_ops_s;
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"path\": \"%s\", \"clients\": %d, \"workers\": %d, "
        "\"goodput_ops_s\": %.1f, "
        "\"p50_us\": %lld, \"p99_us\": %lld, \"completed\": %llu, "
        "\"audit_ok\": %s, \"epochs\": %llu, \"avg_batch\": %.1f, "
        "\"serial_ops\": %llu, \"partition_misses\": %llu}",
        p.path.c_str(), p.clients, p.workers, p.goodput_ops_s,
        static_cast<long long>(p.p50_us), static_cast<long long>(p.p99_us),
        static_cast<unsigned long long>(p.completed),
        p.audit_ok ? "true" : "false",
        static_cast<unsigned long long>(p.epochs), p.avg_batch,
        static_cast<unsigned long long>(p.serial_ops),
        static_cast<unsigned long long>(p.partition_misses));
    if (!rows.empty()) rows += ",\n";
    rows += row;
  }
  double speedup = striped_tp > 0.0 ? epoch_tp / striped_tp : 0.0;

  promises::Tracer::Global().set_sampling(0);
  std::vector<promises::Span> spans =
      promises::SpanCollector::Global().Drain();
  std::vector<promises::PhaseStat> phases = promises::AggregatePhases(spans);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"epoch-batched vs striped execution\",\n"
      "  \"workload\": {\"num_items\": %d, \"orders_per_client\": %d, "
      "\"striped_clients\": %d, \"epoch_clients\": %d, "
      "\"epoch_workers\": %d, \"think_us\": 0, \"fdatasync\": true, "
      "\"lock_timeout_ms\": %lld, \"gate\": \"equal-population\"},\n"
      "  \"points\": [\n%s\n  ],\n"
      "  \"speedup_epoch_vs_striped\": %.2f,\n"
      "  \"spans_collected\": %llu,\n"
      "  \"phase_latency_us\": %s\n"
      "}\n",
      kNumItems, kOrdersPerClient, kStripedClients, kEpochClients,
      kEpochWorkers, static_cast<long long>(kLockTimeoutMs), rows.c_str(),
      speedup,
      static_cast<unsigned long long>(spans.size()),
      promises::PhaseLatencyJson(phases, "  ").c_str());
  std::fclose(f);

  std::printf("%-8s %-8s %12s %10s %10s %8s %8s\n", "path", "clients",
              "orders/s", "p50(us)", "p99(us)", "epochs", "batch");
  bool audits_ok = true;
  for (const EpochPoint& p : points) {
    std::printf("%-8s %-8d %12.1f %10lld %10lld %8llu %8.1f\n",
                p.path.c_str(), p.clients, p.goodput_ops_s,
                static_cast<long long>(p.p50_us),
                static_cast<long long>(p.p99_us),
                static_cast<unsigned long long>(p.epochs), p.avg_batch);
    if (!p.audit_ok) {
      audits_ok = false;
      std::printf("  AUDIT FAILED [%s]: %s\n", p.path.c_str(),
                  p.audit_detail.c_str());
    }
  }
  std::printf("%s", promises::FormatPhaseTable(phases).c_str());
  std::printf("epoch vs striped at %d clients: %.2fx -> %s\n",
              kEpochClients, speedup, out_path);
  // The audit is a correctness invariant: a run that breaks it must
  // fail loudly even before check_bench sees the JSON.
  return audits_ok ? 0 : 1;
}

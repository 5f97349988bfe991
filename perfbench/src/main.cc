// perfbench: drives one ServerLifecycle node over TCP loopback with a
// closed-loop workload, audits the node's state, and measures crash
// recovery. Run through perfbench/run.py, which builds this binary and
// prints the result line; see perfbench/README.md for the metrics.
//
//   perfbench --workload checkout|booking --seed N --seconds S
//             --trace 0|1 --out RESULT.json [--clients C] [--orders N]
//   perfbench --workload W --seed N --dump-stream N
//
// --trace 0 measures the end-to-end metrics with no span recording.
// --trace 1 is the separate traced run: it records the benchmark's own
// spans around every call into a layer and reports the per-layer
// metrics. --orders N replaces the timed loops by N orders per client,
// which makes every count repeat exactly (used by the self-test).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/oplog.h"
#include "core/promise_manager.h"
#include "obs/trace.h"
#include "orders.h"
#include "predicate/parser.h"
#include "protocol/tcp_transport.h"
#include "service/lifecycle.h"
#include "spans.h"

namespace perfbench {
namespace {

using promises::Envelope;
using promises::Result;
using promises::ServerLifecycle;
using promises::Status;

/// The untraced run measures this many rounds: a fresh node is set up,
/// serves one timed slice, is drained, audited and killed, and then the
/// recovery node restarts kRestartsPerRound times. Every end-to-end
/// figure is the median over the rounds (or over all the restarts).
constexpr int kRounds = 15;
/// A single-threaded replay varies by a third from one restart to the
/// next on a shared host, so recovery takes more samples than a slice.
constexpr int kRestartsPerRound = 3;
/// Order-stream namespaces: the rounds' clients draw streams from 0, the
/// recovery node's clients and the traced run's twin from these bases.
constexpr int kRecoveryStreams = 1000;
constexpr int kTwinStreams = 2000;
constexpr const char* kFlushPolicy =
    "group commit: fwrite+fflush to the OS before the reply, no fdatasync, "
    "max_delay_ms=0, group_window_us=0";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int clients = 2;
  int64_t orders = 0;
  int dump_stream = 0;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--clients") {
      args->clients = std::atoi(value.c_str());
    } else if (key == "--orders") {
      args->orders = std::atoll(value.c_str());
    } else if (key == "--dump-stream") {
      args->dump_stream = std::atoi(value.c_str());
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->clients >= 1 &&
         args->seconds > 0 && (args->dump_stream > 0 || !args->out.empty());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics_[name] = Metric{value, unit, samples};
  }
  void Config(const std::string& key, const std::string& json_value) {
    config_[key] = json_value;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
  }
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  std::string ToJson(bool correct, const std::string& audit,
                     uint64_t attempted, uint64_t failed,
                     const std::map<std::string, LayerTimes>& layers) const {
    std::string out = "{\n  \"correct\": ";
    out += correct ? "true" : "false";
    out += ",\n  \"audit\": " + Quote(audit);
    out += ",\n  \"attempted\": " + std::to_string(attempted);
    out += ",\n  \"failed\": " + std::to_string(failed);
    out += ",\n  \"failed_share\": " +
           Num(attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted));
    out += ",\n  \"config\": {";
    const char* sep = "";
    for (const auto& [key, value] : config_) {
      out += sep;
      out += "\n    " + Quote(key) + ": " + value;
      sep = ",";
    }
    out += "\n  },\n  \"metrics\": {";
    sep = "";
    if (correct) {
      for (const auto& [name, m] : metrics_) {
        out += sep;
        out += "\n    " + Quote(name) + ": {\"value\": " + Num(m.value) +
               ", \"unit\": " + Quote(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
        sep = ",";
      }
    }
    out += "\n  },\n  \"self_times_us\": {";
    sep = "";
    for (const auto& [name, times] : layers) {
      out += sep;
      out += "\n    " + Quote(name) + ": {\"count\": " +
             std::to_string(times.total_us.size()) +
             ", \"total_p50\": " + Num(Median(times.total_us)) +
             ", \"self_p50\": " + Num(Median(times.self_us)) +
             ", \"self_sum\": " +
             Num([&] {
               double sum = 0;
               for (double v : times.self_us) sum += v;
               return sum;
             }()) +
             "}";
      sep = ",";
    }
    out += "\n  }\n}\n";
    return out;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> config_;
};

// ---------------------------------------------------------------------------
// The node

/// One ServerLifecycle with the default settings, serving the
/// workload's catalog from its own data directory.
class Node {
 public:
  /// Each catalog definition's wall time is appended to `define_ms`.
  Node(const WorkloadSpec& spec, const std::string& dir,
       std::vector<double>* define_ms) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    promises::ServerLifecycleOptions options;
    options.data_dir = dir;
    options.name = "node";
    options.define_resources = [define_ms, &spec](
                                   promises::ResourceManager& rm) {
      const int64_t t0 = NowNs();
      DefineCatalog(spec, rm);
      define_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
    };
    options.configure_manager = [&spec](promises::PromiseManager& pm) {
      ConfigureServices(spec, pm);
    };
    dir_ = dir;
    oplog_path_ = dir + "/node.oplog";
    lifecycle_ = std::make_unique<ServerLifecycle>(std::move(options));
  }

  ServerLifecycle& lc() { return *lifecycle_; }
  const std::string& dir() const { return dir_; }
  const std::string& oplog_path() const { return oplog_path_; }

 private:
  std::string dir_;
  std::string oplog_path_;
  std::unique_ptr<ServerLifecycle> lifecycle_;
};

/// Pool stock, room statuses and active promises: what a recovered node
/// must reproduce exactly.
struct NodeState {
  std::map<std::string, int64_t> stock;
  std::map<std::string, int> rooms;
  size_t active = 0;

  bool operator==(const NodeState& other) const {
    return stock == other.stock && rooms == other.rooms &&
           active == other.active;
  }
};

NodeState Capture(const WorkloadSpec& spec, promises::ResourceManager& rm,
                  promises::PromiseManager& pm) {
  NodeState state;
  state.active = pm.active_promises();
  if (spec.kind == WorkloadKind::kCheckout) {
    for (int i = 0; i < spec.items; ++i) {
      Result<int64_t> q = rm.ExportPoolQuantity(ItemName(i));
      state.stock[ItemName(i)] = q.ok() ? *q : -1;
    }
  } else {
    Result<std::vector<promises::InstanceView>> rooms =
        rm.ExportInstances("room");
    if (rooms.ok()) {
      for (const promises::InstanceView& room : *rooms) {
        state.rooms[room.id] = static_cast<int>(room.status);
      }
    }
  }
  return state;
}

/// Checks a drained node: stock consumed equals what the clients bought
/// (checkout), every room is free (booking), the promise table is empty
/// and every grant was released. Returns "" when the audit passes.
std::string AuditDrained(const WorkloadSpec& spec,
                         promises::ResourceManager& rm,
                         promises::PromiseManager& pm,
                         const std::vector<const Client*>& clients,
                         uint64_t completed_orders) {
  NodeState state = Capture(spec, rm, pm);
  if (spec.kind == WorkloadKind::kCheckout) {
    std::map<int, int64_t> bought;
    for (const Client* c : clients) {
      for (const auto& [item, n] : c->purchased()) bought[item] += n;
    }
    int64_t consumed_total = 0;
    for (int i = 0; i < spec.items; ++i) {
      const int64_t consumed = spec.stock - state.stock[ItemName(i)];
      const int64_t expected = bought.count(i) ? bought[i] : 0;
      if (consumed != expected) {
        return ItemName(i) + ": consumed " + std::to_string(consumed) +
               ", bought " + std::to_string(expected);
      }
      consumed_total += consumed;
    }
    if (static_cast<uint64_t>(consumed_total) != completed_orders) {
      return "stock consumed " + std::to_string(consumed_total) +
             " != completed orders " + std::to_string(completed_orders);
    }
  } else {
    if (static_cast<int>(state.rooms.size()) != spec.rooms) {
      return "room count " + std::to_string(state.rooms.size());
    }
    for (const auto& [room, status] : state.rooms) {
      if (status != static_cast<int>(promises::InstanceStatus::kAvailable)) {
        return room + " not free after the windows drained";
      }
    }
  }
  promises::PromiseManagerStats stats = pm.stats();
  if (state.active != 0 || stats.granted != stats.released) {
    return "promise table not drained: active " +
           std::to_string(state.active) + ", granted " +
           std::to_string(stats.granted) + ", released " +
           std::to_string(stats.released);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Closed loops

struct LoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;
  double elapsed_s = 0;
  double cpu_s = 0;  ///< Process CPU (user + sys) while the loop ran.
  std::string error;

  uint64_t completed() const { return attempted - failed; }
  double rate() const {
    return elapsed_s > 0 ? static_cast<double>(completed()) / elapsed_s : 0;
  }
};

/// Runs `order(client, index)` on one thread per client, back to back,
/// until `seconds` pass (or `orders` per client when positive). Orders
/// started before the deadline finish and count.
LoopResult RunLoop(int clients, double seconds, int64_t orders,
                   const std::function<bool(int, int64_t)>& order,
                   const std::function<std::string(int)>& error_of) {
  std::vector<LoopResult> per(clients);
  std::vector<int64_t> end_ns(clients, 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      LoopResult& r = per[c];
      for (int64_t i = 0; orders > 0 ? i < orders : NowNs() < deadline_ns;
           ++i) {
        const int64_t t0 = NowNs();
        const bool ok = order(c, i);
        const int64_t t1 = NowNs();
        ++r.attempted;
        if (ok) {
          r.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        } else {
          ++r.failed;
          if (r.error.empty()) r.error = error_of(c);
        }
      }
      end_ns[c] = NowNs();
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  const double cpu0 = CpuSeconds();
  start_ns = NowNs();
  deadline_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  LoopResult total;
  total.cpu_s = CpuSeconds() - cpu0;
  for (int c = 0; c < clients; ++c) {
    total.attempted += per[c].attempted;
    total.failed += per[c].failed;
    total.latency_us.insert(total.latency_us.end(), per[c].latency_us.begin(),
                            per[c].latency_us.end());
    if (total.error.empty()) total.error = per[c].error;
    total.elapsed_s = std::max(
        total.elapsed_s, static_cast<double>(end_ns[c] - start_ns) / 1e9);
  }
  return total;
}

/// Throughput, latency and CPU of a timed phase run as several slices:
/// each figure is the median over the slices, so a slow stretch of the
/// host moves a few slices instead of the whole result.
struct LoopSummary {
  double rate = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_order = 0;
};

LoopSummary Summarize(const std::vector<LoopResult>& slices) {
  std::vector<double> rate, p50, p99, cpu;
  for (const LoopResult& s : slices) {
    const double done =
        static_cast<double>(std::max<uint64_t>(s.completed(), 1));
    rate.push_back(s.rate());
    p50.push_back(Percentile(s.latency_us, 0.50));
    p99.push_back(Percentile(s.latency_us, 0.99));
    cpu.push_back(s.cpu_s * 1e6 / done);
  }
  return LoopSummary{Median(rate), Median(p50), Median(p99), Median(cpu)};
}

// ---------------------------------------------------------------------------
// The run

/// A node with its connected clients.
struct Deployment {
  std::unique_ptr<Node> node;
  std::vector<std::unique_ptr<promises::TcpClientChannel>> channels;
  std::vector<std::unique_ptr<Client>> clients;

  Invoke TcpInvoke(int c) const {
    promises::TcpClientChannel* channel = channels[c].get();
    return [channel](const Envelope& request) {
      return channel->Call(request);
    };
  }
  std::vector<const Client*> client_views() const {
    std::vector<const Client*> out;
    for (const auto& c : clients) out.push_back(c.get());
    return out;
  }
  /// Simulated SIGKILL of the node; the clients' sockets close first.
  void Kill() {
    channels.clear();
    if (node) node->lc().KillHard();
  }
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), data_dir_(args.out + ".data") {
    for (int c = 0; c <= args.clients; ++c) sinks_.emplace_back(c + 1);
  }

  int Run();

 private:
  SpanSink* sink(int c) { return args_.trace ? &sinks_[c] : nullptr; }
  SpanSink* main_sink() { return sink(args_.clients); }

  bool Fail(const std::string& what) {
    if (audit_.empty()) audit_ = what;
    return false;
  }
  void AddLoop(const LoopResult& loop) {
    attempted_ += loop.attempted;
    failed_ += loop.failed;
    if (loop.failed > 0) Fail("order failed: " + loop.error);
  }

  /// Boots a fresh node in data directory `name`, connects one client
  /// per thread (order streams `stream_base` + c), fills the booking
  /// windows and runs `orders` orders per client. Set-up time is the
  /// wall time of the whole call.
  bool Deploy(const std::string& name, int stream_base, int orders,
              Deployment* out);
  /// Drains the clients' booking windows and audits the node, which has
  /// completed `orders` orders.
  bool DrainAndAudit(Deployment* d, uint64_t orders);
  /// Fills the recovery node's log with a fixed number of orders and
  /// remembers its state; the node is left killed.
  bool PrepareRecovery();
  /// One KillHard() -> Start() cycle of the recovery node: times the
  /// restart and checks the recovered state against the state before
  /// the first kill.
  bool RecoveryCycle();
  void TimedPhase();
  void TracedPhases();
  void RecoveryRungs();
  void FinishMain();

  const Args& args_;
  const WorkloadSpec& spec_;
  std::string data_dir_;
  Report report_;
  std::string audit_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t node_orders_ = 0;  ///< Completed orders on main_.
  std::vector<double> setup_s_;
  std::vector<double> define_ms_;  ///< Every catalog definition.
  std::vector<double> restart_ms_;

  std::vector<SpanSink> sinks_;
  Deployment main_;  ///< The traced run's node.
  Deployment recovery_;
  NodeState recovery_state_;
  size_t recovery_records_ = 0;
};

bool Bench::Deploy(const std::string& name, int stream_base, int orders,
                   Deployment* out) {
  Span setup(main_sink(), "setup");
  const int64_t t0 = NowNs();
  out->node =
      std::make_unique<Node>(spec_, data_dir_ + "/" + name, &define_ms_);
  {
    Span start(main_sink(), setup, "lifecycle.start");
    Status st = out->node->lc().Start();
    if (!st.ok()) return Fail(name + " start: " + st.ToString());
  }
  for (int c = 0; c < args_.clients; ++c) {
    Span connect(main_sink(), setup, "client.connect");
    auto channel = std::make_unique<promises::TcpClientChannel>();
    Status st = channel->Connect(out->node->lc().port());
    if (!st.ok()) return Fail(name + " connect: " + st.ToString());
    out->channels.push_back(std::move(channel));
    out->clients.push_back(std::make_unique<Client>(
        spec_, "client-" + std::to_string(c), args_.seed, stream_base + c));
  }
  Span warmup(main_sink(), setup, "warmup");
  LoopResult warm = RunLoop(
      args_.clients, 0, orders + 1,
      [out](int c, int64_t i) {
        Invoke invoke = out->TcpInvoke(c);
        return i == 0 ? out->clients[c]->FillWindow(invoke)
                      : out->clients[c]->RunOrder(invoke);
      },
      [out](int c) { return out->clients[c]->last_error(); });
  if (warm.failed > 0) return Fail(name + " orders: " + warm.error);
  setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return true;
}

bool Bench::DrainAndAudit(Deployment* d, uint64_t orders) {
  for (int c = 0; c < args_.clients; ++c) {
    if (!d->clients[c]->DrainWindow(d->TcpInvoke(c))) {
      return Fail("drain: " + d->clients[c]->last_error());
    }
  }
  ServerLifecycle& lc = d->node->lc();
  const std::string audit =
      AuditDrained(spec_, *lc.resources(), *lc.manager(), d->client_views(),
                   spec_.kind == WorkloadKind::kCheckout ? orders : 0);
  return audit.empty() || Fail(audit);
}

bool Bench::PrepareRecovery() {
  if (!Deploy("recovery", kRecoveryStreams, spec_.recovery_orders,
              &recovery_)) {
    return false;
  }
  setup_s_.pop_back();  // not a set-up of the served node
  ServerLifecycle& lc = recovery_.node->lc();
  recovery_state_ = Capture(spec_, *lc.resources(), *lc.manager());
  recovery_.Kill();
  return true;
}

bool Bench::RecoveryCycle() {
  ServerLifecycle& lc = recovery_.node->lc();
  Span cycle(main_sink(), "recovery.cycle");
  const int64_t t0 = NowNs();
  Status st;
  {
    Span start(main_sink(), cycle, "lifecycle.restart");
    st = lc.Start();
  }
  restart_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  if (!st.ok()) return Fail("restart: " + st.ToString());
  recovery_records_ = lc.last_recovery().manager.total_records;
  if (!(Capture(spec_, *lc.resources(), *lc.manager()) == recovery_state_)) {
    return Fail("recovered state differs from the state before the kill");
  }
  Span kill(main_sink(), cycle, "lifecycle.kill");
  lc.KillHard();
  return true;
}

void Bench::TimedPhase() {
  std::vector<LoopResult> slices;
  uint64_t completed = 0;
  uint64_t log_bytes = 0;
  const int64_t orders_per_round =
      args_.orders > 0 ? std::max<int64_t>(args_.orders / kRounds, 1) : 0;
  for (int k = 0; k < kRounds && audit_.empty(); ++k) {
    Deployment round;
    if (!Deploy("round-" + std::to_string(k), k * args_.clients,
                spec_.warmup_orders, &round)) {
      break;
    }
    std::vector<Invoke> invokes;
    for (int c = 0; c < args_.clients; ++c) {
      invokes.push_back(round.TcpInvoke(c));
    }
    const uint64_t log0 = FileSize(round.node->oplog_path());
    LoopResult loop = RunLoop(
        args_.clients, args_.seconds / kRounds, orders_per_round,
        [&](int c, int64_t) { return round.clients[c]->RunOrder(invokes[c]); },
        [&](int c) { return round.clients[c]->last_error(); });
    log_bytes += FileSize(round.node->oplog_path()) - log0;
    AddLoop(loop);
    completed += loop.completed();
    if (audit_.empty()) {
      DrainAndAudit(&round, static_cast<uint64_t>(args_.clients) *
                                    spec_.warmup_orders +
                                loop.completed());
    }
    round.Kill();
    std::filesystem::remove_all(round.node->dir());
    for (int r = 0; r < kRestartsPerRound && audit_.empty(); ++r) {
      RecoveryCycle();
    }
    std::fprintf(stderr,
                 "round %d: set-up %.4f s, %.0f orders/s, p50 %.1f us, "
                 "p99 %.1f us, %.1f cpu us/order, restart %.2f ms\n",
                 k, setup_s_.back(), loop.rate(),
                 Percentile(loop.latency_us, 0.50),
                 Percentile(loop.latency_us, 0.99),
                 loop.cpu_s * 1e6 /
                     static_cast<double>(std::max<uint64_t>(loop.completed(), 1)),
                 restart_ms_.empty() ? 0.0 : restart_ms_.back());
    slices.push_back(std::move(loop));
  }
  const LoopSummary sum = Summarize(slices);
  report_.Set("orders_per_s", sum.rate, "1/s", completed);
  report_.Set("order_p50_us", sum.p50_us, "us", completed);
  report_.Set("order_p99_us", sum.p99_us, "us", completed);
  report_.Set("cpu_us_per_order", sum.cpu_us_per_order, "us", completed);
  report_.Set("log_bytes_per_order",
              static_cast<double>(log_bytes) /
                  static_cast<double>(std::max<uint64_t>(completed, 1)),
              "bytes", completed);
}

void Bench::TracedPhases() {
  ServerLifecycle& lc = main_.node->lc();
  promises::PromiseManager* pm = lc.manager();
  auto errors = [this](int c) { return main_.clients[c]->last_error(); };
  const double tenth = args_.seconds / 10.0;

  // Untraced TCP orders: the reference for the tracing overhead, and
  // the window the lock counters are read over.
  std::vector<Invoke> plain;
  for (int c = 0; c < args_.clients; ++c) {
    plain.push_back(main_.TcpInvoke(c));
  }
  const promises::LockManagerStats locks0 =
      lc.transactions()->lock_manager().stats();
  LoopResult untraced = RunLoop(
      args_.clients, 3 * tenth, args_.orders,
      [&](int c, int64_t) { return main_.clients[c]->RunOrder(plain[c]); },
      errors);
  const promises::LockManagerStats locks1 =
      lc.transactions()->lock_manager().stats();
  AddLoop(untraced);
  node_orders_ += untraced.completed();

  // Traced TCP orders: codec, predicate parse and call spans per step.
  std::vector<uint64_t> request_bytes(args_.clients, 0);
  std::vector<uint64_t> requests(args_.clients, 0);
  LoopResult traced = RunLoop(
      args_.clients, 3 * tenth, args_.orders,
      [&](int c, int64_t) {
        SpanSink* s = sink(c);
        Span order(s, "order");
        promises::TcpClientChannel* channel = main_.channels[c].get();
        Invoke invoke = [&](const Envelope& request) -> Result<Envelope> {
          std::string xml;
          {
            Span encode(s, order, "protocol.encode");
            xml = request.ToXml();
          }
          request_bytes[c] += xml.size();
          ++requests[c];
          {
            Span decode(s, order, "protocol.decode");
            Result<Envelope> parsed = Envelope::FromXml(xml);
            if (!parsed.ok()) return parsed.status();
          }
          if (request.promise_request) {
            const std::string text =
                request.promise_request->predicates.front().ToString();
            Span parse(s, order, "predicate.parse");
            Result<promises::Predicate> p = promises::ParsePredicate(text);
            if (!p.ok()) return p.status();
          }
          Span call(s, order, "protocol.call");
          return channel->Call(request);
        };
        return main_.clients[c]->RunOrder(invoke);
      },
      errors);
  AddLoop(traced);
  node_orders_ += traced.completed();

  // The ladder: per client, orders rotate over the TCP node, the node's
  // manager by reference, and a log-less twin whose requests are then
  // appended to a benchmark-owned log with the node's group commit.
  promises::ResourceManager twin_rm;
  promises::TransactionManager twin_tm(250);
  promises::SimulatedClock twin_clock;
  promises::PromiseManager twin(promises::PromiseManagerConfig{}, &twin_clock,
                                &twin_rm, &twin_tm);
  DefineCatalog(spec_, twin_rm);
  ConfigureServices(spec_, twin);
  promises::OperationLog bench_log;
  const std::string bench_log_path = data_dir_ + "/ladder.oplog";
  std::filesystem::remove(bench_log_path);
  Status st = bench_log.Open(bench_log_path);
  if (st.ok()) {
    st = bench_log.StartGroupCommit(promises::GroupCommitConfig{},
                                    &twin_clock);
  }
  if (!st.ok()) {
    Fail("ladder log: " + st.ToString());
    return;
  }
  std::vector<std::unique_ptr<Client>> twins;
  for (int c = 0; c < args_.clients; ++c) {
    twins.push_back(std::make_unique<Client>(
        spec_, "twin-" + std::to_string(c), args_.seed, kTwinStreams + c));
  }
  auto twin_invoke = [&](int c, const Span* order) -> Invoke {
    SpanSink* s = sink(c);
    return [&, s, order](const Envelope& request) -> Result<Envelope> {
      Result<Envelope> reply = Status::Internal("unset");
      {
        Span handle(s, *order, "core.handle_nolog");
        reply = twin.Handle(request);
      }
      const std::string xml = request.ToXml();
      Result<uint64_t> seq = Status::Internal("unset");
      {
        Span append(s, *order, "oplog.append");
        seq = bench_log.AppendOperation(&twin_clock, xml, 0);
      }
      if (!seq.ok()) return seq.status();
      Span wait(s, *order, "oplog.durable_wait");
      Status durable = bench_log.WaitDurable(*seq);
      if (!durable.ok()) return durable;
      return reply;
    };
  };
  {
    Span fill(main_sink(), "twin.fill");
    for (int c = 0; c < args_.clients; ++c) {
      if (!twins[c]->FillWindow(twin_invoke(c, &fill))) {
        Fail("twin fill: " + twins[c]->last_error());
        return;
      }
    }
  }
  std::vector<uint64_t> ladder_node_orders(args_.clients, 0);
  LoopResult ladder = RunLoop(
      args_.clients, 4 * tenth, args_.orders > 0 ? 3 * args_.orders : 0,
      [&](int c, int64_t i) {
        SpanSink* s = sink(c);
        Span order(s, "order");
        switch (i % 3) {
          case 0: {
            promises::TcpClientChannel* channel = main_.channels[c].get();
            ++ladder_node_orders[c];
            return main_.clients[c]->RunOrder(
                [&](const Envelope& request) {
                  Span call(s, order, "protocol.call");
                  return channel->Call(request);
                });
          }
          case 1:
            ++ladder_node_orders[c];
            return main_.clients[c]->RunOrder(
                [&](const Envelope& request) {
                  {
                    Span plan(s, order, "core.plan");
                    (void)pm->PlanEnvelopeClasses(request);
                  }
                  Span handle(s, order, "core.handle");
                  return pm->Handle(request);
                });
          default:
            return twins[c]->RunOrder(twin_invoke(c, &order));
        }
      },
      [&](int c) {
        return main_.clients[c]->last_error() + twins[c]->last_error();
      });
  AddLoop(ladder);
  for (uint64_t n : ladder_node_orders) node_orders_ += n;
  {
    Span drain(main_sink(), "twin.drain");
    for (int c = 0; c < args_.clients; ++c) {
      if (!twins[c]->DrainWindow(twin_invoke(c, &drain))) {
        Fail("twin drain: " + twins[c]->last_error());
      }
    }
  }
  bench_log.Close();
  std::vector<const Client*> twin_clients;
  for (const auto& t : twins) twin_clients.push_back(t.get());
  uint64_t twin_orders = 0;
  for (const auto& t : twins) {
    for (const auto& [item, n] : t->purchased()) twin_orders += n;
  }
  const std::string twin_audit =
      AuditDrained(spec_, twin_rm, twin, twin_clients,
                   spec_.kind == WorkloadKind::kCheckout ? twin_orders : 0);
  if (!twin_audit.empty()) Fail("twin: " + twin_audit);

  const double untraced_rate = untraced.rate();
  const double traced_rate = traced.rate();
  report_.Set("trace.overhead_pct",
              untraced_rate > 0 ? 100.0 * (1.0 - traced_rate / untraced_rate)
                                : 0,
              "%", traced.completed());
  report_.Set("trace.orders_per_s_untraced", untraced_rate, "1/s",
              untraced.completed());
  report_.Set("trace.orders_per_s_traced", traced_rate, "1/s",
              traced.completed());
  uint64_t bytes = 0;
  uint64_t reqs = 0;
  for (int c = 0; c < args_.clients; ++c) {
    bytes += request_bytes[c];
    reqs += requests[c];
  }
  report_.Set("protocol.request_bytes",
              reqs ? static_cast<double>(bytes) / static_cast<double>(reqs)
                   : 0,
              "bytes", reqs);
  const double untraced_done =
      static_cast<double>(std::max<uint64_t>(untraced.completed(), 1));
  report_.Set("txn.lock_waits_per_order",
              static_cast<double>(locks1.waits - locks0.waits) / untraced_done,
              "count", untraced.completed());
  report_.Set("txn.lock_acquisitions_per_order",
              static_cast<double>(locks1.acquisitions - locks0.acquisitions) /
                  untraced_done,
              "count", untraced.completed());
}

void Bench::RecoveryRungs() {
  // Layer rungs of recovery: the scan of the recovery node's log, then
  // the replay of those records into a fresh world.
  Result<std::vector<promises::LogRecord>> read = Status::Internal("unset");
  {
    Span scan(main_sink(), "oplog.scan");
    const int64_t t0 = NowNs();
    read = promises::OperationLog::ReadAll(recovery_.node->oplog_path());
    report_.Set("oplog.scan_ms", static_cast<double>(NowNs() - t0) / 1e6,
                "ms", read.ok() ? read->size() : 0);
  }
  if (!read.ok()) {
    Fail("log scan: " + read.status().ToString());
    return;
  }
  // The log holds the window-filling grants, then whole orders.
  const uint64_t fill_grants =
      static_cast<uint64_t>(args_.clients) * spec_.window;
  const uint64_t orders = static_cast<uint64_t>(args_.clients) *
                          static_cast<uint64_t>(spec_.recovery_orders);
  report_.Set("oplog.records_per_order",
              static_cast<double>(read->size() - fill_grants) /
                  static_cast<double>(orders),
              "count", orders);
  promises::ResourceManager rm;
  promises::TransactionManager tm(250);
  promises::SimulatedClock clock;
  promises::PromiseManager pm(promises::PromiseManagerConfig{}, &clock, &rm,
                              &tm);
  DefineCatalog(spec_, rm);
  ConfigureServices(spec_, pm);
  Status st;
  {
    Span apply(main_sink(), "recovery.apply");
    const int64_t t0 = NowNs();
    st = pm.ReplayLog(*read, &clock);
    report_.Set("recovery.apply_ms", static_cast<double>(NowNs() - t0) / 1e6,
                "ms", read->size());
  }
  if (!st.ok()) {
    Fail("replay: " + st.ToString());
  } else if (!(Capture(spec_, rm, pm) == recovery_state_)) {
    Fail("replayed state differs from the state before the kill");
  }
}

void Bench::FinishMain() {
  ServerLifecycle& lc = main_.node->lc();
  DrainAndAudit(&main_, node_orders_);
  const promises::OverloadStats overload = lc.accumulated_overload();
  const uint64_t offered = overload.admitted + overload.total_shed();
  report_.Set("protocol.shed_ratio",
              offered > 0 ? static_cast<double>(overload.total_shed()) /
                                static_cast<double>(offered)
                          : 0,
              "ratio", offered);
  report_.Set("protocol.queue_peak", static_cast<double>(overload.queue_peak),
              "count");
  const promises::PromiseManagerStats stats = lc.manager()->stats();
  const uint64_t decided = stats.granted + stats.rejected;
  report_.Set("core.grant_ratio",
              decided > 0 ? static_cast<double>(stats.granted) /
                                static_cast<double>(decided)
                          : 0,
              "ratio", decided);
  report_.Set("core.grants", static_cast<double>(stats.granted), "count");
  report_.Set("core.dedup_replays",
              static_cast<double>(stats.duplicates_replayed), "count");
  main_.Kill();
}

int Bench::Run() {
  promises::Tracer::Global().set_sampling(0.0);
  std::filesystem::create_directories(data_dir_);

  if (!args_.trace) {
    if (PrepareRecovery()) TimedPhase();
  } else if (Deploy("main", 0, spec_.warmup_orders, &main_)) {
    node_orders_ = static_cast<uint64_t>(args_.clients) * spec_.warmup_orders;
    if (PrepareRecovery()) TracedPhases();
    if (audit_.empty()) FinishMain();
    for (int k = 0; k < kRounds && audit_.empty(); ++k) RecoveryCycle();
    if (audit_.empty()) RecoveryRungs();
  }
  const double recovery_ms = Median(restart_ms_);
  report_.Set("setup_s", Median(setup_s_), "s", setup_s_.size());
  report_.Set("resource.define_ms", Median(define_ms_), "ms",
              define_ms_.size());
  report_.Set("recovery_ms", recovery_ms, "ms", restart_ms_.size());
  report_.Set("recovery.replay_us_per_record",
              recovery_ms * 1e3 /
                  static_cast<double>(std::max<size_t>(recovery_records_, 1)),
              "us", recovery_records_);
  report_.Set("peak_rss_mb", PeakRssMb(), "MB");
  // Per-layer times from the spans, written out now that the run ends.
  std::vector<SpanRecord> spans;
  for (const SpanSink& s : sinks_) {
    spans.insert(spans.end(), s.spans().begin(), s.spans().end());
  }
  std::map<std::string, LayerTimes> layers = SelfTimes(spans);
  // Median duration of the spans named `span`, in microseconds.
  auto median_of = [&](const char* span, const char* metric) {
    auto it = layers.find(span);
    if (it == layers.end()) return 0.0;
    const double v = Median(it->second.total_us);
    report_.Set(metric, v, "us", it->second.total_us.size());
    return v;
  };
  if (args_.trace) {
    median_of("protocol.encode", "protocol.encode_us");
    median_of("protocol.decode", "protocol.decode_us");
    median_of("predicate.parse", "predicate.parse_us");
    median_of("core.plan", "core.plan_us");
    median_of("core.handle_nolog", "core.handle_nolog_us");
    median_of("oplog.append", "oplog.append_us");
    median_of("oplog.durable_wait", "oplog.durable_wait_us");
    const double call = median_of("protocol.call", "protocol.call_us");
    const double handle =
        median_of("core.handle", "core.handle_us");
    report_.Set("protocol.wire_us", call - handle, "us");
    if (!args_.out.empty() &&
        !WriteSpans(args_.out + ".spans.csv", spans)) {
      Fail("could not write spans");
    }
  }

  const bool correct = audit_.empty();
  report_.Config("workload", Report::Quote(spec_.name));
  report_.Config("seed", std::to_string(args_.seed));
  report_.Config("trace", args_.trace ? "1" : "0");
  report_.Config("seconds", Report::Num(args_.seconds));
  report_.Config("fixed_orders_per_client", std::to_string(args_.orders));
  report_.Config("client_threads", std::to_string(args_.clients));
  report_.Config("connections", std::to_string(args_.clients));
  report_.Config("catalog_items", std::to_string(spec_.items));
  report_.Config("catalog_stock", std::to_string(spec_.stock));
  report_.Config("hotel_rooms", std::to_string(spec_.rooms));
  report_.Config("window_per_client", std::to_string(spec_.window));
  report_.Config("warmup_orders_per_client",
                 std::to_string(spec_.warmup_orders));
  report_.Config("recovery_orders_per_client",
                 std::to_string(spec_.recovery_orders));
  report_.Config("rounds", std::to_string(kRounds));
  report_.Config("setup_samples", std::to_string(setup_s_.size()));
  report_.Config("recovery_cycles", std::to_string(restart_ms_.size()));
  report_.Config("flush_policy", Report::Quote(kFlushPolicy));
  report_.Config("server_workers",
                 std::to_string(promises::TcpServerOptions{}.workers));
  report_.Config("tracer_sampling", "0");
  report_.Config("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report_.Config("compiler", Report::Quote(PERFBENCH_COMPILER));
  report_.Config("build_type", Report::Quote(PERFBENCH_BUILD_TYPE));

  std::FILE* f = std::fopen(args_.out.c_str(), "w");
  if (f == nullptr) return 2;
  const std::string json =
      report_.ToJson(correct, audit_, attempted_, failed_, layers);
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return correct ? 0 : 1;
}

int DumpStream(const Args& args, const WorkloadSpec& spec) {
  for (int c = 0; c < args.clients; ++c) {
    OrderStream stream(spec, args.seed, c);
    std::printf("client-%d:", c);
    for (int i = 0; i < args.dump_stream; ++i) {
      std::printf(" %d", stream.Next());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload checkout|booking --seed N "
                 "--seconds S --trace 0|1 --out FILE [--clients C] "
                 "[--orders N] | --dump-stream N\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.dump_stream > 0) return perfbench::DumpStream(args, *spec);
  perfbench::Bench bench(args, *spec);
  return bench.Run();
}

#include "sim/chaos.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/clock.h"
#include "common/rng.h"
#include "core/oplog.h"
#include "predicate/ast.h"
#include "resource/resource_manager.h"
#include "service/client.h"
#include "service/lifecycle.h"
#include "service/services.h"
#include "txn/transaction.h"
#include "wsba/business_activity.h"

namespace promises {

namespace {

struct WorkerTally {
  uint64_t attempts = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t failed_actions = 0;
  uint64_t grant_unknown = 0;   // request retries exhausted
  uint64_t act_unknown = 0;     // granted, then act/release exhausted
  uint64_t envelopes_sent = 0;
};

}  // namespace

ChaosReport RunChaosWorkload(const ChaosConfig& config) {
  // Scoped tracing: sample this run's calls and hand the phase
  // breakdown back in the report, leaving the global tracer the way we
  // found it for whoever runs next in this process.
  const double prior_sampling = Tracer::Global().sampling();
  if (config.trace_sampling > 0) {
    SpanCollector::Global().Reset();
    Tracer::Global().set_sampling(config.trace_sampling);
  }

  SystemClock clock;
  ResourceManager rm;
  TransactionManager tm(250);
  std::vector<std::string> items;
  for (int i = 0; i < config.num_items; ++i) {
    items.push_back("widget-" + std::to_string(i));
    Status st = rm.CreatePool(items.back(), config.initial_stock);
    (void)st;
  }

  Transport transport;
  FaultInjector injector(config.seed);
  FaultConfig faults = config.faults;
  faults.crash = 0;  // see ChaosConfig: crash/recovery is tested separately
  injector.Configure(faults);
  transport.set_hop_latency_us(config.hop_latency_us);

  std::unique_ptr<AdmissionController> admission;
  if (config.admission_enabled) {
    admission =
        std::make_unique<AdmissionController>(config.admission, &clock);
    transport.set_admission(admission.get());
  }

  PromiseManagerConfig pm_config;
  pm_config.name = "chaos-pm";
  pm_config.default_duration_ms = config.promise_duration_ms;
  PromiseManager pm(pm_config, &clock, &rm, &tm, &transport);
  pm.RegisterService("inventory", MakeInventoryService());
  transport.set_fault_injector(&injector);

  std::unique_ptr<EpochExecutor> epoch;
  if (config.use_epoch) {
    epoch = std::make_unique<EpochExecutor>(config.epoch, &pm);
    Status epoch_start = epoch->Start();
    if (!epoch_start.ok()) {
      ChaosReport failed;
      failed.violations.push_back("epoch executor failed to start: " +
                                  epoch_start.ToString());
      if (config.trace_sampling > 0) {
        Tracer::Global().set_sampling(prior_sampling);
      }
      return failed;
    }
    epoch->AdoptTransportEndpoint(&transport);
  }

  std::vector<WorkerTally> tallies(config.workers);
  std::vector<uint64_t> retries(config.workers, 0);
  std::vector<CircuitBreakerStats> breaker_stats(config.workers);
  auto started = std::chrono::steady_clock::now();

  auto worker_fn = [&](int w) {
    WorkerTally& tally = tallies[w];
    PromiseClient client("chaos-w" + std::to_string(w), &transport,
                         "chaos-pm");
    client.set_retry_policy(config.retry,
                            config.seed * 31 + static_cast<uint64_t>(w) + 1);
    if (config.request_deadline_ms > 0) {
      client.set_deadline_policy(&clock, config.request_deadline_ms);
    }
    if (config.breaker) {
      client.set_circuit_breaker(
          *config.breaker, &clock,
          config.seed * 131 + static_cast<uint64_t>(w) + 1);
    }
    Rng rng(config.seed * 7919 + static_cast<uint64_t>(w) + 1);

    for (int i = 0; i < config.orders_per_worker; ++i) {
      ++tally.attempts;
      const std::string& item = items[static_cast<size_t>(
          rng.UniformInt(0, config.num_items - 1))];

      // Check: one promise covering the purchase (Figure 1).
      ++tally.envelopes_sent;
      Result<ClientPromise> grant = client.Request(
          std::vector<Predicate>{Predicate::Quantity(
              item, CompareOp::kGe, config.order_quantity)},
          config.promise_duration_ms);
      if (!grant.ok()) {
        if (grant.status().code() == StatusCode::kFailedPrecondition) {
          ++tally.rejected;  // definite: the maker said no
        } else {
          ++tally.grant_unknown;  // retries exhausted mid-request
        }
        continue;
      }

      // Think: the long-running business step, no locks held.
      if (config.think_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config.think_us));
      }

      // Act: purchase under the promise, released on success.
      ActionBody action;
      action.service = "inventory";
      action.operation = "purchase";
      action.params["item"] = Value(item);
      action.params["quantity"] = Value(config.order_quantity);
      action.params["promise"] =
          Value(static_cast<int64_t>(grant->id.value()));
      ++tally.envelopes_sent;
      Result<ActionResultBody> act =
          client.Act(action, {grant->id}, /*release_after=*/true);
      if (!act.ok()) {
        // Exhausted retries: the purchase (and its release-after) may
        // or may not have happened. Best-effort release so an
        // unpurchased grant does not sit in the table forever; the
        // audit accounts for this order via act_unknown either way.
        ++tally.act_unknown;
        ++tally.envelopes_sent;
        (void)client.Release({grant->id});
        continue;
      }
      if (!act->ok) {
        // §7: the promise should preclude this; still release cleanly.
        ++tally.failed_actions;
        ++tally.envelopes_sent;
        (void)client.Release({grant->id});
        continue;
      }
      ++tally.completed;
    }
    retries[w] = client.retries();
    if (CircuitBreaker* b = client.circuit_breaker()) {
      breaker_stats[w] = b->stats();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(config.workers);
  for (int w = 0; w < config.workers; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();
  auto finished = std::chrono::steady_clock::now();

  ChaosReport report;
  if (epoch != nullptr) {
    epoch->Stop();  // restores the direct transport handler
    report.epoch = epoch->stats();
  }
  uint64_t grant_unknown = 0;
  uint64_t act_unknown = 0;
  for (int w = 0; w < config.workers; ++w) {
    const WorkerTally& t = tallies[w];
    report.attempts += t.attempts;
    report.completed += t.completed;
    report.rejected += t.rejected;
    report.failed_actions += t.failed_actions;
    report.envelopes_sent += t.envelopes_sent;
    report.client_retries += retries[w];
    grant_unknown += t.grant_unknown;
    act_unknown += t.act_unknown;
  }
  report.unknown = grant_unknown + act_unknown;
  report.wall_time_us =
      std::chrono::duration_cast<std::chrono::microseconds>(finished -
                                                            started)
          .count();
  report.manager = pm.stats();
  report.transport = transport.stats();
  report.faults = injector.counters();
  if (config.trace_sampling > 0) {
    Tracer::Global().set_sampling(prior_sampling);
    std::vector<Span> spans = SpanCollector::Global().Drain();
    report.spans_collected = spans.size();
    report.spans_dropped = SpanCollector::Global().dropped();
    report.phases = AggregatePhases(spans);
  }
  if (admission != nullptr) report.overload = admission->stats();
  for (const CircuitBreakerStats& b : breaker_stats) {
    report.breaker.admitted += b.admitted;
    report.breaker.fast_failures += b.fast_failures;
    report.breaker.opens += b.opens;
    report.breaker.half_opens += b.half_opens;
    report.breaker.closes += b.closes;
  }
  report.initial_stock_total =
      config.initial_stock * static_cast<int64_t>(config.num_items);
  {
    std::unique_ptr<Transaction> txn = tm.Begin();
    for (const std::string& item : items) {
      Result<int64_t> q = rm.GetQuantity(txn.get(), item);
      if (q.ok()) report.final_stock_total += *q;
    }
    (void)txn->Commit();
  }

  // ---- §4 invariant audit (manager books are authoritative) ----
  auto violation = [&](const std::string& text) {
    report.violations.push_back(text);
  };

  // Resource conservation: stock moved only by successful purchases.
  int64_t successful_purchases = static_cast<int64_t>(
      report.manager.actions - report.manager.action_failures);
  int64_t expected_final = report.initial_stock_total -
                           successful_purchases * config.order_quantity;
  if (report.final_stock_total != expected_final) {
    violation("conservation: final stock " +
              std::to_string(report.final_stock_total) + " != expected " +
              std::to_string(expected_final) + " (" +
              std::to_string(successful_purchases) + " purchases of " +
              std::to_string(config.order_quantity) + " from " +
              std::to_string(report.initial_stock_total) + ")");
  }
  if (report.final_stock_total < 0) {
    violation("conservation: negative final stock " +
              std::to_string(report.final_stock_total));
  }

  // Exactly-once grants: the manager granted one promise per accepted
  // client request. Every order with an unknown outcome widens the
  // bracket by at most one grant.
  uint64_t accepted_known = report.completed + report.failed_actions +
                            act_unknown;
  if (report.manager.granted < accepted_known ||
      report.manager.granted > accepted_known + grant_unknown) {
    violation("exactly-once: manager granted " +
              std::to_string(report.manager.granted) +
              " promises but clients observed " +
              std::to_string(accepted_known) + " acceptances (+" +
              std::to_string(grant_unknown) + " unknown)");
  }
  if (report.manager.requests !=
      report.manager.granted + report.manager.rejected) {
    violation("exactly-once: requests processed (" +
              std::to_string(report.manager.requests) +
              ") != granted + rejected (" +
              std::to_string(report.manager.granted) + " + " +
              std::to_string(report.manager.rejected) + ")");
  }

  // No orphan grants: everything granted was released (atomic
  // release-on-grant via release-after, or the explicit cleanup), so
  // the table drains. Unknown outcomes may legitimately leave at most
  // one promise each.
  size_t active = pm.active_promises();
  if (active > report.unknown) {
    violation("orphans: " + std::to_string(active) +
              " promises still active after the run (tolerance " +
              std::to_string(report.unknown) + " for unknown outcomes)");
  }
  if (report.unknown == 0 &&
      report.manager.released != report.manager.granted) {
    violation("orphans: granted " + std::to_string(report.manager.granted) +
              " != released " + std::to_string(report.manager.released) +
              " in a fully converged run");
  }
  if (report.manager.expired != 0) {
    violation("audit precondition: " +
              std::to_string(report.manager.expired) +
              " promises expired mid-run (durations too short)");
  }
  return report;
}

std::string ChaosReport::Summary() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "orders: %llu attempts, %llu completed, %llu rejected, "
                "%llu failed, %llu unknown\n",
                static_cast<unsigned long long>(attempts),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(failed_actions),
                static_cast<unsigned long long>(unknown));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "wire: %llu envelopes + %llu retries (amplification %.3f), "
      "faults: %llu dropped-req, %llu dropped-reply, %llu duplicated, "
      "%llu delayed\n",
      static_cast<unsigned long long>(envelopes_sent),
      static_cast<unsigned long long>(client_retries), RetryAmplification(),
      static_cast<unsigned long long>(faults.requests_dropped),
      static_cast<unsigned long long>(faults.replies_dropped),
      static_cast<unsigned long long>(faults.duplicates),
      static_cast<unsigned long long>(faults.delay_spikes));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "manager: %llu granted, %llu rejected, %llu released, "
      "%llu duplicate replies replayed; stock %lld -> %lld; "
      "goodput %.1f orders/s\n",
      static_cast<unsigned long long>(manager.granted),
      static_cast<unsigned long long>(manager.rejected),
      static_cast<unsigned long long>(manager.released),
      static_cast<unsigned long long>(manager.duplicates_replayed),
      static_cast<long long>(initial_stock_total),
      static_cast<long long>(final_stock_total), GoodputPerSec());
  out += buf;
  if (overload.admitted + overload.total_shed() > 0) {
    out += FormatOverloadStats(overload) + "\n";
  }
  if (breaker.admitted + breaker.fast_failures > 0) {
    out += FormatBreakerStats(breaker) + "\n";
  }
  if (epoch.epochs > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "epoch: %llu epochs, %llu ops (%llu serial, %llu misses), "
        "largest batch %llu\n",
        static_cast<unsigned long long>(epoch.epochs),
        static_cast<unsigned long long>(epoch.ops),
        static_cast<unsigned long long>(epoch.serial_ops),
        static_cast<unsigned long long>(epoch.partition_misses),
        static_cast<unsigned long long>(epoch.largest_batch));
    out += buf;
  }
  if (!phases.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "spans: %llu collected, %llu dropped\n",
                  static_cast<unsigned long long>(spans_collected),
                  static_cast<unsigned long long>(spans_dropped));
    out += buf;
    out += FormatPhaseTable(phases);
  }
  if (violations.empty()) {
    out += "audit: all invariants hold\n";
  } else {
    for (const std::string& v : violations) {
      out += "VIOLATION: " + v + "\n";
    }
  }
  return out;
}

// ---- WS-BusinessActivity chaos ---------------------------------------

namespace {

// Per-participant callback tallies for the exactly-once audit.
struct WsbaWork {
  int closed = 0;
  int compensated = 0;
  int cancelled = 0;
  BusinessActivityParticipant::Callbacks Callbacks() {
    return {
        [this] { ++closed; return Status::OK(); },
        [this] { ++compensated; return Status::OK(); },
        [this] { ++cancelled; },
    };
  }
  int undone() const { return compensated + cancelled; }
};

// One activity's world: participants plus their tallies, destroyed
// together after that activity's audit.
struct WsbaActivityWorld {
  std::vector<std::unique_ptr<WsbaWork>> works;
  std::vector<std::unique_ptr<BusinessActivityParticipant>> parts;
};

WsbaActivityWorld MakeActivityWorld(Transport* transport,
                                    const std::string& prefix, int count,
                                    const ParticipantOptions& opts) {
  WsbaActivityWorld world;
  for (int k = 0; k < count; ++k) {
    world.works.push_back(std::make_unique<WsbaWork>());
    world.parts.push_back(std::make_unique<BusinessActivityParticipant>(
        prefix + "-p" + std::to_string(k), transport,
        world.works.back()->Callbacks(), opts));
  }
  return world;
}

// Drives a decided activity until it resolves, re-driving through
// transient unreachability. Returns the final outcome, or kOpen when
// the re-drive budget ran out.
ActivityOutcome DriveToResolution(BusinessActivityCoordinator* coordinator,
                                  ActivityId activity, bool close,
                                  int max_redrives, uint64_t* redrives) {
  Result<ActivityOutcome> outcome = close
                                        ? coordinator->CloseActivity(activity)
                                        : coordinator->CancelActivity(activity);
  for (int i = 0; i < max_redrives; ++i) {
    if (outcome.ok() && *outcome != ActivityOutcome::kOpen) return *outcome;
    if (!outcome.ok() && outcome.status().code() != StatusCode::kUnavailable) {
      return ActivityOutcome::kOpen;  // terminal refusal; caller audits
    }
    if (redrives != nullptr) ++*redrives;
    outcome = coordinator->ReDrive(activity);
  }
  return outcome.ok() ? *outcome : ActivityOutcome::kOpen;
}

// The atomic-outcome audit for one finished activity. The durable
// executed-outcome per participant is authoritative (it survives a
// participant restart, unlike the in-memory callback tallies, which
// only bound each participant *life* to at most one callback run).
void AuditActivity(const WsbaActivityWorld& world, ActivityId activity,
                   ActivityOutcome outcome, const std::string& label,
                   std::vector<std::string>* violations) {
  int exec_close = 0;
  int exec_undo = 0;
  for (size_t k = 0; k < world.parts.size(); ++k) {
    const WsbaWork& w = *world.works[k];
    if (w.closed + w.undone() > 1) {
      violations->push_back(label + " participant " + std::to_string(k) +
                            " ran callbacks " +
                            std::to_string(w.closed + w.undone()) +
                            " times (exactly-once broken)");
    }
    const std::string executed =
        world.parts[k]->ExecutedOutcome(activity);
    if (executed == "close") {
      ++exec_close;
    } else if (executed == "compensate" || executed == "cancel") {
      ++exec_undo;
    } else if (outcome != ActivityOutcome::kOpen) {
      violations->push_back(label + " participant " + std::to_string(k) +
                            " stranded with no executed outcome");
    }
  }
  if (exec_close > 0 && exec_undo > 0) {
    violations->push_back(label + " mixed outcomes: " +
                          std::to_string(exec_close) + " closed AND " +
                          std::to_string(exec_undo) + " undone");
  }
  if (outcome == ActivityOutcome::kClosed &&
      exec_close != static_cast<int>(world.parts.size())) {
    violations->push_back(label + " closed but only " +
                          std::to_string(exec_close) + "/" +
                          std::to_string(world.parts.size()) +
                          " participants confirmed");
  }
  if (outcome == ActivityOutcome::kCompensated &&
      exec_undo != static_cast<int>(world.parts.size())) {
    violations->push_back(label + " compensated but only " +
                          std::to_string(exec_undo) + "/" +
                          std::to_string(world.parts.size()) +
                          " participants undone");
  }
  if (outcome == ActivityOutcome::kMixed) {
    violations->push_back(label + " coordinator reported mixed outcome");
  }
  if (outcome == ActivityOutcome::kOpen) {
    violations->push_back(label + " unresolved after all re-drives");
  }
}

}  // namespace

WsbaChaosReport RunWsbaChaosWorkload(const WsbaChaosConfig& config) {
  const double prior_sampling = Tracer::Global().sampling();
  if (config.trace_sampling > 0) {
    SpanCollector::Global().Reset();
    Tracer::Global().set_sampling(config.trace_sampling);
  }

  WsbaChaosReport report;
  Transport transport;
  FaultInjector injector(config.seed);
  FaultConfig faults = config.faults;
  faults.crash = 0;  // coordinator crashes are the deterministic rounds
  injector.Configure(faults);
  transport.set_fault_injector(&injector);

  const std::string tag =
      std::to_string(config.seed) + "_" +
      std::to_string(reinterpret_cast<uintptr_t>(&report));
  const std::string coord_log_path =
      "/tmp/promises_wsba_chaos_coord_" + tag + ".log";
  const std::string part_log_path =
      "/tmp/promises_wsba_chaos_part_" + tag + ".log";
  std::remove(coord_log_path.c_str());
  std::remove(part_log_path.c_str());

  OperationLog coord_log;
  (void)coord_log.Open(coord_log_path);
  OperationLog part_log;
  (void)part_log.Open(part_log_path);

  CoordinatorOptions copts;
  copts.log = &coord_log;
  copts.retry = config.retry;
  copts.retry_seed = config.seed * 17 + 1;
  copts.crash_points = &injector;
  auto coordinator = std::make_unique<BusinessActivityCoordinator>(
      "coordinator", &transport, copts);

  std::mutex report_mu;
  auto started = std::chrono::steady_clock::now();

  // ---- Phase A: concurrent activities under message chaos ----
  auto worker_fn = [&](int w) {
    Rng rng(config.seed * 7919 + static_cast<uint64_t>(w) + 1);
    ParticipantOptions popts;
    popts.retry = config.retry;
    for (int i = 0; i < config.activities_per_worker; ++i) {
      popts.retry_seed =
          config.seed * 101 + static_cast<uint64_t>(w) * 1000 +
          static_cast<uint64_t>(i);
      const std::string prefix =
          "w" + std::to_string(w) + "-a" + std::to_string(i);
      WsbaActivityWorld world = MakeActivityWorld(
          &transport, prefix, config.participants_per_activity, popts);
      auto activity_started = std::chrono::steady_clock::now();
      ActivityId activity = coordinator->CreateActivity();
      bool all_signalled = true;
      for (auto& part : world.parts) {
        auto id = coordinator->Register(activity, part->endpoint());
        if (!id.ok()) {
          all_signalled = false;
          continue;
        }
        part->Enlist("coordinator", activity, *id);
        // Signals retransmit internally; an exhausted budget leaves
        // the participant active, forcing the cancel path below.
        if (!part->SignalCompleted(activity).ok()) all_signalled = false;
      }
      const bool want_close =
          all_signalled && rng.Chance(config.close_fraction);
      uint64_t redrives = 0;
      ActivityOutcome outcome =
          DriveToResolution(coordinator.get(), activity, want_close,
                            config.max_redrives, &redrives);
      // Participants that missed their order (or whose ack was lost
      // beyond the budget) reconcile via the timeout path.
      for (auto& part : world.parts) {
        if (part->ExecutedOutcome(activity).empty()) {
          (void)part->QueryOutcome(activity);
        }
      }
      auto activity_finished = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lk(report_mu);
      report.redrives += redrives;
      ++report.activities;
      switch (outcome) {
        case ActivityOutcome::kClosed: ++report.closed; break;
        case ActivityOutcome::kCompensated: ++report.compensated; break;
        case ActivityOutcome::kMixed: ++report.mixed; break;
        case ActivityOutcome::kOpen: ++report.unresolved; break;
      }
      if (outcome != ActivityOutcome::kOpen) {
        report.completion_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(
                activity_finished - activity_started)
                .count());
      }
      AuditActivity(world, activity, outcome, prefix, &report.violations);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(config.workers);
  for (int w = 0; w < config.workers; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();

  // ---- Phase B: sequential coordinator crash/recovery rounds ----
  static constexpr const char* kCrashPoints[] = {
      "wsba-pre-decision", "wsba-post-decision", "wsba-pre-notify",
      "wsba-post-notify", "wsba-pre-ended"};
  Rng crash_rng(config.seed * 31337 + 7);
  for (int round = 0; round < config.crash_rounds; ++round) {
    ++report.crash_rounds_run;
    const std::string prefix = "crash-r" + std::to_string(round);
    ParticipantOptions popts;
    popts.log = &part_log;
    popts.retry = config.retry;
    popts.retry_seed = config.seed * 211 + static_cast<uint64_t>(round);
    WsbaActivityWorld world = MakeActivityWorld(
        &transport, prefix, config.participants_per_activity, popts);
    ActivityId activity = coordinator->CreateActivity();
    bool all_signalled = true;
    for (auto& part : world.parts) {
      auto id = coordinator->Register(activity, part->endpoint());
      if (!id.ok()) { all_signalled = false; continue; }
      part->Enlist("coordinator", activity, *id);
      if (!part->SignalCompleted(activity).ok()) all_signalled = false;
    }
    const size_t point_index = static_cast<size_t>(crash_rng.UniformInt(
        0, static_cast<int>(std::size(kCrashPoints)) - 1));
    const uint64_t passage = static_cast<uint64_t>(
        crash_rng.UniformInt(1, config.participants_per_activity));
    injector.InjectCrashAt(kCrashPoints[point_index], passage);
    const bool want_close =
        all_signalled && crash_rng.Chance(config.close_fraction);

    // The round loop survives the crash firing at any moment — during
    // the first drive, during recovery's re-drive, or (for an armed
    // passage beyond this round's fan-out) not at all.
    ActivityOutcome outcome = ActivityOutcome::kOpen;
    for (int guard = 0; guard < 4 && outcome == ActivityOutcome::kOpen;
         ++guard) {
      if (coordinator->crashed()) {
        ++report.crashes_fired;
        // The "crash": coordinator object destroyed, log closed with
        // whatever the group-commit queue accepted, then the twin
        // world reopens the log (torn-tail scan) and recovers.
        report.order_retransmissions += coordinator->retransmissions();
        coordinator.reset();
        coord_log.Close();
        (void)coord_log.Open(coord_log_path);
        if (config.participant_restart && !world.parts.empty()) {
          // One participant dies with the coordinator and is rebuilt
          // from its own log before recovery reaches it.
          size_t victim = static_cast<size_t>(crash_rng.UniformInt(
              0, static_cast<int>(world.parts.size()) - 1));
          std::string endpoint = world.parts[victim]->endpoint();
          world.parts[victim].reset();
          world.works[victim] = std::make_unique<WsbaWork>();
          world.parts[victim] =
              std::make_unique<BusinessActivityParticipant>(
                  endpoint, &transport, world.works[victim]->Callbacks(),
                  popts);
          (void)RecoverParticipant(world.parts[victim].get(), part_log_path);
        }
        coordinator = std::make_unique<BusinessActivityCoordinator>(
            "coordinator", &transport, copts);
        auto recovery = RecoverCoordinator(coordinator.get(), coord_log_path);
        if (recovery.ok()) {
          report.presumed_aborts += recovery->presumed_abort;
        } else {
          report.violations.push_back(prefix + " recovery failed: " +
                                      recovery.status().ToString());
        }
        continue;
      }
      auto resolved = coordinator->OutcomeOf(activity);
      if (resolved.ok() && *resolved != ActivityOutcome::kOpen) {
        outcome = *resolved;
        break;
      }
      auto decision = coordinator->DecisionOf(activity);
      const bool drive_close =
          decision.ok() && *decision != ActivityDecision::kNone
              ? *decision == ActivityDecision::kClose
              : want_close;
      outcome = DriveToResolution(coordinator.get(), activity, drive_close,
                                  config.max_redrives, &report.redrives);
    }
    for (auto& part : world.parts) {
      if (part->ExecutedOutcome(activity).empty()) {
        (void)part->QueryOutcome(activity);
      }
    }
    ++report.activities;
    switch (outcome) {
      case ActivityOutcome::kClosed: ++report.closed; break;
      case ActivityOutcome::kCompensated: ++report.compensated; break;
      case ActivityOutcome::kMixed: ++report.mixed; break;
      case ActivityOutcome::kOpen: ++report.unresolved; break;
    }
    AuditActivity(world, activity, outcome, prefix, &report.violations);
  }
  auto finished = std::chrono::steady_clock::now();

  if (coordinator != nullptr) {
    report.order_retransmissions += coordinator->retransmissions();
    coordinator.reset();
  }
  report.wall_time_us =
      std::chrono::duration_cast<std::chrono::microseconds>(finished -
                                                            started)
          .count();
  report.transport = transport.stats();
  report.faults = injector.counters();
  if (config.trace_sampling > 0) {
    Tracer::Global().set_sampling(prior_sampling);
    std::vector<Span> spans = SpanCollector::Global().Drain();
    report.spans_collected = spans.size();
    report.spans_dropped = SpanCollector::Global().dropped();
    report.phases = AggregatePhases(spans);
  }
  coord_log.Close();
  part_log.Close();
  std::remove(coord_log_path.c_str());
  std::remove(part_log_path.c_str());
  return report;
}

int64_t WsbaChaosReport::CompletionPercentileUs(double p) const {
  if (completion_us.empty()) return 0;
  std::vector<int64_t> sorted = completion_us;
  std::sort(sorted.begin(), sorted.end());
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

std::string WsbaChaosReport::Summary() const {
  char buf[512];
  std::string out;
  std::snprintf(
      buf, sizeof(buf),
      "activities: %llu total, %llu closed, %llu compensated, %llu mixed, "
      "%llu unresolved (consistency %.4f)\n",
      static_cast<unsigned long long>(activities),
      static_cast<unsigned long long>(closed),
      static_cast<unsigned long long>(compensated),
      static_cast<unsigned long long>(mixed),
      static_cast<unsigned long long>(unresolved), OutcomeConsistency());
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "wire: %llu messages, %llu retries (amplification %.3f), "
      "%llu order retransmissions; faults: %llu dropped-req, "
      "%llu dropped-reply, %llu duplicated\n",
      static_cast<unsigned long long>(transport.messages),
      static_cast<unsigned long long>(transport.retries),
      RetryAmplification(),
      static_cast<unsigned long long>(order_retransmissions),
      static_cast<unsigned long long>(faults.requests_dropped),
      static_cast<unsigned long long>(faults.replies_dropped),
      static_cast<unsigned long long>(faults.duplicates));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "crash matrix: %llu rounds, %llu crashes fired, %llu presumed "
      "aborts, %llu re-drives; completion p50 %lld us, p99 %lld us\n",
      static_cast<unsigned long long>(crash_rounds_run),
      static_cast<unsigned long long>(crashes_fired),
      static_cast<unsigned long long>(presumed_aborts),
      static_cast<unsigned long long>(redrives),
      static_cast<long long>(CompletionPercentileUs(0.5)),
      static_cast<long long>(CompletionPercentileUs(0.99)));
  out += buf;
  if (!phases.empty()) {
    std::snprintf(buf, sizeof(buf), "spans: %llu collected, %llu dropped\n",
                  static_cast<unsigned long long>(spans_collected),
                  static_cast<unsigned long long>(spans_dropped));
    out += buf;
    out += FormatPhaseTable(phases);
  }
  if (violations.empty()) {
    out += "audit: atomic outcomes hold\n";
  } else {
    for (const std::string& v : violations) {
      out += "VIOLATION: " + v + "\n";
    }
  }
  return out;
}

// ---- Restart chaos ---------------------------------------------------

namespace {

// Client-side tallies for the restart workload. The restart workers
// speak raw envelopes over TCP (PromiseClient runs on the in-process
// Transport), so the order flow is built by hand with stable message
// ids — a retry after a kill resends the identical envelope and the
// recovered dedup table replays the original reply.
struct RestartWorkerTally {
  uint64_t attempts = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t failed_actions = 0;
  std::vector<std::string> failed_errors;
  uint64_t grant_unknown = 0;
  uint64_t act_unknown = 0;
  uint64_t envelopes_sent = 0;
  uint64_t client_retries = 0;
  uint64_t dial_attempts = 0;
};

}  // namespace

RestartChaosReport RunRestartChaosWorkload(const RestartChaosConfig& config) {
  const double prior_sampling = Tracer::Global().sampling();
  if (config.trace_sampling > 0) {
    SpanCollector::Global().Reset();
    Tracer::Global().set_sampling(config.trace_sampling);
  }

  RestartChaosReport report;
  std::mutex report_mu;

  const std::string tag =
      std::to_string(config.seed) + "_" +
      std::to_string(reinterpret_cast<uintptr_t>(&report));
  const std::string node_name = "promises_restart_chaos_" + tag;
  for (const char* suffix : {".oplog", ".ckpt", ".balog"}) {
    std::remove(("/tmp/" + node_name + suffix).c_str());
  }

  std::vector<std::string> items;
  for (int i = 0; i < config.num_items; ++i) {
    items.push_back("widget-" + std::to_string(i));
  }

  // Participants live on this in-process transport across every server
  // generation — they are "other nodes" and do not die with the
  // coordinator.
  Transport wsba_transport;
  const std::string wsba_endpoint = "ba-coordinator";

  ServerLifecycleOptions lopts;
  lopts.data_dir = "/tmp";
  lopts.name = node_name;
  lopts.manager.name = "restart-pm";
  lopts.manager.default_duration_ms = config.promise_duration_ms;
  lopts.group_commit = config.group_commit;
  lopts.checkpoint_interval_ms = config.checkpoint_interval_ms;
  lopts.drain_deadline_ms = config.drain_deadline_ms;
  lopts.server.admission.warmup_target_rps = config.warmup_target_rps;
  lopts.server.admission.warmup_window_ms = config.warmup_window_ms;
  if (config.wsba_activities > 0) {
    lopts.wsba_transport = &wsba_transport;
    lopts.wsba_endpoint = wsba_endpoint;
  }
  lopts.define_resources = [&items, &config](ResourceManager& rm) {
    for (const std::string& item : items) {
      (void)rm.CreatePool(item, config.initial_stock);
    }
  };
  lopts.configure_manager = [](PromiseManager& pm) {
    pm.RegisterService("inventory", MakeInventoryService());
  };
  ServerLifecycle lifecycle(std::move(lopts));

  Status boot = lifecycle.Start();
  if (!boot.ok()) {
    report.violations.push_back("boot failed: " + boot.ToString());
    if (config.trace_sampling > 0) {
      Tracer::Global().set_sampling(prior_sampling);
    }
    return report;
  }
  ++report.generations;
  const uint16_t port = lifecycle.port();

  std::vector<RestartWorkerTally> tallies(
      static_cast<size_t>(config.workers));
  // Orders begun by all workers; the kill schedule reads it.
  std::atomic<uint64_t> orders_started{0};
  auto started = std::chrono::steady_clock::now();

  // ---- Order workers: raw envelopes over TCP, retrying through
  // blackouts with reconnect backoff armed ----
  auto worker_fn = [&](int w) {
    RestartWorkerTally& tally = tallies[static_cast<size_t>(w)];
    TcpClientChannel channel;
    channel.set_call_timeout_ms(config.call_timeout_ms);
    channel.set_reconnect_backoff(
        config.reconnect, config.seed * 97 + static_cast<uint64_t>(w) + 1);
    (void)channel.Connect(port);
    Rng rng(config.seed * 7919 + static_cast<uint64_t>(w) + 1);
    Rng retry_rng(config.seed * 31 + static_cast<uint64_t>(w) + 1);
    const std::string self = "restart-w" + std::to_string(w);
    uint64_t seq = 0;
    auto next_id = [&] {
      return MessageId((static_cast<uint64_t>(w) + 1) * 1'000'000'000ull +
                       ++seq);
    };

    for (int i = 0; i < config.orders_per_worker; ++i) {
      ++tally.attempts;
      orders_started.fetch_add(1, std::memory_order_relaxed);
      const std::string& item = items[static_cast<size_t>(
          rng.UniformInt(0, config.num_items - 1))];

      // Check: one promise covering the purchase.
      Envelope req;
      req.message_id = next_id();
      req.from = self;
      req.to = "restart-pm";
      PromiseRequestHeader header;
      header.request_id = RequestId(req.message_id.value());
      header.duration_ms = config.promise_duration_ms;
      header.predicates.push_back(Predicate::Quantity(
          item, CompareOp::kGe, config.order_quantity));
      req.promise_request = std::move(header);
      ++tally.envelopes_sent;
      Result<Envelope> grant = CallWithRetry(
          config.retry, &retry_rng, [&] { return channel.Call(req); },
          &tally.client_retries);
      if (!grant.ok() || !grant->promise_response.has_value()) {
        ++tally.grant_unknown;
        continue;
      }
      if (grant->promise_response->result != PromiseResultCode::kAccepted) {
        ++tally.rejected;
        continue;
      }
      PromiseId promise = grant->promise_response->promise_id;

      if (config.think_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config.think_us));
      }

      // Act: purchase under the promise, released on success.
      Envelope act;
      act.message_id = next_id();
      act.from = self;
      act.to = "restart-pm";
      act.environment = EnvironmentHeader{{{promise, true}}};
      ActionBody buy;
      buy.service = "inventory";
      buy.operation = "purchase";
      buy.params["item"] = Value(item);
      buy.params["quantity"] = Value(config.order_quantity);
      buy.params["promise"] =
          Value(static_cast<int64_t>(promise.value()));
      act.action = std::move(buy);
      ++tally.envelopes_sent;
      Result<Envelope> acted = CallWithRetry(
          config.retry, &retry_rng, [&] { return channel.Call(act); },
          &tally.client_retries);
      if (!acted.ok() || !acted->action_result.has_value()) {
        // Unknown outcome: the purchase (and its release-after) may or
        // may not have landed before a kill. Best-effort release so
        // the grant doesn't sit in the table; the audit brackets this
        // order by act_unknown either way.
        ++tally.act_unknown;
        Envelope rel;
        rel.message_id = next_id();
        rel.from = self;
        rel.to = "restart-pm";
        rel.release = ReleaseHeader{{promise}};
        ++tally.envelopes_sent;
        (void)channel.Call(rel);
        continue;
      }
      if (!acted->action_result->ok) {
        ++tally.failed_actions;
        if (tally.failed_errors.size() < 8) {
          tally.failed_errors.push_back(acted->action_result->error);
        }
        Envelope rel;
        rel.message_id = next_id();
        rel.from = self;
        rel.to = "restart-pm";
        rel.release = ReleaseHeader{{promise}};
        ++tally.envelopes_sent;
        (void)channel.Call(rel);
        continue;
      }
      ++tally.completed;
    }
    tally.dial_attempts = channel.dial_attempts();
  };

  // ---- WS-BA driver: activities across coordinator generations ----
  auto wsba_fn = [&] {
    Rng rng(config.seed * 4243 + 17);
    ParticipantOptions popts;
    popts.retry = config.retry;
    auto live_coordinator = [&] {
      std::shared_ptr<BusinessActivityCoordinator> c =
          lifecycle.coordinator();
      if (c == nullptr || c->crashed()) return decltype(c)(nullptr);
      return c;
    };
    for (int i = 0; i < config.wsba_activities; ++i) {
      popts.retry_seed = config.seed * 211 + static_cast<uint64_t>(i);
      const std::string prefix = "restart-a" + std::to_string(i);
      WsbaActivityWorld world = MakeActivityWorld(
          &wsba_transport, prefix, config.wsba_participants, popts);

      // Create on a live coordinator generation.
      std::shared_ptr<BusinessActivityCoordinator> coord;
      ActivityId activity;
      for (int attempt = 0; attempt < 2'000 && !activity.valid();
           ++attempt) {
        coord = live_coordinator();
        if (coord == nullptr) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        activity = coord->CreateActivity();
      }
      if (!activity.valid()) {
        std::lock_guard<std::mutex> lk(report_mu);
        report.violations.push_back(prefix +
                                    ": no live coordinator to create on");
        break;
      }

      // Enlist + signal, riding kills: kUnavailable = wait for the
      // next generation, kNotFound = the kill erased the activity
      // before it reached the durable log (presumed abort).
      size_t enlisted = 0;
      bool activity_erased = false;
      bool all_signalled = true;
      for (auto& part : world.parts) {
        bool done = false;
        for (int attempt = 0; attempt < 2'000 && !done && !activity_erased;
             ++attempt) {
          coord = live_coordinator();
          if (coord == nullptr) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          auto id = coord->Register(activity, part->endpoint());
          if (id.ok()) {
            part->Enlist(wsba_endpoint, activity, *id);
            if (!part->SignalCompleted(activity).ok()) {
              all_signalled = false;
            }
            ++enlisted;
            done = true;
          } else if (id.status().code() == StatusCode::kUnavailable) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          } else {
            activity_erased = true;
          }
        }
        if (!done) break;
      }
      if (enlisted == 0) {
        // Nothing durable anywhere; the recovered coordinator (if it
        // ever saw the creation) presumed-aborts it on its own.
        std::lock_guard<std::mutex> lk(report_mu);
        ++report.erased;
        continue;
      }
      // Audit only what actually joined the activity.
      world.parts.resize(enlisted);
      world.works.resize(enlisted);
      if (enlisted < static_cast<size_t>(config.wsba_participants)) {
        all_signalled = false;
      }

      const bool want_close =
          all_signalled && rng.Chance(config.wsba_close_fraction);
      uint64_t redrives = 0;
      ActivityOutcome outcome = ActivityOutcome::kOpen;
      for (int guard = 0; guard < 2'000 && outcome == ActivityOutcome::kOpen;
           ++guard) {
        coord = live_coordinator();
        if (coord == nullptr) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        auto resolved = coord->OutcomeOf(activity);
        if (resolved.ok() && *resolved != ActivityOutcome::kOpen) {
          outcome = *resolved;
          break;
        }
        if (!resolved.ok() &&
            resolved.status().code() == StatusCode::kNotFound) {
          break;  // erased by the kill; participants reconcile below
        }
        // A recovered generation's durable decision overrides ours.
        auto decision = coord->DecisionOf(activity);
        const bool drive_close =
            decision.ok() && *decision != ActivityDecision::kNone
                ? *decision == ActivityDecision::kClose
                : want_close;
        outcome = DriveToResolution(coord.get(), activity, drive_close,
                                    config.wsba_max_redrives, &redrives);
      }
      // Reconcile: participants without an executed outcome query the
      // live coordinator; "unknown activity" means presumed abort.
      for (auto& part : world.parts) {
        if (!part->ExecutedOutcome(activity).empty()) continue;
        for (int attempt = 0; attempt < 2'000; ++attempt) {
          if (live_coordinator() == nullptr) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          auto q = part->QueryOutcome(activity);
          if (q.ok() && *q != ActivityOutcome::kOpen) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      if (outcome == ActivityOutcome::kOpen) {
        // The coordinator's memory of the activity died undecided; the
        // participants' durable executed outcomes are the ground truth.
        size_t exec_close = 0;
        size_t exec_undo = 0;
        for (auto& part : world.parts) {
          const std::string ex = part->ExecutedOutcome(activity);
          if (ex == "close") {
            ++exec_close;
          } else if (ex == "compensate" || ex == "cancel") {
            ++exec_undo;
          }
        }
        if (exec_close == world.parts.size()) {
          outcome = ActivityOutcome::kClosed;
        } else if (exec_undo == world.parts.size()) {
          outcome = ActivityOutcome::kCompensated;
        }
      }
      std::lock_guard<std::mutex> lk(report_mu);
      report.redrives += redrives;
      ++report.activities;
      switch (outcome) {
        case ActivityOutcome::kClosed: ++report.closed; break;
        case ActivityOutcome::kCompensated: ++report.compensated; break;
        case ActivityOutcome::kMixed: ++report.mixed; break;
        case ActivityOutcome::kOpen: ++report.unresolved; break;
      }
      AuditActivity(world, activity, outcome, prefix, &report.violations);
    }
  };

  // ---- Orchestrator: kill, restart, measure the blackout ----
  auto orchestrator_fn = [&] {
    Rng orng(config.seed * 31337 + 13);
    uint64_t probe_seq = 0;
    const uint64_t total_orders =
        static_cast<uint64_t>(config.workers) *
        static_cast<uint64_t>(config.orders_per_worker);
    for (int round = 0; round < config.kill_rounds; ++round) {
      // Uptime: the random draw, cut short once the workers have begun
      // this round's even share of the orders. A node fast enough to
      // outrun the schedule is then still killed under load in every
      // round, with the last share left for the final generation.
      const auto uptime = std::chrono::milliseconds(orng.UniformInt(
          static_cast<int>(config.min_uptime_ms),
          static_cast<int>(config.max_uptime_ms)));
      const uint64_t share = total_orders *
                             static_cast<uint64_t>(round + 1) /
                             static_cast<uint64_t>(config.kill_rounds + 1);
      const auto up_since = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - up_since < uptime &&
             orders_started.load(std::memory_order_relaxed) < share) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const bool hard = orng.Chance(config.hard_kill_fraction);
      auto kill_started = std::chrono::steady_clock::now();
      if (hard) {
        lifecycle.KillHard();
      } else {
        const bool drained = lifecycle.StopGraceful();
        if (!drained) {
          std::lock_guard<std::mutex> lk(report_mu);
          ++report.drains_timed_out;
        }
      }
      {
        std::lock_guard<std::mutex> lk(report_mu);
        if (hard) {
          ++report.kills_hard;
        } else {
          ++report.stops_graceful;
        }
      }
      Status st = lifecycle.Start();
      if (!st.ok()) {
        std::lock_guard<std::mutex> lk(report_mu);
        report.violations.push_back("restart " + std::to_string(round) +
                                    " failed: " + st.ToString());
        return;
      }
      {
        std::lock_guard<std::mutex> lk(report_mu);
        ++report.generations;
        report.recovery_ms.push_back(lifecycle.last_recovery_ms());
      }

      // Probe until the node answers again — a warm-up shed counts as
      // contact (the node is up and saying "not yet"), a connection
      // error does not. Every attempt resends the same message id, and
      // so does every release attempt: a grant that committed after its
      // reply timed out comes back from the node's exactly-once dedup on
      // a later attempt, so the probe learns of every grant it got and
      // hands it back. A shed after such a timeout is not contact yet,
      // for the timed-out attempt may have been granted.
      TcpClientChannel probe;
      probe.set_call_timeout_ms(50);
      Envelope ping;
      ping.message_id = MessageId(900'000'000'000ull + ++probe_seq);
      ping.from = "restart-probe";
      ping.to = "restart-pm";
      PromiseRequestHeader header;
      header.request_id = RequestId(ping.message_id.value());
      header.duration_ms = config.promise_duration_ms;
      header.predicates.push_back(
          Predicate::Quantity(items[0], CompareOp::kGe, 0));
      ping.promise_request = std::move(header);
      bool contact = false;
      bool maybe_granted = false;  // a sent ping went unanswered
      for (int t = 0; t < 4'000 && !contact; ++t) {
        if (!probe.connected() && !probe.Connect(port).ok()) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          continue;
        }
        Result<Envelope> reply = probe.Call(ping);
        if (reply.ok()) {
          contact = true;
          if (reply->promise_response.has_value() &&
              reply->promise_response->result ==
                  PromiseResultCode::kAccepted) {
            Envelope rel;
            rel.message_id = MessageId(900'000'000'000ull + ++probe_seq);
            rel.from = "restart-probe";
            rel.to = "restart-pm";
            rel.release =
                ReleaseHeader{{reply->promise_response->promise_id}};
            bool released = false;
            for (int r = 0; r < 4'000 && !released; ++r) {
              released = (probe.connected() || probe.Connect(port).ok()) &&
                         probe.Call(rel).ok();
              if (!released) {
                std::this_thread::sleep_for(std::chrono::microseconds(500));
              }
            }
            std::lock_guard<std::mutex> lk(report_mu);
            ++report.probe_grants;
            if (released) ++report.probe_releases;
          }
          continue;
        }
        if (reply.status().code() == StatusCode::kResourceExhausted) {
          // Refused at admission: contact, unless an earlier attempt
          // went unanswered and may yet be granted.
          contact = !maybe_granted;
        } else {
          maybe_granted = true;
        }
        if (!contact) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
      auto probed = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lk(report_mu);
      if (!contact) {
        report.violations.push_back(
            "restart " + std::to_string(round) +
            ": node never answered after coming back");
      } else {
        report.blackout_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(
                probed - kill_started)
                .count());
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.workers) + 2);
  for (int w = 0; w < config.workers; ++w) {
    threads.emplace_back(worker_fn, w);
  }
  if (config.wsba_activities > 0) threads.emplace_back(wsba_fn);
  threads.emplace_back(orchestrator_fn);
  for (std::thread& t : threads) t.join();
  auto finished = std::chrono::steady_clock::now();

  report.wall_time_us =
      std::chrono::duration_cast<std::chrono::microseconds>(finished -
                                                            started)
          .count();
  uint64_t grant_unknown = 0;
  uint64_t act_unknown = 0;
  for (const RestartWorkerTally& t : tallies) {
    report.attempts += t.attempts;
    report.completed += t.completed;
    report.rejected += t.rejected;
    report.failed_actions += t.failed_actions;
    for (const std::string& e : t.failed_errors) {
      if (report.failed_action_errors.size() < 8) {
        report.failed_action_errors.push_back(e);
      }
    }
    report.envelopes_sent += t.envelopes_sent;
    report.client_retries += t.client_retries;
    report.dial_attempts += t.dial_attempts;
    grant_unknown += t.grant_unknown;
    act_unknown += t.act_unknown;
  }
  report.unknown = grant_unknown + act_unknown;
  report.overload = lifecycle.accumulated_overload();
  report.warmup_sheds = report.overload.shed_warmup;
  report.initial_stock_total =
      config.initial_stock * static_cast<int64_t>(config.num_items);

  // ---- Cross-generation audit ----
  //
  // Per-generation manager books die with their generation (checkpoints
  // capture promises, not counters), so the whole-run exactly-once
  // proof rests on the recovered *resource* state: stock only moves by
  // successful purchases, so duplicates across any kill/replay/retry
  // sequence would drain more stock than the clients' completed count.
  auto violation = [&report](const std::string& text) {
    report.violations.push_back(text);
  };
  if (lifecycle.state() != ServerLifecycle::State::kServing ||
      lifecycle.manager() == nullptr) {
    violation("final generation not serving; audit impossible");
  } else {
    report.final_manager = lifecycle.manager()->stats();
    {
      std::unique_ptr<Transaction> txn = lifecycle.transactions()->Begin();
      for (const std::string& item : items) {
        Result<int64_t> q =
            lifecycle.resources()->GetQuantity(txn.get(), item);
        if (q.ok()) report.final_stock_total += *q;
      }
      (void)txn->Commit();
    }

    const int64_t consumed =
        report.initial_stock_total - report.final_stock_total;
    const int64_t low =
        static_cast<int64_t>(report.completed) * config.order_quantity;
    const int64_t high =
        static_cast<int64_t>(report.completed + act_unknown) *
        config.order_quantity;
    if (consumed < low || consumed > high) {
      violation("exactly-once: stock consumed " + std::to_string(consumed) +
                " outside [" + std::to_string(low) + ", " +
                std::to_string(high) + "] — " +
                std::to_string(report.completed) + " completed orders, " +
                std::to_string(act_unknown) + " unknown acts");
    }
    if (report.final_stock_total < 0) {
      violation("conservation: negative final stock " +
                std::to_string(report.final_stock_total));
    }

    // The final generation's books must balance internally.
    if (report.final_manager.requests !=
        report.final_manager.granted + report.final_manager.rejected) {
      violation("final generation books: requests (" +
                std::to_string(report.final_manager.requests) +
                ") != granted + rejected (" +
                std::to_string(report.final_manager.granted) + " + " +
                std::to_string(report.final_manager.rejected) + ")");
    }

    // No orphan grants beyond what unknown outcomes and unreleased
    // probes legitimately leave behind.
    const uint64_t tolerance =
        report.unknown + (report.probe_grants - report.probe_releases);
    const size_t active = lifecycle.manager()->active_promises();
    if (active > tolerance) {
      violation("orphans: " + std::to_string(active) +
                " promises active after the run (tolerance " +
                std::to_string(tolerance) + ")");
    }
  }
  if (report.mixed > 0) {
    violation("wsba: " + std::to_string(report.mixed) +
              " activities ended with mixed outcomes");
  }

  if (config.trace_sampling > 0) {
    Tracer::Global().set_sampling(prior_sampling);
    std::vector<Span> spans = SpanCollector::Global().Drain();
    report.spans_collected = spans.size();
    report.spans_dropped = SpanCollector::Global().dropped();
    report.phases = AggregatePhases(spans);
  }

  (void)lifecycle.StopGraceful();
  for (const char* suffix : {".oplog", ".ckpt", ".balog"}) {
    std::remove(("/tmp/" + node_name + suffix).c_str());
  }
  return report;
}

int64_t RestartChaosReport::BlackoutPercentileUs(double p) const {
  if (blackout_us.empty()) return 0;
  std::vector<int64_t> sorted = blackout_us;
  std::sort(sorted.begin(), sorted.end());
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

std::string RestartChaosReport::Summary() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "orders: %llu attempts, %llu completed, %llu rejected, "
                "%llu failed, %llu unknown; goodput %.1f orders/s\n",
                static_cast<unsigned long long>(attempts),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(failed_actions),
                static_cast<unsigned long long>(unknown), GoodputPerSec());
  out += buf;
  for (const std::string& e : failed_action_errors) {
    out += "  failed action: " + e + "\n";
  }
  std::snprintf(
      buf, sizeof(buf),
      "restarts: %d generations (%d hard kills, %d graceful, %d drain "
      "timeouts); blackout p50 %lld us, p99 %lld us\n",
      generations, kills_hard, stops_graceful, drains_timed_out,
      static_cast<long long>(BlackoutPercentileUs(0.5)),
      static_cast<long long>(BlackoutPercentileUs(0.99)));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "wire: %llu envelopes + %llu retries (amplification %.3f), "
      "%llu dials; warm-up sheds %llu\n",
      static_cast<unsigned long long>(envelopes_sent),
      static_cast<unsigned long long>(client_retries), RetryAmplification(),
      static_cast<unsigned long long>(dial_attempts),
      static_cast<unsigned long long>(warmup_sheds));
  out += buf;
  if (activities > 0 || erased > 0) {
    std::snprintf(buf, sizeof(buf),
                  "wsba: %llu activities (%llu closed, %llu compensated, "
                  "%llu mixed, %llu unresolved, %llu erased), %llu "
                  "redrives\n",
                  static_cast<unsigned long long>(activities),
                  static_cast<unsigned long long>(closed),
                  static_cast<unsigned long long>(compensated),
                  static_cast<unsigned long long>(mixed),
                  static_cast<unsigned long long>(unresolved),
                  static_cast<unsigned long long>(erased),
                  static_cast<unsigned long long>(redrives));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "stock: %lld -> %lld; final books: %llu requests, %llu "
                "granted, %llu rejected\n",
                static_cast<long long>(initial_stock_total),
                static_cast<long long>(final_stock_total),
                static_cast<unsigned long long>(final_manager.requests),
                static_cast<unsigned long long>(final_manager.granted),
                static_cast<unsigned long long>(final_manager.rejected));
  out += buf;
  if (violations.empty()) {
    out += "audit: all invariants hold across restarts\n";
  } else {
    for (const std::string& v : violations) {
      out += "VIOLATION: " + v + "\n";
    }
  }
  return out;
}

}  // namespace promises

#include "service/lifecycle.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace promises {

namespace {

struct LifecycleMetrics {
  Counter* restarts;
  Counter* kills_hard;
  Counter* stops_graceful;
  Counter* ramp_sheds;
  Histogram* recovery_ms;

  static const LifecycleMetrics& Get() {
    static LifecycleMetrics metrics = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return LifecycleMetrics{
          reg.GetCounter("promises_lifecycle_restarts_total"),
          reg.GetCounter("promises_lifecycle_kills_hard_total"),
          reg.GetCounter("promises_lifecycle_stops_graceful_total"),
          reg.GetCounter("promises_lifecycle_ramp_sheds_total"),
          reg.GetHistogram("promises_lifecycle_recovery_ms")};
    }();
    return metrics;
  }
};

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// WarmStartClock

int64_t WarmStartClock::SteadyUs() { return SteadyNowUs(); }

void WarmStartClock::Run() {
  if (running_.load(std::memory_order_acquire)) return;
  base_sim_.store(SimulatedClock::NowImpl(), std::memory_order_relaxed);
  base_wall_us_.store(SteadyUs(), std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
}

void WarmStartClock::Pin() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Fold the elapsed wall time into the simulated base (forward-only
  // CAS), so readers racing the flag flip compute the same instant
  // either way and time stays monotone across generations.
  Timestamp now =
      base_sim_.load(std::memory_order_relaxed) +
      (SteadyUs() - base_wall_us_.load(std::memory_order_relaxed)) / 1000;
  AdvanceTo(now);
  running_.store(false, std::memory_order_release);
}

Timestamp WarmStartClock::NowImpl() const {
  Timestamp sim = SimulatedClock::NowImpl();
  if (!running_.load(std::memory_order_acquire)) return sim;
  Timestamp wall =
      base_sim_.load(std::memory_order_relaxed) +
      (SteadyUs() - base_wall_us_.load(std::memory_order_relaxed)) / 1000;
  return std::max(sim, wall);
}

void WarmStartClock::SleepFor(DurationMs duration) {
  // Never Advance: backoff waits issued by concurrent client threads
  // during a pinned blackout must cost wall time, not teleport the
  // shared clock (and with it every deadline and expiry) forward.
  if (duration > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(duration));
  }
}

// ---------------------------------------------------------------------------
// RecoverAll

Status RecoverAll(PromiseManager* pm, SimulatedClock* clock,
                  const std::string& checkpoint_path,
                  const std::string& log_path,
                  BusinessActivityCoordinator* coordinator,
                  const std::string& wsba_log_path,
                  const RecoveryOptions& options, RecoverAllReport* report) {
  RecoverAllReport local;
  RecoverAllReport* out = report != nullptr ? report : &local;
  *out = RecoverAllReport{};
  // Manager state first (checkpoint + oplog tail): the coordinator
  // re-drive below may compensate activities whose work touched
  // promise-managed resources, so the world must be rebuilt before
  // any outcome order fires.
  Status manager_st = RecoverWithCheckpoint(pm, clock, checkpoint_path,
                                            log_path, options, &out->manager);
  // kNotFound means a cold boot (no checkpoint, no log yet) — an empty
  // world is the correct recovery of nothing.
  if (!manager_st.ok() && manager_st.code() != StatusCode::kNotFound) {
    return manager_st;
  }
  if (coordinator != nullptr) {
    Result<CoordinatorRecovery> wsba =
        RecoverCoordinator(coordinator, wsba_log_path);
    if (!wsba.ok()) return wsba.status();
    out->wsba = *wsba;
    out->wsba_recovered = true;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ServerLifecycle

ServerLifecycle::ServerLifecycle(ServerLifecycleOptions options)
    : options_(std::move(options)) {
  // Touch every lifecycle metric so FormatPrometheus shows them at 0
  // before the first restart.
  (void)LifecycleMetrics::Get();
  bound_port_ = options_.port;
}

ServerLifecycle::~ServerLifecycle() {
  if (state() == State::kServing) StopGraceful();
}

std::string ServerLifecycle::OplogPath() const {
  return options_.data_dir + "/" + options_.name + ".oplog";
}

std::string ServerLifecycle::CheckpointPath() const {
  return options_.data_dir + "/" + options_.name + ".ckpt";
}

std::string ServerLifecycle::WsbaLogPath() const {
  return options_.data_dir + "/" + options_.name + ".balog";
}

std::shared_ptr<BusinessActivityCoordinator> ServerLifecycle::coordinator()
    const {
  std::lock_guard<std::mutex> lk(coordinator_mu_);
  return coordinator_;
}

OverloadStats ServerLifecycle::accumulated_overload() const {
  std::lock_guard<std::mutex> lk(overload_mu_);
  OverloadStats total = overload_total_;
  if (server_ != nullptr) {
    OverloadStats live = server_->overload_stats();
    total.admitted += live.admitted;
    total.shed_queue_full += live.shed_queue_full;
    total.shed_quota += live.shed_quota;
    total.shed_deadline += live.shed_deadline;
    total.shed_warmup += live.shed_warmup;
    total.queue_peak = std::max(total.queue_peak, live.queue_peak);
  }
  return total;
}

void ServerLifecycle::TearDownWorld() {
  if (server_ != nullptr) {
    OverloadStats live = server_->overload_stats();
    std::lock_guard<std::mutex> lk(overload_mu_);
    overload_total_.admitted += live.admitted;
    overload_total_.shed_queue_full += live.shed_queue_full;
    overload_total_.shed_quota += live.shed_quota;
    overload_total_.shed_deadline += live.shed_deadline;
    overload_total_.shed_warmup += live.shed_warmup;
    overload_total_.queue_peak =
        std::max(overload_total_.queue_peak, live.queue_peak);
  }
  server_.reset();
  ckpt_writer_.reset();
  pm_.reset();
  tm_.reset();
  rm_.reset();
}

Status ServerLifecycle::Start() {
  State cur = state();
  if (cur == State::kServing || cur == State::kRecovering ||
      cur == State::kDraining) {
    return Status::FailedPrecondition("lifecycle already running");
  }
  state_.store(State::kRecovering, std::memory_order_release);
  const bool restart = generation_.load(std::memory_order_relaxed) > 0;
  const int64_t t0_us = SteadyNowUs();

  ScopedSpan restart_span(Tracer::Global().StartTrace(),
                          restart ? "lifecycle-restart" : "lifecycle-boot");

  // Fresh world. The clock is pinned here (Pin() ran at teardown), so
  // recovery replay sees frozen, monotone time.
  rm_ = std::make_unique<ResourceManager>();
  tm_ = std::make_unique<TransactionManager>(250);
  pm_ = std::make_unique<PromiseManager>(options_.manager, &clock_, rm_.get(),
                                         tm_.get());
  if (options_.define_resources) options_.define_resources(*rm_);
  if (options_.configure_manager) options_.configure_manager(*pm_);

  // WS-BA spine: reopen the decision log (clearing any Abandon poison)
  // and register the new coordinator — Register replaces the crashed
  // generation's handler, after which its corpse can be dropped.
  std::shared_ptr<BusinessActivityCoordinator> coordinator;
  if (options_.wsba_transport != nullptr) {
    Status st = ba_log_.Open(WsbaLogPath());
    if (!st.ok()) {
      state_.store(State::kStopped, std::memory_order_release);
      return st;
    }
    st = ba_log_.StartGroupCommit(options_.group_commit, &clock_);
    if (!st.ok()) {
      state_.store(State::kStopped, std::memory_order_release);
      return st;
    }
    CoordinatorOptions copts = options_.wsba;
    copts.log = &ba_log_;
    copts.clock = &clock_;
    coordinator = std::make_shared<BusinessActivityCoordinator>(
        options_.wsba_endpoint, options_.wsba_transport, copts);
  }

  // Recovery: checkpoint + oplog tail + WS-BA decision log, with the
  // manager's log file still quiescent (it reopens just below).
  {
    ScopedSpan recover_span(restart_span.context(), "lifecycle-recover");
    Status st = RecoverAll(pm_.get(), &clock_, CheckpointPath(), OplogPath(),
                           coordinator.get(), WsbaLogPath(),
                           options_.recovery, &last_recovery_);
    if (!st.ok()) {
      recover_span.set_status("error");
      state_.store(State::kStopped, std::memory_order_release);
      return st;
    }
  }

  {
    std::lock_guard<std::mutex> lk(coordinator_mu_);
    dead_coordinator_.reset();  // new handler is registered; corpse safe
    coordinator_ = std::move(coordinator);
  }

  // Durable spine back online: reopen, restart group commit, attach.
  Status st = oplog_.Open(OplogPath());
  if (st.ok()) st = oplog_.StartGroupCommit(options_.group_commit, &clock_);
  if (st.ok()) st = pm_->AttachLog(&oplog_);
  if (!st.ok()) {
    state_.store(State::kStopped, std::memory_order_release);
    return st;
  }

  ckpt_writer_ =
      std::make_unique<CheckpointWriter>(pm_.get(), &oplog_, CheckpointPath());
  if (options_.checkpoint_interval_ms > 0) {
    st = ckpt_writer_->Start(options_.checkpoint_interval_ms);
    if (!st.ok()) {
      state_.store(State::kStopped, std::memory_order_release);
      return st;
    }
  }

  // Serve. Time starts running again just before the socket opens; on
  // a restart the admission warm-up ramp is armed so the reconnect
  // herd is slow-started instead of re-killing the node.
  clock_.Run();
  TcpServerOptions sopts = options_.server;
  sopts.clock = &clock_;
  sopts.drain_ms = 0;  // teardown goes through KillHard/StopGraceful
  sopts.begin_in_warmup = restart;
  server_ = std::make_unique<TcpEndpointServer>();
  st = server_->Start(bound_port_,
                      [pm = pm_.get()](const Envelope& envelope) {
                        return pm->Handle(envelope);
                      },
                      sopts);
  if (!st.ok()) {
    restart_span.set_status("error");
    state_.store(State::kStopped, std::memory_order_release);
    return st;
  }
  bound_port_ = server_->port();

  last_recovery_ms_ = (SteadyNowUs() - t0_us) / 1000;
  LifecycleMetrics::Get().recovery_ms->Observe(
      static_cast<double>(last_recovery_ms_));
  if (restart) LifecycleMetrics::Get().restarts->Increment();
  generation_.fetch_add(1, std::memory_order_release);
  state_.store(State::kServing, std::memory_order_release);
  return Status::OK();
}

void ServerLifecycle::KillHard() {
  if (state() != State::kServing) return;
  ScopedSpan span(Tracer::Global().StartTrace(), "lifecycle-kill-hard");

  // The coordinator dies first: a SIGKILL'd process never unregisters,
  // so the corpse stays alive (answering kUnavailable through the
  // stale handler) until the next generation re-registers.
  {
    std::lock_guard<std::mutex> lk(coordinator_mu_);
    if (coordinator_ != nullptr) {
      coordinator_->SimulateCrash();
      dead_coordinator_ = std::move(coordinator_);
    }
  }

  // Sockets first, logs second — the order matters. A SIGKILL cuts
  // replies and durability in the same instant; simulating it in two
  // steps must never leave a window where a handler can observe a
  // poisoned log (detaching it) and then send an OK reply for an
  // effect no log carries. Stop() discards the queued backlog and
  // joins in-flight handlers (their WaitDurable completes normally —
  // the log is still open, so a committer can lead its own flush —
  // but the reply hits a closed socket, so clients see exactly a
  // blackout: resets and time-outs, and every acked effect is
  // durable).
  server_->Stop();

  // Now abandon both logs mid-group: queued-but-unflushed records are
  // dropped (the crash ate them) and any straggler blocked in
  // WaitDurable (e.g. the checkpoint writer's cut marker) wakes with a
  // failure instead of lingering.
  oplog_.Abandon();
  ba_log_.Abandon();
  TearDownWorld();

  clock_.Pin();
  LifecycleMetrics::Get().kills_hard->Increment();
  state_.store(State::kKilled, std::memory_order_release);
}

bool ServerLifecycle::StopGraceful() {
  if (state() != State::kServing) return false;
  state_.store(State::kDraining, std::memory_order_release);
  ScopedSpan span(Tracer::Global().StartTrace(), "lifecycle-stop-graceful");

  // Drain: queued and in-flight requests finish (their oplog appends
  // commit normally), new frames are shed with reason "draining".
  bool drained = server_->StopGraceful(options_.drain_deadline_ms);
  if (!drained) span.set_status("drain-timeout");

  // The coordinator stops answering; like the hard path the corpse
  // keeps the endpoint's handler valid until the next registration.
  {
    std::lock_guard<std::mutex> lk(coordinator_mu_);
    if (coordinator_ != nullptr) {
      coordinator_->SimulateCrash();
      dead_coordinator_ = std::move(coordinator_);
    }
  }

  // Final checkpoint while the log still runs (the install waits for
  // the cut to be durable), then stop both logs cleanly.
  if (ckpt_writer_ != nullptr) {
    ckpt_writer_->Stop();
    (void)ckpt_writer_->RunOnce();
  }
  oplog_.StopGroupCommit();
  oplog_.Close();
  ba_log_.StopGroupCommit();
  ba_log_.Close();

  TearDownWorld();
  clock_.Pin();
  LifecycleMetrics::Get().stops_graceful->Increment();
  state_.store(State::kStopped, std::memory_order_release);
  return drained;
}

}  // namespace promises

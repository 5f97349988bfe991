// Chaos harness: the E1 ordering workload on a faulty transport.
//
// Runs the merchant scenario (check/think/purchase) end to end over
// the §6 protocol path — PromiseClient envelopes through a Transport
// with an attached FaultInjector — instead of the direct in-process
// API. Requests and replies are randomly dropped, deliveries are
// duplicated and hops get delay spikes, while clients retry with the
// idempotency-preserving policy (identical envelope, same message id).
//
// After the run the harness audits the §4 invariants against the
// manager's own books, which are authoritative even when clients lost
// replies:
//   * resource conservation — stock consumed equals successful
//     purchases times the order quantity, no units created or leaked;
//   * exactly-once grants — the manager granted exactly one promise
//     per accepted client request (duplicates and retries replayed the
//     cached reply instead of granting again);
//   * no orphan grants — every granted promise was released (the
//     release-after binding or the explicit cleanup), so the promise
//     table drains to empty.
// Violations are reported as human-readable strings; an empty list
// means the run converged with every invariant intact.

#ifndef PROMISES_SIM_CHAOS_H_
#define PROMISES_SIM_CHAOS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/epoch_executor.h"
#include "core/oplog.h"
#include "core/promise_manager.h"
#include "obs/trace.h"
#include "protocol/admission.h"
#include "protocol/circuit_breaker.h"
#include "protocol/fault_injector.h"
#include "protocol/retry_policy.h"
#include "protocol/tcp_transport.h"
#include "protocol/transport.h"
#include "sim/metrics.h"

namespace promises {

struct ChaosConfig {
  int num_items = 4;
  int64_t initial_stock = 50;    ///< Per item pool.
  int64_t order_quantity = 1;    ///< Units per purchase.
  int workers = 4;
  int orders_per_worker = 25;
  int64_t think_us = 0;          ///< Business step between check and buy.
  /// Fault schedule. The harness zeroes `crash` — process crash and
  /// recovery is exercised deterministically by the recovery tests,
  /// not by the randomized run.
  FaultConfig faults;
  /// Client retry policy. The default is deliberately generous (many
  /// cheap attempts) so that runs converge: the probability that every
  /// attempt of one request is lost must be negligible, otherwise the
  /// audit has unknown outcomes to account for.
  RetryPolicy retry{/*max_attempts=*/12, /*deadline_ms=*/30'000,
                    /*initial_backoff_ms=*/1, /*backoff_multiplier=*/2.0,
                    /*max_backoff_ms=*/8, /*jitter=*/0.25};
  uint64_t seed = 42;
  DurationMs promise_duration_ms = 600'000;  ///< Never expires mid-run.

  // ---- Overload composition (all off by default = legacy behavior) --

  /// When true, attach an AdmissionController to the transport so the
  /// faulty bus also sheds under load (queue bound = in-flight gauge,
  /// per-client quotas, deadline DOA checks).
  bool admission_enabled = false;
  AdmissionOptions admission;
  /// Per-envelope absolute-deadline budget stamped by each client
  /// (0 = no deadlines). Deadlines propagate unchanged across retries,
  /// so keep this generous relative to the retry policy's deadline_ms
  /// or orders stop converging by construction.
  DurationMs request_deadline_ms = 0;
  /// Per-worker circuit breaker layered over the retry policy.
  std::optional<CircuitBreakerConfig> breaker;
  /// Busy-wait per hop (models service time so overload is reachable).
  int64_t hop_latency_us = 0;

  /// Trace sampling for the run, in [0,1]. When > 0 the harness resets
  /// the global span collector, samples that fraction of client calls,
  /// and fills ChaosReport::phases with the span-derived phase-latency
  /// breakdown. Restored to the previous rate on return.
  double trace_sampling = 0;

  /// When true, route every manager-bound envelope through an
  /// EpochExecutor (DESIGN.md §14) instead of the per-operation striped
  /// path, so the same faulty-transport run — and the §4 audit behind
  /// it — exercises epoch-batched execution.
  bool use_epoch = false;
  EpochExecutorConfig epoch;
};

struct ChaosReport {
  // Client-observed outcomes (one per attempted order).
  uint64_t attempts = 0;
  uint64_t completed = 0;       ///< Granted and purchased.
  uint64_t rejected = 0;        ///< Promise rejected (stock exhausted).
  uint64_t failed_actions = 0;  ///< Granted but the purchase failed.
  uint64_t unknown = 0;         ///< Retries exhausted; outcome unknown.

  // Protocol-level accounting.
  uint64_t envelopes_sent = 0;  ///< Logical sends (first attempts).
  uint64_t client_retries = 0;  ///< Re-sends on top of envelopes_sent.

  PromiseManagerStats manager;
  TransportStats transport;
  FaultCounters faults;
  /// Admission counters (zero struct when admission was disabled).
  OverloadStats overload;
  /// Breaker counters summed across workers (zero struct when no
  /// breaker was configured; `state` is meaningless in the aggregate).
  CircuitBreakerStats breaker;
  /// Epoch-executor counters (zero struct when use_epoch was false).
  EpochExecutorStats epoch;

  int64_t initial_stock_total = 0;
  int64_t final_stock_total = 0;
  int64_t wall_time_us = 0;

  /// Span-derived phase-latency breakdown (empty when trace_sampling
  /// was 0), plus collector accounting for the boundedness audit.
  std::vector<PhaseStat> phases;
  uint64_t spans_collected = 0;
  uint64_t spans_dropped = 0;

  /// §4 invariant violations found by the post-run audit; empty = pass.
  std::vector<std::string> violations;

  /// Every order reached a definite outcome (no exhausted retries).
  bool converged() const { return unknown == 0; }
  bool ok() const { return violations.empty(); }

  /// Successfully completed orders per wall-clock second.
  double GoodputPerSec() const {
    return wall_time_us <= 0 ? 0.0
                             : static_cast<double>(completed) * 1e6 /
                                   static_cast<double>(wall_time_us);
  }
  /// Wire messages per logical envelope: 1.0 = no retries.
  double RetryAmplification() const {
    return envelopes_sent == 0
               ? 1.0
               : static_cast<double>(envelopes_sent + client_retries) /
                     static_cast<double>(envelopes_sent);
  }

  /// Formatted multi-line summary (counters, faults, audit verdict).
  std::string Summary() const;
};

/// Runs the chaos workload to completion and audits it.
/// (Per-endpoint transport breakdowns are formatted by
/// `FormatTransportStats` in sim/metrics.h.)
ChaosReport RunChaosWorkload(const ChaosConfig& config);

// ---- WS-BusinessActivity chaos ---------------------------------------
//
// Travel-order-style workload over the crash-tolerant wsba layer: many
// concurrent multi-participant activities are driven to Close or
// Cancel through a faulty transport (drops, dups, delays), followed by
// sequential crash/recovery rounds that kill the coordinator at an
// armed crash point mid-fan-out (and optionally restart a participant)
// before a twin is recovered from the decision log. The post-run audit
// checks the atomic-outcome invariant: no activity ever ends with
// mixed Close and Compensate/Cancel outcomes across its participants,
// every callback ran at most once, and nothing stays unresolved.

struct WsbaChaosConfig {
  int participants_per_activity = 3;
  int workers = 4;
  int activities_per_worker = 8;
  double close_fraction = 0.6;  ///< Remaining activities are cancelled.
  /// Fault schedule for the transport. `crash` is zeroed (coordinator
  /// crashes are the deterministic crash rounds below, not a random
  /// transport fault).
  FaultConfig faults;
  /// Outcome-order / signal retransmission policy. Generous for the
  /// same convergence reason as ChaosConfig::retry.
  RetryPolicy retry{/*max_attempts=*/12, /*deadline_ms=*/30'000,
                    /*initial_backoff_ms=*/1, /*backoff_multiplier=*/2.0,
                    /*max_backoff_ms=*/8, /*jitter=*/0.25};
  uint64_t seed = 42;
  /// Sequential coordinator crash/recovery rounds appended after the
  /// concurrent phase. Each round kills the coordinator at a randomly
  /// chosen crash point and passage, recovers a twin from the log and
  /// re-drives; 0 disables.
  int crash_rounds = 0;
  /// When true, each crash round also restarts one participant
  /// (destroy + rebuild + RecoverParticipant) before recovery.
  bool participant_restart = true;
  /// Extra ReDrive attempts when faults leave participants unreachable
  /// through a whole retry budget.
  int max_redrives = 16;
  /// Trace sampling as in ChaosConfig.
  double trace_sampling = 0;
};

struct WsbaChaosReport {
  uint64_t activities = 0;
  uint64_t closed = 0;
  uint64_t compensated = 0;
  uint64_t mixed = 0;
  uint64_t unresolved = 0;  ///< Still open after all re-drives.

  uint64_t order_retransmissions = 0;  ///< Coordinator order re-sends.
  uint64_t crash_rounds_run = 0;
  uint64_t crashes_fired = 0;
  uint64_t presumed_aborts = 0;
  uint64_t redrives = 0;

  TransportStats transport;
  FaultCounters faults;
  int64_t wall_time_us = 0;
  /// Per-activity create-to-resolved latency (concurrent phase only).
  std::vector<int64_t> completion_us;

  std::vector<PhaseStat> phases;
  uint64_t spans_collected = 0;
  uint64_t spans_dropped = 0;

  /// Atomic-outcome violations; empty = pass.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// Fraction of activities that ended in one consistent outcome
  /// (1.0 = the invariant held everywhere).
  double OutcomeConsistency() const {
    return activities == 0
               ? 1.0
               : static_cast<double>(activities - mixed - unresolved) /
                     static_cast<double>(activities);
  }
  int64_t CompletionPercentileUs(double p) const;
  /// Wire orders per logical order: 1.0 = no retransmissions.
  double RetryAmplification() const {
    uint64_t logical = transport.messages > transport.retries
                           ? transport.messages - transport.retries
                           : transport.messages;
    return logical == 0 ? 1.0
                        : static_cast<double>(transport.messages) /
                              static_cast<double>(logical);
  }

  std::string Summary() const;
};

WsbaChaosReport RunWsbaChaosWorkload(const WsbaChaosConfig& config);

// ---- Restart chaos ---------------------------------------------------
//
// Live crash-restart survivability: N order workers drive the merchant
// flow over real TCP against a ServerLifecycle-supervised node while an
// orchestrator thread kills it K times (simulated SIGKILL or graceful
// drain, randomized timing) and brings it back on the same port. An
// optional WS-BA driver runs business activities through the node's
// coordinator across the same kills. Clients ride every blackout on
// retry + reconnect backoff + server-side idempotency; afterwards the
// §4 invariants, exactly-once effects and atomic WS-BA outcomes are
// audited across all generations.

struct RestartChaosConfig {
  int num_items = 4;
  int64_t initial_stock = 500;  ///< Per item pool.
  int64_t order_quantity = 1;
  int workers = 4;
  int orders_per_worker = 60;
  int64_t think_us = 0;

  /// Kill schedule: the orchestrator lets the node serve for a random
  /// uptime in [min,max] ms, kills it — hard (abandoned logs, torn
  /// sockets) with probability `hard_kill_fraction`, graceful drain
  /// otherwise — restarts it on the same port, and repeats. Round r's
  /// uptime ends early once the workers have begun r+1 of
  /// kill_rounds+1 even shares of their orders, so the load spans
  /// every round however fast the node serves.
  int kill_rounds = 20;
  double hard_kill_fraction = 0.5;
  DurationMs min_uptime_ms = 20;
  DurationMs max_uptime_ms = 60;

  /// Lifecycle knobs (passed through to ServerLifecycleOptions).
  DurationMs drain_deadline_ms = 500;
  DurationMs checkpoint_interval_ms = 25;
  GroupCommitConfig group_commit;
  /// Recovery warm-up ramp for every post-restart generation; 0
  /// disables (reproduces the thundering-herd re-kill hazard).
  double warmup_target_rps = 4'000;
  DurationMs warmup_window_ms = 150;

  /// Client knobs. The retry budget is deliberately huge: one order
  /// must ride out a full blackout (kill + recovery + warm-up ramp)
  /// on retries of the identical envelope.
  RetryPolicy retry{/*max_attempts=*/40, /*deadline_ms=*/60'000,
                    /*initial_backoff_ms=*/1, /*backoff_multiplier=*/2.0,
                    /*max_backoff_ms=*/50, /*jitter=*/0.25};
  ReconnectBackoffOptions reconnect;
  int64_t call_timeout_ms = 250;

  /// WS-BA traffic riding the same node: one driver thread runs this
  /// many activities (sequentially) against the lifecycle's
  /// coordinator while it crashes and recovers; 0 disables.
  int wsba_activities = 16;
  int wsba_participants = 3;
  double wsba_close_fraction = 0.6;
  int wsba_max_redrives = 16;

  uint64_t seed = 42;
  DurationMs promise_duration_ms = 600'000;
  double trace_sampling = 0;  ///< 0 = tracing off for this run.
};

struct RestartChaosReport {
  // Client-observed order tallies, summed across workers.
  uint64_t attempts = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t failed_actions = 0;
  /// Error text of the first few failed actions (§7 says the promise
  /// should preclude them, so each one deserves forensics).
  std::vector<std::string> failed_action_errors;
  uint64_t unknown = 0;  ///< Retry budget exhausted mid-order.
  uint64_t envelopes_sent = 0;
  uint64_t client_retries = 0;
  uint64_t dial_attempts = 0;  ///< Socket dials across all channels.

  // The restart schedule actually executed.
  int generations = 0;  ///< Completed Start() calls (first boot included).
  int kills_hard = 0;
  int stops_graceful = 0;
  int drains_timed_out = 0;
  /// Kill initiation → first post-restart reply (grant or shed) seen
  /// by a probe channel; one sample per restart.
  std::vector<int64_t> blackout_us;
  /// RecoverAll duration per restart.
  std::vector<DurationMs> recovery_ms;
  uint64_t warmup_sheds = 0;   ///< Shed by the ramp, all generations.
  uint64_t probe_grants = 0;   ///< Blackout probes granted a promise...
  uint64_t probe_releases = 0; ///< ...and how many released it again.

  // WS-BA driver tallies.
  uint64_t activities = 0;
  uint64_t closed = 0;
  uint64_t compensated = 0;
  uint64_t mixed = 0;
  uint64_t unresolved = 0;
  uint64_t erased = 0;  ///< Created but wiped by a kill before any
                        ///< durable enlistment; presumed abort, no audit.
  uint64_t redrives = 0;

  PromiseManagerStats final_manager;  ///< Last generation's books.
  OverloadStats overload;  ///< Admission stats accumulated across generations.
  int64_t initial_stock_total = 0;
  int64_t final_stock_total = 0;
  int64_t wall_time_us = 0;

  std::vector<PhaseStat> phases;
  uint64_t spans_collected = 0;
  uint64_t spans_dropped = 0;

  /// Cross-generation audit failures; empty = pass.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  bool converged() const { return unknown == 0; }
  double GoodputPerSec() const {
    return wall_time_us == 0 ? 0.0
                             : static_cast<double>(completed) * 1e6 /
                                   static_cast<double>(wall_time_us);
  }
  /// Wire envelopes per first-send envelope: 1.0 = no retries.
  double RetryAmplification() const {
    return envelopes_sent == 0
               ? 1.0
               : static_cast<double>(envelopes_sent + client_retries) /
                     static_cast<double>(envelopes_sent);
  }
  /// p is a fraction in [0, 1] (0.99, not 99). Out-of-range ranks
  /// clamp to the extreme samples, so a percent-style argument would
  /// silently report the maximum.
  int64_t BlackoutPercentileUs(double p) const;
  std::string Summary() const;
};

RestartChaosReport RunRestartChaosWorkload(const RestartChaosConfig& config);

}  // namespace promises

#endif  // PROMISES_SIM_CHAOS_H_

// WS-BusinessActivity-style coordination (§10: "We also will integrate
// the processing of promises with other frameworks for service-oriented
// messaging, including the transaction support found in standards like
// WS-BusinessActivity").
//
// Implements the BusinessAgreementWithParticipantCompletion protocol
// over the library's transport: a coordinator scopes an activity,
// participants register and later signal Completed / Exit / Fault; at
// the end the coordinator drives every completed participant to Close
// (outcome confirmed) or Compensate (outcome undone). Unlike atomic
// transactions, participants act immediately and undo semantically —
// the saga model service-based applications actually use, and the
// natural frame around a set of promises: compensation releases them.
//
// Crash tolerance (DESIGN.md §11). The coordinator is a write-ahead
// state machine over the shared OperationLog substrate:
//
//   * every state transition (create, register, participant signal,
//     the close/cancel *decision*, per-participant outcome acks, end)
//     is appended to a durable decision log, and the decision record
//     is made durable (group-commit WaitDurable) BEFORE any outcome
//     order leaves the coordinator;
//   * recovery (RecoverCoordinator) replays the decision log into a
//     fresh coordinator and re-drives unresolved activities: an
//     activity with a durable decision is driven to that outcome, an
//     activity without one is *presumed aborted* and cancelled — safe
//     precisely because no Close can have been sent without a durable
//     close decision preceding it;
//   * outcome orders are retransmitted with RetryPolicy backoff and
//     participants deduplicate them per activity, so re-driving after
//     a crash (or a lost ack) never double-runs a compensation;
//   * participants write their own enlistment/completion/outcome
//     records ahead of acting, and after coordinator silence re-query
//     the outcome (get_outcome) — an unknown activity means presumed
//     abort: undo if completed, forget otherwise.
//
// Injected crash points (FaultInjector::AtCrashPoint) mark the
// coordinator's crash-consistency boundaries — "wsba-pre-decision",
// "wsba-post-decision", "wsba-pre-notify", "wsba-post-notify",
// "wsba-pre-ended" — so the recovery tests can kill the coordinator in
// every window of the outcome fan-out and prove the twin world
// converges to one consistent outcome.
//
// Participant state machine (coordinator's view):
//
//            Register
//               v
//   +-------- Active ----Exit----> Exited
//   |           |   |      ^
//   | Fault     |   |      +--Cancelled--- Cancelling
//   v           |   Completed                  ^
// Faulted <-----+      |                       | (cancel of a
//   (others get        v                       |  never-completed
//    compensated)   Completed --Close------> Closing --Closed----> Ended
//                       |
//                        +-----Compensate--> Compensating
//                                              --Compensated-----> Ended

#ifndef PROMISES_WSBA_BUSINESS_ACTIVITY_H_
#define PROMISES_WSBA_BUSINESS_ACTIVITY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/oplog.h"
#include "protocol/fault_injector.h"
#include "protocol/retry_policy.h"
#include "protocol/transport.h"

namespace promises {

struct ActivityIdTag { static constexpr const char* kPrefix = "activity"; };
struct ParticipantIdTag {
  static constexpr const char* kPrefix = "participant";
};
/// Scopes one business activity (the CoordinationContext id).
using ActivityId = TypedId<ActivityIdTag>;
/// One enlistment within an activity.
using ParticipantId = TypedId<ParticipantIdTag>;

enum class ParticipantState {
  kActive,        ///< Registered, still working.
  kCompleted,     ///< Work done; compensation available.
  kClosing,       ///< Close sent, awaiting Closed.
  kCompensating,  ///< Compensate sent, awaiting Compensated.
  kCancelling,    ///< Cancel sent to a still-active participant.
  kEnded,         ///< Closed or Compensated acknowledged.
  kExited,        ///< Left the activity without work to undo.
  kFaulted,       ///< Reported failure; cannot complete or compensate.
};

std::string_view ParticipantStateToString(ParticipantState s);

enum class ActivityOutcome {
  kOpen,         ///< Still running (or decided but not fully acked).
  kClosed,       ///< All participants confirmed.
  kCompensated,  ///< All completed participants undone.
  kMixed,        ///< Some acknowledgement failed; needs intervention.
};

std::string_view ActivityOutcomeToString(ActivityOutcome o);

/// The durable outcome decision. Write-ahead: the record carrying it
/// hits the log before any outcome order is sent, so recovery can
/// presume abort for anything undecided.
enum class ActivityDecision { kNone, kClose, kCancel };

std::string_view ActivityDecisionToString(ActivityDecision d);

/// Crash-tolerance knobs for the coordinator. All pointers are
/// non-owning and optional: a default-constructed options struct gives
/// the legacy purely in-memory coordinator.
struct CoordinatorOptions {
  /// Durable decision log. Must be Open()ed by the owner (the torn-tail
  /// scan on Open is what gives presumed abort its teeth) and outlive
  /// the coordinator. Null = volatile coordinator.
  OperationLog* log = nullptr;
  /// Timestamps log records and paces order retransmission backoff.
  /// Null = an internal real-time clock.
  Clock* clock = nullptr;
  /// Outcome-order retransmission: Close/Compensate/Cancel orders are
  /// re-sent with this policy (identical envelope; participants dedup
  /// per activity). Exhausted retries leave the participant unresolved
  /// for a later ReDrive instead of faulting it.
  RetryPolicy retry{/*max_attempts=*/4, /*deadline_ms=*/5'000,
                    /*initial_backoff_ms=*/1, /*backoff_multiplier=*/2.0,
                    /*max_backoff_ms=*/16, /*jitter=*/0.25};
  uint64_t retry_seed = 42;
  /// Crash-point source (AtCrashPoint at the boundaries listed in the
  /// file comment). A fired point flips the coordinator into the
  /// crashed state: every later call fails kUnavailable until a twin
  /// coordinator is recovered from the log.
  FaultInjector* crash_points = nullptr;
};

/// What RecoverCoordinator found and did.
struct CoordinatorRecovery {
  size_t activities = 0;      ///< Activities reconstructed from the log.
  size_t already_ended = 0;   ///< Had a durable ended record; untouched.
  size_t redriven = 0;        ///< Durable decision re-driven to outcome.
  size_t presumed_abort = 0;  ///< No decision; cancelled (presumed abort).
  /// False when a re-drive left participants unresolved (unreachable
  /// after retries); call ReDrive again when the transport heals.
  bool complete = true;
};

/// Coordinator role: creates activities, tracks participant states,
/// drives the close/compensate fan-out. Thread-safe: one coordinator
/// may serve concurrent activities.
class BusinessActivityCoordinator {
 public:
  /// Registers itself on `transport` under `endpoint` to receive
  /// participant signals (Completed / Exit / Fault / GetOutcome).
  BusinessActivityCoordinator(std::string endpoint, Transport* transport,
                              CoordinatorOptions options = {});
  ~BusinessActivityCoordinator();

  const std::string& endpoint() const { return endpoint_; }

  /// Starts a new activity scope (durably logged before it is usable).
  ActivityId CreateActivity();

  /// Enlists the participant listening at `participant_endpoint`.
  /// Idempotent per endpoint: re-registering an endpoint already
  /// enlisted in `activity` (a duplicated Register delivery) returns
  /// the existing enlistment instead of creating a twin.
  Result<ParticipantId> Register(ActivityId activity,
                                 const std::string& participant_endpoint);

  /// Ends the activity successfully: the close decision is made
  /// durable, then every kCompleted participant is driven to Close.
  /// Active participants still working make the close fail with
  /// kFailedPrecondition (complete or exit first). Participants
  /// unreachable after retries leave the activity undecided-looking
  /// (kOpen) with the decision durably recorded; returns kUnavailable —
  /// ReDrive when the transport heals.
  Result<ActivityOutcome> CloseActivity(ActivityId activity);

  /// Ends the activity by undoing it: the cancel decision is made
  /// durable, then every kCompleted participant is driven to
  /// Compensate and still-active participants are cancelled.
  Result<ActivityOutcome> CancelActivity(ActivityId activity);

  /// Re-runs the outcome fan-out for an activity whose decision is
  /// durable but whose participants were not all acked (coordinator
  /// crash mid-drive, participants unreachable). Idempotent:
  /// participants already acked are skipped, the rest get their order
  /// retransmitted.
  Result<ActivityOutcome> ReDrive(ActivityId activity);

  /// Activities with a state the protocol still owes work to: decided
  /// but not fully acked, or undecided with enlistments.
  std::vector<ActivityId> UnresolvedActivities() const;

  /// State queries (coordinator's view).
  Result<ParticipantState> StateOf(ActivityId activity,
                                   ParticipantId participant) const;
  Result<ActivityOutcome> OutcomeOf(ActivityId activity) const;
  Result<ActivityDecision> DecisionOf(ActivityId activity) const;
  size_t ParticipantCount(ActivityId activity) const;

  /// True when any participant of `activity` reported Fault; the usual
  /// reaction is CancelActivity.
  bool HasFault(ActivityId activity) const;

  /// True once an injected crash point fired: the coordinator is
  /// "dead" (every call fails kUnavailable) until a twin is recovered
  /// from the decision log.
  bool crashed() const;

  /// Simulated SIGKILL from outside: marks the coordinator crashed
  /// (every call fails kUnavailable) without firing a crash point. A
  /// crashed coordinator's destructor does NOT unregister its
  /// transport endpoint — a killed process never gets to — so a
  /// recovered twin's own Register (which replaces any prior handler)
  /// is not clobbered when the corpse is finally destroyed.
  void SimulateCrash();

  /// Coordinator-order retransmissions performed so far.
  uint64_t retransmissions() const;

 private:
  friend Result<CoordinatorRecovery> RecoverCoordinator(
      BusinessActivityCoordinator* coordinator, const std::string& log_path);

  struct Participant {
    std::string endpoint;
    ParticipantState state = ParticipantState::kActive;
    /// Ack ok=false during the drive (distinct from a pre-decision
    /// Fault signal): makes the final outcome kMixed.
    bool order_failed = false;
  };
  struct Activity {
    std::map<ParticipantId, Participant> participants;
    ActivityOutcome outcome = ActivityOutcome::kOpen;
    ActivityDecision decision = ActivityDecision::kNone;
    bool faulted = false;
  };

  /// Handles Completed / Exit / Fault / GetOutcome from participants.
  Result<Envelope> HandleSignal(const Envelope& envelope);

  /// Appends one decision-log record; `durable` waits for the group
  /// ack, otherwise the record is flushed without waiting. No-op
  /// without a log.
  Status AppendRecord(const std::string& payload, bool durable);

  /// True when an armed crash point fired; flips crashed_.
  bool CrashAt(const char* point);

  /// The write-ahead decision + outcome fan-out. mu_ held.
  Result<ActivityOutcome> DecideLocked(ActivityId id, Activity* activity,
                                       ActivityDecision decision);
  /// Sends every pending order (with retransmission), logs acks and,
  /// once nothing is pending, the ended record. mu_ held.
  Result<ActivityOutcome> DriveOutcomeLocked(ActivityId id,
                                             Activity* activity);
  /// Replays decision-log records into activities_ (fresh coordinator).
  void LoadRecoveredRecords(const std::vector<LogRecord>& records);
  /// Drives every unresolved activity (presumed abort for undecided).
  CoordinatorRecovery ReDriveUnresolvedLocked();

  std::string endpoint_;
  Transport* transport_;
  CoordinatorOptions options_;
  std::unique_ptr<Clock> owned_clock_;  ///< When options.clock is null.
  Clock* clock_;                        ///< Never null.
  Rng retry_rng_;

  mutable std::mutex mu_;
  bool crashed_ = false;
  uint64_t retransmissions_ = 0;
  IdGenerator<ActivityId> activity_ids_;
  IdGenerator<ParticipantId> participant_ids_;
  std::map<ActivityId, Activity> activities_;
};

/// Rebuilds a crashed coordinator from its decision log: replays the
/// records at `log_path` into `coordinator` (which must be freshly
/// constructed, with its options.log already Open()ed on that same
/// path so appends continue where the log left off), then re-drives
/// every unresolved activity — durable decisions to their outcome,
/// undecided activities to Cancel (presumed abort). Call before the
/// coordinator serves new traffic.
Result<CoordinatorRecovery> RecoverCoordinator(
    BusinessActivityCoordinator* coordinator, const std::string& log_path);

/// Participant-side durability knobs. Non-owning, all optional.
struct ParticipantOptions {
  /// Enlistment/vote/outcome log. May be shared by many participants
  /// (records carry the participant endpoint); must outlive them.
  OperationLog* log = nullptr;
  Clock* clock = nullptr;
  /// Backoff for signals and outcome queries toward the coordinator.
  RetryPolicy retry{/*max_attempts=*/4, /*deadline_ms=*/5'000,
                    /*initial_backoff_ms=*/1, /*backoff_multiplier=*/2.0,
                    /*max_backoff_ms=*/16, /*jitter=*/0.25};
  uint64_t retry_seed = 43;
};

/// Participant role: owns the work's confirm/undo callbacks and answers
/// the coordinator's protocol messages. Orders are deduplicated per
/// activity (a retransmitted Close/Compensate acks without re-running
/// the callback) and the dedup state survives restart via the options
/// log, so coordinator retries across a participant crash stay
/// exactly-once. Thread-safe.
class BusinessActivityParticipant {
 public:
  struct Callbacks {
    /// Outcome confirmed; release resources kept for compensation.
    std::function<Status()> on_close;
    /// Outcome revoked; undo the completed work.
    std::function<Status()> on_compensate;
    /// Activity cancelled while still active (nothing completed).
    std::function<void()> on_cancel;
  };

  BusinessActivityParticipant(std::string endpoint, Transport* transport,
                              Callbacks callbacks,
                              ParticipantOptions options = {});
  ~BusinessActivityParticipant();

  const std::string& endpoint() const { return endpoint_; }

  /// Binds this participant to an enlistment (obtained out of band
  /// from the coordinator's Register result) and durably records it.
  /// A participant may hold several enlistments; the most recent one
  /// is the target of the no-argument Signal*/QueryOutcome calls.
  void Enlist(const std::string& coordinator_endpoint, ActivityId activity,
              ParticipantId id);

  /// Signals the coordinator that this participant's work is done and
  /// compensation is available. The completed vote is logged ahead of
  /// the signal, so a restarted participant still knows its work needs
  /// undoing. Retries with the options policy (coordinator-side
  /// signals are idempotent).
  Status SignalCompleted();
  Status SignalCompleted(ActivityId activity);
  /// Signals that this participant has nothing to do in the activity.
  Status SignalExit();
  /// Signals that this participant failed and cannot complete.
  Status SignalFault(const std::string& reason);

  /// Timeout path: after coordinator silence, asks it for the
  /// activity's outcome and applies the answer locally (running the
  /// close/compensate/cancel callback at most once). A coordinator
  /// that does not know the activity means presumed abort: undo if
  /// completed, forget otherwise. Returns the outcome applied, kOpen
  /// when the activity is still undecided (re-query after the
  /// coordinator's retry_after_ms hint), or the transport error when
  /// the coordinator stayed unreachable through the retry budget.
  Result<ActivityOutcome> QueryOutcome();
  Result<ActivityOutcome> QueryOutcome(ActivityId activity);

  /// The outcome order this participant executed for `activity`
  /// ("close", "compensate", "cancel"), or "" when none yet.
  std::string ExecutedOutcome(ActivityId activity) const;

 private:
  friend Status RecoverParticipant(BusinessActivityParticipant* participant,
                                   const std::string& log_path);

  struct Enlistment {
    ParticipantId id;
    std::string coordinator;
    bool completed = false;  ///< Durable vote: work done, undo possible.
    std::string executed;    ///< "", "close", "compensate", "cancel".
    /// An outcome callback is running outside mu_; further orders for
    /// this activity are refused retryably until it is executed.
    bool running = false;
  };

  Result<Envelope> HandleOrder(const Envelope& envelope);
  Status Signal(ActivityId activity, const std::string& kind,
                const std::string& detail);
  /// `kind` as executed: cancel of completed work is a compensate.
  static std::string EffectiveOrder(const Enlistment& enlistment,
                                    const std::string& kind);
  /// Runs the callback for an order whose enlistment the caller marked
  /// running, makes the executed record durable and stamps the
  /// enlistment. mu_ NOT held, so a callback may re-enter the
  /// participant. Returns the callback's (or the log's) status.
  Status RunClaimedOrder(ActivityId activity, const std::string& effective);
  /// The retryable refusal while another order's callback runs.
  static Status OrderRunning(ActivityId activity);
  Status AppendRecord(const std::string& payload);

  std::string endpoint_;
  Transport* transport_;
  Callbacks callbacks_;
  ParticipantOptions options_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;
  Rng retry_rng_;

  mutable std::mutex mu_;
  std::map<uint64_t, Enlistment> enlistments_;  ///< Keyed by activity value.
  ActivityId current_;  ///< Most recent Enlist target.
};

/// Restores a restarted participant's durable protocol state from the
/// log at `log_path`: enlistments, completed votes and already-executed
/// outcomes (filtered to this participant's endpoint), so retransmitted
/// orders ack idempotently instead of re-running callbacks. Call right
/// after constructing the replacement participant.
Status RecoverParticipant(BusinessActivityParticipant* participant,
                          const std::string& log_path);

}  // namespace promises

#endif  // PROMISES_WSBA_BUSINESS_ACTIVITY_H_

// Federated promise-manager routing (DESIGN.md §13).
//
// A ShardRouter fronts a set of promise-manager shards described by a
// versioned ShardTopology. Requests whose predicates all map to one
// shard take the fast path: a single routed envelope (stamped with a
// <route> header the shard's guard validates) straight through the
// shard's striped-lock grant path — no coordination machinery at all.
// Requests spanning shards are driven by the FederatedGrantCoordinator,
// which reuses the WS-BusinessActivity substrate (src/wsba) to make the
// multi-shard grant atomic: every per-shard sub-grant is journaled as a
// durable intent BEFORE the sub-grant leaves the router, each granted
// shard is enlisted as a compensatable participant, and only when every
// shard has granted is the activity closed. Any failure — a shard
// rejecting, a shard unreachable, the router crashing mid-grant —
// resolves by the WS-BA rules: no durable close decision means presumed
// abort, and compensation releases exactly the sub-grants that were
// journaled, idempotently (the manager's release path skips unknown or
// foreign ids silently, so re-driven compensations are harmless).
//
// Journal grammar (shares the coordinator/participant log file; the
// wsba recovery routines skip records whose first field is not theirs):
//
//   fg|intent|<activity>|<shard>|<msgid>|<duration>|<predicates>
//   fg|grant|<activity>|<shard>|<promise-ids ';'-joined>
//   fg|resolved|<activity>|<outcome>
//
// `intent` is durable before the sub-grant is sent: a recovering twin
// re-sends the IDENTICAL envelope (same from + message id) so the
// shard's dedup table makes the probe exactly-once — the twin learns
// whether the crashed router's grant landed, then releases it (the
// undecided activity is presumed aborted). `grant` is durable before
// the participant's completed vote, so compensation always knows the
// promise ids it must release.
//
// Crash points (FaultInjector::AtCrashPoint): "fedgrant-pre-subgrant"
// fires after the intent is durable but before the sub-grant is sent;
// "fedgrant-post-subgrant" fires after the grant record is durable but
// before the completed vote. Both leave the activity undecided — the
// twin-world tests prove recovery converges to exactly one outcome
// with no leaked sub-grant either way.

#ifndef PROMISES_SHARD_ROUTER_H_
#define PROMISES_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/oplog.h"
#include "predicate/ast.h"
#include "protocol/fault_injector.h"
#include "protocol/message.h"
#include "protocol/retry_policy.h"
#include "protocol/transport.h"
#include "shard/topology.h"
#include "wsba/business_activity.h"

namespace promises {

/// One request/reply channel to a shard. Local clusters bind this to
/// Transport::Send; TCP clusters bind it to TcpClientChannel::Call.
/// Must be callable from multiple router threads concurrently (both
/// bindings are).
using ShardChannel = std::function<Result<Envelope>(const Envelope&)>;

/// Outcome of a routed promise request.
struct RoutedGrant {
  bool granted = false;
  /// True when the request spanned shards and ran as a WS-BA activity.
  bool federated = false;
  /// The WS-BA activity value backing a federated grant (0 on the
  /// single-shard fast path).
  uint64_t activity = 0;
  /// Granted promise ids, grouped by the shard that holds them.
  std::map<int, std::vector<PromiseId>> promises;
  std::string reject_reason;  ///< Set when !granted.
};

struct ShardRouterOptions {
  /// Envelope `from` for all shard traffic. Shard managers key their
  /// dedup tables and promise ownership by this name, so a recovering
  /// twin MUST reuse its corpse's name to replay intents exactly-once
  /// and release what the corpse granted.
  std::string name = "shard-router";
  ShardTopology topology;
  /// One channel per topology shard, same order as the endpoints.
  std::vector<ShardChannel> channels;
  /// In-process transport hosting the WS-BA conversation between the
  /// router's coordinator and its shard agents, and supplying message
  /// ids for shard envelopes. Required.
  Transport* control = nullptr;
  /// Timestamps journal records. Null = shared real clock.
  Clock* clock = nullptr;
  /// Federated-grant journal (shared with the WS-BA coordinator and
  /// participant records; one file per router). Null = federated
  /// grants refused with kFailedPrecondition, fast path unaffected.
  OperationLog* log = nullptr;
  /// Path `log` is open on; RecoverFederated reads it.
  std::string log_path;
  /// Per-shard call retry (identical envelope each attempt; the shard
  /// dedup table absorbs duplicates).
  RetryPolicy retry{/*max_attempts=*/4, /*deadline_ms=*/5'000,
                    /*initial_backoff_ms=*/1, /*backoff_multiplier=*/2.0,
                    /*max_backoff_ms=*/16, /*jitter=*/0.25};
  uint64_t retry_seed = 47;
  /// Crash-point source for the fedgrant-* boundaries. A fired point
  /// kills the router: every later call fails kUnavailable until a
  /// twin is built and recovered from the journal.
  FaultInjector* crash_points = nullptr;
  /// Duration used when a request asks for 0.
  DurationMs default_duration_ms = 60'000;
};

/// Drives multi-shard grants as compensatable WS-BA activities. One
/// per router; thread-safe. Owned by ShardRouter — reachable for
/// recovery bookkeeping and tests.
class FederatedGrantCoordinator {
 public:
  /// Registers the WS-BA coordinator on options.control under
  /// "<name>/ba". Per-activity shard agents register under
  /// "<name>/a<activity>/s<shard>" — deterministic, so a twin rebuilds
  /// the same conversation endpoints its corpse used.
  explicit FederatedGrantCoordinator(const ShardRouterOptions& options);
  ~FederatedGrantCoordinator();

  FederatedGrantCoordinator(const FederatedGrantCoordinator&) = delete;
  FederatedGrantCoordinator& operator=(const FederatedGrantCoordinator&) =
      delete;

  /// Grants `by_shard` (shard index -> predicates for that shard)
  /// atomically across shards, in ascending shard order. Returns a
  /// non-granted RoutedGrant with reject_reason when any shard
  /// rejects (earlier sub-grants are compensated away); an error
  /// status only on infrastructure failure (crashed router, journal
  /// write failure).
  Result<RoutedGrant> Grant(
      const std::map<int, std::vector<Predicate>>& by_shard,
      DurationMs duration_ms);

  /// What a twin's Recover() found and did.
  struct RecoveryReport {
    CoordinatorRecovery wsba;      ///< Decision-log replay summary.
    size_t worlds_rebuilt = 0;     ///< Unresolved activities re-agented.
    size_t intents_probed = 0;     ///< Dangling intents re-sent (dedup'd).
    size_t orphan_releases = 0;    ///< Probe found a landed grant; released.
    bool complete = true;          ///< False when re-drives left residue.
  };

  /// Rebuilds a twin from the journal at options.log_path: re-creates
  /// shard agents for unresolved activities (replaying their wsba
  /// participant state), probes dangling intents with the corpse's
  /// exact envelopes and releases any grant that landed, then replays
  /// the WS-BA decision log (presumed abort for undecided activities —
  /// compensation releases journaled sub-grants through the rebuilt
  /// agents). Call on a freshly constructed twin before new traffic;
  /// the corpse must be destroyed first (its agents' destructors
  /// would otherwise unregister the twin's endpoints).
  Result<RecoveryReport> Recover();

  /// Re-drives activities the coordinator still owes work to (shards
  /// unreachable during the original drive). Returns the number still
  /// unresolved after `max_rounds`.
  size_t ReDriveUnresolved(int max_rounds);

  /// Resolved-outcome tally (this incarnation's bookkeeping).
  struct OutcomeTally {
    uint64_t closed = 0;
    uint64_t compensated = 0;
    uint64_t mixed = 0;
  };
  OutcomeTally tally() const;
  std::vector<ActivityId> Unresolved() const {
    return coordinator_.UnresolvedActivities();
  }

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  /// External SIGKILL: marks the router crashed without a crash point.
  void SimulateCrash();

  BusinessActivityCoordinator* coordinator() { return &coordinator_; }
  uint64_t shard_retransmissions() const {
    return shard_retransmissions_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-activity conversation: one compensatable agent per touched
  /// shard, plus the promise ids granted there. Lives until the
  /// activity resolves.
  struct World {
    std::map<int, std::unique_ptr<BusinessActivityParticipant>> agents;
    std::map<int, std::vector<PromiseId>> grants;
    std::map<int, ParticipantId> enlistments;
    /// Agents that lost an enlistment race (see MakeAgent).
    std::vector<std::unique_ptr<BusinessActivityParticipant>> spare_agents;
  };

  std::string AgentEndpoint(uint64_t activity, int shard) const;
  /// Constructs (without enlisting) the compensatable agent for
  /// (activity, shard) — recovery restores its state separately.
  std::unique_ptr<BusinessActivityParticipant> BuildAgent(uint64_t activity,
                                                          int shard);
  /// Creates + enlists the agent for (activity, shard), or returns the
  /// existing enlistment. Takes mu_ itself and never holds it across
  /// the WS-BA calls (DESIGN.md §5).
  Result<ParticipantId> MakeAgent(ActivityId activity, int shard);
  /// Releases every journaled sub-grant of (activity, shard) on the
  /// shard — the compensation/cancel callback. Idempotent: the
  /// manager skips unknown or already-released ids.
  Status ReleaseShardGrants(uint64_t activity, int shard);
  /// Identical-envelope sub-grant send with retry.
  Result<Envelope> CallShard(int shard, const Envelope& envelope);
  Status AppendRecord(const std::string& payload, bool durable);
  bool CrashAt(const char* point);
  /// Queries the final outcome, updates the tally, journals the
  /// resolved hint and tears down the world. Outside mu_.
  void NoteResolved(ActivityId activity);

  ShardRouterOptions options_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;
  BusinessActivityCoordinator coordinator_;
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> shard_retransmissions_{0};
  std::atomic<uint64_t> call_seq_{0};
  IdGenerator<RequestId> request_ids_;

  mutable std::mutex mu_;
  std::map<uint64_t, World> worlds_;  ///< Keyed by activity value.
  OutcomeTally tally_;
};

/// The routing front door. Thread-safe; workers share one router.
class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions options);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  const ShardTopology& topology() const { return options_.topology; }
  const std::string& name() const { return options_.name; }

  /// Routes a promise request. All predicates on one shard -> direct
  /// routed envelope (no WS-BA activity, no journal record); spanning
  /// shards -> FederatedGrantCoordinator::Grant. Rejections come back
  /// as RoutedGrant{granted=false}, not errors.
  Result<RoutedGrant> Request(const std::vector<Predicate>& predicates,
                              DurationMs duration_ms = 0);

  /// Releases every promise in `grant`, shard by shard. Unknown or
  /// expired ids are skipped silently by the shards (re-release after
  /// recovery is harmless).
  Status Release(const RoutedGrant& grant);

  /// Runs `action` on `shard` under the environment promises listed
  /// (all must live on that shard), optionally releasing them after.
  Result<ActionResultBody> Act(int shard, const ActionBody& action,
                               const std::vector<PromiseId>& environment,
                               bool release_after);

  /// Shard a class routes to under the current topology.
  Result<int> ShardOfClass(const std::string& cls) const {
    return options_.topology.ShardOf(cls);
  }

  FederatedGrantCoordinator* federated() { return federated_.get(); }
  bool crashed() const {
    return federated_ != nullptr && federated_->crashed();
  }

  struct Stats {
    uint64_t fast_path_grants = 0;  ///< Single-shard accepted grants.
    uint64_t federated_grants = 0;  ///< Cross-shard accepted grants.
    uint64_t rejects = 0;           ///< Either path, shard said no.
  };
  Stats stats() const;

 private:
  friend class FederatedGrantCoordinator;

  /// Builds the routed envelope skeleton for `shard` (from, to,
  /// message id, <route> stamp).
  Envelope RoutedEnvelope(int shard) const;
  Result<Envelope> CallShard(int shard, const Envelope& envelope);

  ShardRouterOptions options_;
  std::unique_ptr<FederatedGrantCoordinator> federated_;
  std::atomic<uint64_t> call_seq_{0};
  IdGenerator<RequestId> request_ids_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace promises

#endif  // PROMISES_SHARD_ROUTER_H_

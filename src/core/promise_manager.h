// The Promise Manager (§2, §8) — the paper's core contribution.
//
// "A promise manager sits between clients and application services and
// implements Promise functionality on behalf of a number of services
// and resource managers. The job of a promise manager is to work with
// application services and resource managers to grant or deny promise
// requests, check on resource availability and ensure that promises are
// not violated."
//
// Faithful to the §8 prototype:
//  * every client request (grant / action / release / update) is
//    processed inside one local ACID transaction covering the action
//    code, the promise-table changes and the post-action consistency
//    check;
//  * actions that violate unreleased promises are rolled back and the
//    client receives a failure;
//  * promise expiry is swept lazily at the start of each operation (and
//    on demand via ExpireDue);
//  * the three §4 atomicity units are honoured: multi-predicate
//    requests grant all-or-nothing, <environment release-after> binds a
//    release to its action's success, and release_on_grant performs
//    atomic promise update (old promises return only if the new ones
//    are granted... and are kept when the new request is rejected).
//
// Concurrency model (striped operation locking)
// ---------------------------------------------
// Operations no longer serialize on a single per-manager lock. Each
// operation plans the set of resource classes its predicates, promise
// environment and action parameters touch, then acquires through the
// 2PL lock manager:
//
//   "pm:<name>"            kShared   (intention; kExclusive for
//                                     whole-manager operations)
//   "pm:<name>/c:<cls>"    kExclusive, in sorted class order
//
// The planned class set is closed under federation (virtual class <->
// members, both directions) and under due-promise overlap, so expiry
// sweeping and engine side effects stay inside the held stripes. A
// service that touches an unplanned class acquires its stripe lazily
// through the ActionContext helpers — out of the deterministic order,
// so the lock manager's deadlock detection may abort the action (the
// operation rolls back, §8 style). Whole-manager operations
// (ReportExternalDamage / ReportInstanceLost / ExpireDue) take the
// root key exclusively instead. Post-action verification covers the
// held stripes plus any class the action wrote through the resource
// manager behind the manager's back (derived from the transaction's
// exclusive resource keys).
//
// Logged operations keep their stripe scope: durability no longer
// forces whole-manager serialization. Each operation enqueues its log
// record at OperationLog's sequencing point BEFORE committing (i.e.
// before its stripe locks release), so log-append order is a valid
// serialization order — any two conflicting operations ordered by 2PL
// are log-ordered the same way, and non-conflicting striped
// operations commute. The durable ack (group commit) is awaited AFTER
// the commit, off the critical section. Records carry the promise id
// they consumed, so replay reproduces ids even though concurrent
// allocation order may differ from log order.

#ifndef PROMISES_CORE_PROMISE_MANAGER_H_
#define PROMISES_CORE_PROMISE_MANAGER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/oplog.h"
#include "core/promise.h"
#include "core/promise_table.h"
#include "core/service_api.h"
#include "protocol/message.h"
#include "protocol/transport.h"
#include "resource/resource_manager.h"
#include "txn/transaction.h"

namespace promises {

struct PromiseManagerConfig {
  /// Transport endpoint name of this manager.
  std::string name = "promise-manager";
  /// Duration used when a request asks for 0 (unspecified).
  DurationMs default_duration_ms = 60'000;
  /// Upper bound; the manager "might offer a guarantee that expires
  /// sooner than the client wished" (§6).
  DurationMs max_duration_ms = 3'600'000;
  /// §5 technique per resource class.
  TechniquePolicy policy = TechniquePolicy::Heuristic();
  /// §2: "the restrictions could be enforced to some degree by promise
  /// and resource managers". When true, actions may only consume
  /// resources under a covering environment promise — unprotected
  /// TakeQuantity is refused instead of being caught (or not) by the
  /// post-action check. Reads and deposits remain free.
  bool strict_actions = false;
  /// How long a queued request (§6's 'pending' result, implemented by
  /// RequestPromiseOrQueue) waits for resources to free before it is
  /// finally rejected.
  DurationMs pending_patience_ms = 60'000;
  /// Federated-cluster shard guard (DESIGN.md §13). When shard_index
  /// is >= 0, Handle() validates any <route> header on the inbound
  /// envelope: the stamped shard must equal shard_index and the
  /// stamped topology version must equal topology_version, otherwise
  /// the request fails kFailedPrecondition before touching the dedup
  /// table or any lock stripe — a router holding a stale (or newer)
  /// topology must re-plan, not land on the wrong shard's books.
  /// Envelopes without a <route> header pass untouched (unrouted
  /// single-manager traffic). -1 disables the guard entirely.
  int32_t shard_index = -1;
  uint64_t topology_version = 0;
  /// Exactly-once processing: Handle keeps the reply envelopes of the
  /// most recent `dedup_capacity` completed requests, keyed by
  /// (sender, message id), and replays the cached reply when the same
  /// message arrives again — so an at-least-once client (retries after
  /// lost requests/replies, duplicate deliveries) observes each request
  /// processed exactly once. FIFO-evicted; 0 disables deduplication.
  size_t dedup_capacity = 4096;
};

/// Outcome of a promise request — a normal value, not an error (§9:
/// "unfulfillable promise requests are rejected immediately").
struct GrantOutcome {
  bool accepted = false;
  PromiseId promise_id;
  DurationMs duration_ms = 0;
  std::string reason;
  /// §6 "accepted with the condition XX": when a rejected request's
  /// quantity/property predicates have a weaker variant that is
  /// currently grantable, this carries the strongest such predicate
  /// list (textual form) as a counter-offer. Empty when no weaker
  /// variant exists (including any named predicate in the bundle).
  /// Exact for single-predicate requests; best-effort for
  /// multi-predicate ones, and conservative for atomic updates
  /// (computed with the handbacks still held).
  std::string counter_offer;
  /// Promise id the request consumed from the generator, including on
  /// rejections that happened after allocation (resource shortfall).
  /// Invalid (0) when the request was rejected before allocating.
  /// Persisted in the operation log so replay can pin the generator.
  PromiseId consumed_id;
};

/// Outcome of an application action executed through the manager.
struct ActionOutcome {
  bool ok = false;
  std::string error;
  std::map<std::string, Value> outputs;
};

struct PromiseManagerStats {
  uint64_t requests = 0;
  uint64_t granted = 0;
  uint64_t rejected = 0;
  uint64_t released = 0;
  uint64_t expired = 0;
  uint64_t updates = 0;             ///< release_on_grant exchanges
  uint64_t actions = 0;
  uint64_t action_failures = 0;
  uint64_t violations_rolled_back = 0;
  uint64_t expired_use_errors = 0;  ///< §2 'promise-expired' errors
  uint64_t promises_broken = 0;     ///< broken by external events (§2)
  uint64_t duplicates_replayed = 0; ///< replies served from the dedup table
  uint64_t deadline_sheds = 0;      ///< dead-on-arrival requests refused
};

/// The lock-manager stripes one operation holds: the root intention key
/// (kShared, or kExclusive for whole-manager operations) plus one
/// exclusive stripe per resource class. The class set is closed under
/// federation, so engine side effects on member classes stay covered.
struct LockScope {
  bool whole_manager = false;
  std::set<std::string> classes;

  bool Covers(const std::string& cls) const {
    return whole_manager || classes.count(cls) > 0;
  }
  bool CoversAll(const std::vector<std::string>& cls_list) const {
    if (whole_manager) return true;
    for (const std::string& c : cls_list) {
      if (classes.count(c) == 0) return false;
    }
    return true;
  }
};

class PromiseManager {
 public:
  /// `transport` may be null for purely in-process use; when provided,
  /// the manager registers itself under `config.name` and unregisters
  /// on destruction.
  PromiseManager(PromiseManagerConfig config, Clock* clock,
                 ResourceManager* rm, TransactionManager* tm,
                 Transport* transport = nullptr);
  ~PromiseManager();

  PromiseManager(const PromiseManager&) = delete;
  PromiseManager& operator=(const PromiseManager&) = delete;

  // --- Direct (in-process) API ---
  // Envelope builders over the operation path Handle and replay run.

  /// Requests promises for all `predicates` atomically (§4).
  /// `release_on_grant` promises are handed back in the same atomic
  /// unit — the §4 upgrade/weaken primitive. `duration_ms` 0 selects
  /// the configured default.
  Result<GrantOutcome> RequestPromise(
      ClientId client, std::vector<Predicate> predicates,
      DurationMs duration_ms = 0,
      std::vector<PromiseId> release_on_grant = {});

  /// Releases promises explicitly. Releasing an unknown/expired id is
  /// reported in the Status but others in the batch still release.
  Status Release(ClientId client, const std::vector<PromiseId>& ids);

  /// Executes an application action under `env` (§8 flow: validate
  /// environment, run service, process release-after, verify touched
  /// promises, commit or roll back).
  Result<ActionOutcome> Execute(ClientId client, const ActionBody& action,
                                const EnvironmentHeader& env = {});

  // --- Pending requests (§6: "Promise responses could also return
  // other results, such as 'pending'") ---

  /// Ticket identifying a queued promise request.
  using PendingTicket = uint64_t;

  struct QueuedOutcome {
    /// Granted immediately (outcome valid) or queued (ticket valid).
    bool queued = false;
    GrantOutcome outcome;
    PendingTicket ticket = 0;
  };

  /// Like RequestPromise, but a currently-ungrantable request joins a
  /// FIFO wait queue instead of being rejected. Queued requests are
  /// retried whenever resources may have freed (releases, expiry,
  /// actions) and lapse after `pending_patience_ms`.
  Result<QueuedOutcome> RequestPromiseOrQueue(
      ClientId client, std::vector<Predicate> predicates,
      DurationMs duration_ms = 0);

  /// Resolution state of a queued request: `queued` while waiting;
  /// otherwise the final outcome (granted, or rejected after patience
  /// ran out). Resolved tickets are consumed by the poll.
  Result<QueuedOutcome> PollPending(ClientId client, PendingTicket ticket);

  /// Withdraws a queued request.
  Status CancelPending(ClientId client, PendingTicket ticket);

  size_t pending_requests() const {
    std::lock_guard<std::mutex> lk(pending_mu_);
    return pending_.size();
  }

  // --- Protocol entry point (§6) ---

  /// Handles one envelope that may combine a <promise-request>,
  /// <release>, <environment> and <action>; returns the reply envelope
  /// with the corresponding <promise-response> / <action-result>.
  ///
  /// Exactly-once: a request whose (from, message id) was already
  /// processed returns the original cached reply without re-executing
  /// (and without re-logging), so client retries and duplicate
  /// deliveries are harmless. A duplicate of a request still in flight
  /// on another thread (its durable wait included) fails with
  /// kUnavailable (retryable) rather than racing it or seeing a reply
  /// that is not durable yet. Envelopes with message id 0 bypass
  /// deduplication.
  Result<Envelope> Handle(const Envelope& request);

  /// Stable ClientId for a protocol-level sender name.
  ClientId ClientFor(const std::string& name);

  // --- Epoch-batched execution (DESIGN.md §14) ---
  //
  // The facade core/epoch_executor.h drives. An epoch owns the whole
  // manager (root key exclusive) for its duration; every batched
  // envelope then executes on a pre-serialized transaction that skips
  // the lock manager entirely — the epoch's class partitioning is the
  // serialization guarantee (lock-free within a partition). Durability
  // is batched too: HandleInEpoch returns each operation's log
  // sequence instead of awaiting it, and the executor waits once per
  // epoch on the maximum before completing any reply.

  /// Outcome of one batched envelope.
  struct EpochOpResult {
    Result<Envelope> reply = Status::Internal("not executed");
    /// The operation's planned or runtime class closure escaped the
    /// partition it was assigned to; nothing committed or logged. The
    /// executor must re-run it in the epoch's serial phase.
    bool partition_miss = false;
    /// Log sequence of the operation's record; 0 when nothing was
    /// logged. The epoch waits once on the max over the batch.
    uint64_t log_sequence = 0;
  };

  /// Takes the whole manager exclusively for an epoch (a real
  /// transaction through the lock manager, so in-flight striped
  /// traffic drains first and the fuzzy-capture hooks fire). Commit
  /// the returned transaction to end the epoch.
  Result<std::unique_ptr<Transaction>> AcquireEpoch();

  /// Planned class closure of `request` — what the epoch sealer
  /// partitions on. Recomputed (and re-checked) at execution time, so
  /// a stale plan degrades to a partition miss, never to a race.
  std::set<std::string> PlanEnvelopeClasses(const Envelope& request) const;

  /// Executes one envelope inside an epoch (the caller holds the
  /// epoch transaction). `allowed` restricts the operation's runtime
  /// closure to the worker's partition classes; nullptr (the serial
  /// phase) allows everything.
  EpochOpResult HandleInEpoch(const Envelope& request,
                              const std::set<std::string>* allowed);

  /// Waits for every log record up to `max_sequence` to be durable —
  /// the epoch's single group-commit wait. 0 is a no-op; on failure
  /// the log is detached exactly like the per-operation path.
  Status WaitEpochDurable(uint64_t max_sequence);

  // --- Configuration ---

  void RegisterService(const std::string& name, ServiceFn fn);

  /// Marks `cls` as delegated to the promise maker at transport
  /// endpoint `upstream` (§5 Delegation). Requires a transport.
  Status DelegateClass(const std::string& cls, const std::string& upstream);

  /// Declares `virtual_cls` as the federation of existing instance
  /// classes (§3.3 polymorphic providers): property predicates over
  /// the virtual class are backed by instances of any member whose
  /// schema exports the predicate's properties.
  Status FederateClass(const std::string& virtual_cls,
                       std::vector<std::string> members);

  // --- External violations (§2) ---
  //
  // "Promise violation is still possible for other reasons (an accident
  // might damage previously-promised stock or a third party may default
  // on a promise they have made) but these incidents can now be treated
  // as serious exceptions."

  /// Invoked (outside the operation transaction) for each promise the
  /// manager had to break because of an external event.
  using ViolationHandler =
      std::function<void(const PromiseRecord&, const std::string& reason)>;
  void SetViolationHandler(ViolationHandler handler) {
    violation_handler_ = std::move(handler);
  }

  /// Records that `quantity_lost` units of pool `cls` were destroyed by
  /// an external event. Unlike a client action, the loss is reality and
  /// is NOT rolled back; instead, promises are broken (newest first)
  /// until the remaining set is honourable again. Returns the broken
  /// promise ids. Whole-manager operation: takes the root key
  /// exclusively (the broken-promise hunt may widen to any class).
  Result<std::vector<PromiseId>> ReportExternalDamage(const std::string& cls,
                                                      int64_t quantity_lost);

  /// Records that a specific instance was destroyed/withdrawn. The
  /// instance is marked taken; promises that can no longer be backed
  /// are broken and returned. Whole-manager operation.
  Result<std::vector<PromiseId>> ReportInstanceLost(const std::string& cls,
                                                    const std::string& id);

  // --- Durability (§8's ACID 'D', substituting the prototype's DBMS) ---

  /// Attaches an operation log: every subsequent state-changing client
  /// operation (request / release / action / external event) is
  /// appended, making the manager recoverable with ReplayLog. Logged
  /// operations keep their striped lock scope; each record is enqueued
  /// at the log's sequencing point before the operation's commit, so
  /// append order is a valid serialization order, and each record
  /// carries the promise id it consumed so replay reproduces ids
  /// exactly (see the file header). When the log has a group-commit
  /// writer running, the durable ack is awaited after commit; on
  /// append/durability failure the log is detached (counted by the
  /// promises_oplog_detached_total metric) and the failing operation
  /// returns kDataLoss — its in-memory effect stands, but it is not in
  /// the log. Not supported for managers with delegated classes
  /// (distributed recovery is out of scope; see DESIGN.md) or with
  /// requests already queued as pending.
  Status AttachLog(OperationLog* log);

  /// Replays a recovered log against this (freshly constructed)
  /// manager: the same resource definitions must already be in the RM,
  /// and `clock` must be the manager's own SimulatedClock, which is
  /// advanced to each record's timestamp so expiry decisions replay
  /// identically. Must be called before AttachLog.
  Status ReplayLog(const std::vector<LogRecord>& records,
                   SimulatedClock* clock);

  /// ReplayLog with `workers` threads. Records are partitioned into
  /// connected components over shared resource classes / promise ids;
  /// independent components replay concurrently (each in log order,
  /// with the record's timestamp pinned thread-locally). Whole-manager
  /// records (external damage, ExpireDue-style) act as barriers.
  /// `workers` <= 1 falls back to the sequential ReplayLog.
  Status ReplayLogParallel(const std::vector<LogRecord>& records,
                           SimulatedClock* clock, int workers);

  // --- Checkpointing (bounded recovery; see core/checkpoint.h) ---

  /// Captures a fuzzy checkpoint at a cut LSN chosen under a momentary
  /// root-exclusive barrier. Requires an attached log (the cut is the
  /// log's sequencing point). The sweep runs per-stripe while normal
  /// traffic continues; concurrent operations copy-on-read any
  /// still-pending class before touching it. Retries a bounded number
  /// of times if a raw resource-manager write poisons the capture.
  Result<CheckpointData> CaptureCheckpoint();

  /// Restores a checkpoint into this freshly constructed manager (same
  /// contract as ReplayLog: resource definitions, federations and
  /// services must already be registered; call before AttachLog).
  /// Advances `clock` to the capture timestamp and pins the promise-id
  /// generator past the watermark so tail replay reproduces ids.
  Status RestoreCheckpoint(const CheckpointData& data, SimulatedClock* clock);

  // --- Maintenance & introspection ---

  /// Sweeps promises whose deadline passed; returns how many expired.
  /// Whole-manager operation (covers every class).
  size_t ExpireDue();

  /// Promise still in the table (active), or nullptr. Not synchronized
  /// with concurrent operations; intended for quiesced inspection.
  const PromiseRecord* FindPromise(PromiseId id) const;

  size_t active_promises() const { return table_.size(); }
  PromiseManagerStats stats() const;
  const std::string& name() const { return config_.name; }

  /// Engine guarding `cls` if one has been created yet.
  ResourceEngine* EngineIfExists(const std::string& cls);

  /// Human-readable dump of the promise table and engine assignments
  /// (ops/debug tooling; quiesced use only).
  std::string DumpState() const;

 private:
  friend class ActionContext;

  std::string RootKey() const { return "pm:" + config_.name; }
  std::string StripeKey(const std::string& cls) const {
    return "pm:" + config_.name + "/c:" + cls;
  }

  /// Begins the per-request ACID transaction and acquires the
  /// operation's lock scope: root intention key plus one exclusive
  /// stripe per planned class (closed under federation and due-promise
  /// overlap), in deterministic sorted order. `whole_manager` (forced
  /// while a log is attached) takes the root key exclusively instead.
  Result<std::unique_ptr<Transaction>> BeginOperation(
      LockScope* scope, std::set<std::string> classes,
      bool whole_manager = false);

  /// Closes `classes` under federation: virtual class -> members (its
  /// engine marks instances there) and member -> virtual classes (an
  /// action damaging a member must re-verify the virtual engine).
  void ExpandClasses(std::set<std::string>* classes) const;

  /// Adds the classes of due promises whose class set overlaps
  /// `classes` (to fixpoint), so the lazy expiry sweep can remove them
  /// entirely inside the held stripes.
  void AddDueClasses(std::set<std::string>* classes) const;

  /// ExpandClasses + AddDueClasses to a joint fixpoint.
  void PlanClosure(std::set<std::string>* classes) const;

  /// Acquires `cls`'s stripe (and its federation closure) if the scope
  /// does not already cover it. Late, out-of-plan acquisition: may be
  /// refused with kDeadlock by cycle detection.
  Status EnsureClassLocked(Transaction* txn, LockScope* scope,
                           const std::string& cls);

  Result<ResourceEngine*> EngineFor(const std::string& cls);

  // --- Fuzzy-capture hooks (CaptureCheckpoint) ---

  /// Fast-path hook at the end of BeginOperation: while a capture is
  /// active, copies every still-pending class the scope covers (all
  /// pending classes for whole-manager scopes) into the checkpoint
  /// before the operation can mutate them. Lock-free when no capture
  /// is running.
  void CaptureScopeClasses(const LockScope& scope);

  /// Same hook for late stripe acquisition (EnsureClassLocked): caller
  /// just acquired `cls`'s stripe and has not yet mutated it.
  void CaptureClassIfPending(const std::string& cls);

  /// Marks the active capture unusable (raw resource-manager write to
  /// an uncaptured class, or an export failure); CaptureCheckpoint
  /// discards it and retries with a fresh cut.
  void PoisonCapture(const std::string& reason);

  /// Copies `cls`'s at-cut state (pool quantity / instances / promise
  /// records / engine blob) into the capture and removes it from the
  /// pending set. Caller holds capture_mu_ AND cls's stripe.
  void CaptureClassLocked(const std::string& cls);

  /// Every class a capture must cover: pool + instance classes, plus
  /// classes referenced by promises or engines (federated virtuals).
  std::set<std::string> CheckpointClasses() const;

  /// Lazy expiry sweep inside an operation: expires the due promises
  /// whose classes the scope fully covers (uncovered ones belong to
  /// other operations or the whole-manager ExpireDue).
  Status ExpireDueLocked(Transaction* txn, const LockScope& scope);

  /// Grant path. On logical rejection, rolls the transaction back to
  /// the undo mark so the operation can continue (reply still sent).
  /// Requires the scope to cover every predicate/handback class.
  Result<GrantOutcome> GrantLocked(Transaction* txn, ClientId client,
                                   std::vector<Predicate> predicates,
                                   DurationMs duration_ms,
                                   const std::vector<PromiseId>& handbacks);

  /// Releases one promise: engine unreserve + table removal (undoable).
  Status ReleaseOneLocked(Transaction* txn, PromiseId id,
                          PromiseState final_state);

  /// §8 post-step over every existing engine (whole-manager paths).
  Status VerifyAllLocked(Transaction* txn);

  /// §8 post-step, scoped: verifies the engines of the held stripes
  /// plus any class the transaction wrote through the resource manager
  /// (exclusive "pool:"/"class:" keys), late-locking the latter.
  Status VerifyTouchedLocked(Transaction* txn, LockScope* scope);

  /// Action path including release-after and verification.
  Result<ActionOutcome> ExecuteLocked(Transaction* txn, LockScope* scope,
                                      ClientId client,
                                      const ActionBody& action,
                                      const EnvironmentHeader& env);

  /// Idempotency-table key: sender's protocol name + message id.
  using DedupKey = std::pair<std::string, uint64_t>;

  /// Thread-local context set while HandleInEpoch runs on this
  /// thread: switches BeginOperation to pre-serialized transactions,
  /// arms the partition guard in BeginOperation/EnsureClassLocked,
  /// and defers the durable wait to the epoch's group wait.
  struct EpochTls {
    const std::set<std::string>* allowed = nullptr;
    bool miss = false;
    uint64_t log_sequence = 0;
  };
  static thread_local EpochTls* tls_epoch_;

  /// Classes an envelope's parts reference (pre-closure); the shared
  /// planning step of HandleInner and PlanEnvelopeClasses.
  std::set<std::string> PlanEnvelope(const Envelope& request) const;

  /// What a direct-API builder reads back besides the reply envelope.
  struct DirectOutcome {
    std::string release_problems;  ///< " <id> <why>;" per unreleased id
    Status durable;                ///< durable ack (kDataLoss when lost)
    PromiseId consumed_id;         ///< GrantOutcome::consumed_id
  };

  /// The one operation path for client envelopes, run on behalf of
  /// `client`; Handle adds the idempotency layer in front. When
  /// `dedup_key` is non-null, the reply is inserted into the
  /// completed-dedup table at the operation's log sequencing point
  /// (inside the stripe locks), tagged with the record's LSN — so a
  /// checkpoint's LSN filter sees exactly the replies at its cut.
  /// `direct` (non-null for the direct API) collects release problems
  /// and the durable-ack status the reply envelope cannot carry.
  Result<Envelope> HandleInner(const Envelope& request, ClientId client,
                               const DedupKey* dedup_key,
                               DirectOutcome* direct = nullptr);

  /// Envelope a direct-API call logs: message id 0 (exempt from dedup
  /// on replay), from = the client's registered name.
  Envelope DirectEnvelope(ClientId client);

  /// Inserts a binary-encoded reply into the dedup table, evicting FIFO
  /// past capacity; false if the key is present. Caller holds
  /// dedup_mu_.
  bool RememberReplyLocked(const DedupKey& key, std::string encoded_reply,
                           uint64_t lsn);

  /// Re-executes one log record: an envelope through Handle (`parsed`
  /// when the caller already decoded it), or an external event.
  Status ReplayRecord(const std::string& payload, const Envelope* parsed);

  /// Shared tail of the ReportExternal* entry points: breaks promises
  /// on `cls` (newest first) until every engine verifies again, logs
  /// `log_payload` at the sequencing point (when a log is attached),
  /// then commits, notifies the violation handler and awaits the
  /// durable ack.
  Result<std::vector<PromiseId>> BreakUntilConsistent(
      std::unique_ptr<Transaction> txn, const std::string& cls,
      const std::string& reason, const std::string& log_payload);

  /// Adds the predicate classes of promise `id` (if still present) to
  /// `classes` — lock planning for handbacks / releases / environments.
  void AddPromiseClasses(std::set<std::string>* classes, PromiseId id) const;

  /// Lock-planning heuristic for actions: any string parameter naming a
  /// known resource class is assumed touched (well-behaved services
  /// address resources by class-name parameters; ill-behaved ones fall
  /// back to lazy locking and the post-action write check).
  void AddActionClasses(std::set<std::string>* classes,
                        const ActionBody& action) const;

  bool IsDelegated(const std::string& cls) const;
  bool IsFederated(const std::string& cls) const;

  PromiseManagerConfig config_;
  Clock* clock_;
  ResourceManager* rm_;
  TransactionManager* tm_;
  Transport* transport_;

  // Synchronization map (see file header for the lock-ordering policy):
  //  * promise/engine/resource *state* is guarded by the lock-manager
  //    stripes an operation holds (LockScope);
  //  * table_ additionally guards its own map structure internally;
  //  * engines_mu_ guards the engines_ map shape (engine objects are
  //    guarded by their class stripe; creation is serialized because
  //    EngineFor(cls) is only called while holding cls's stripe);
  //  * config_mu_ guards delegated_/federated_/member_to_virtual_/
  //    services_ registration maps;
  //  * pending_mu_ guards the pending-request queue and fulfilled map;
  //  * client_mu_ guards the client-name registry.
  // All of these are leaf mutexes: nothing acquires a lock-manager key
  // or another mutex while holding one.
  PromiseTable table_;
  mutable std::mutex engines_mu_;
  std::map<std::string, std::unique_ptr<ResourceEngine>> engines_;
  mutable std::mutex config_mu_;
  std::map<std::string, std::string> delegated_;  // class -> upstream
  std::map<std::string, std::vector<std::string>> federated_;
  // instance class -> virtual classes federating over it.
  std::map<std::string, std::vector<std::string>> member_to_virtual_;
  std::map<std::string, ServiceFn> services_;
  std::map<std::string, ClientId> client_ids_;  // guarded by client_mu_

  IdGenerator<PromiseId> promise_ids_;
  IdGenerator<ClientId> client_id_gen_;

  /// Handle to an in-flight log append: produced by LogOperation at
  /// the sequencing point (before the operation commits), redeemed by
  /// AwaitLogDurable after the commit releases the stripe locks.
  struct LogTicket {
    OperationLog* log = nullptr;  ///< null: nothing was logged
    uint64_t sequence = 0;
    Status enqueue_error;  ///< append refused/failed at the sequencing point
  };

  /// Enqueues `payload` at the attached log's sequencing point (no-op
  /// ticket when detached / replaying). `consumed` is the promise id
  /// the operation allocated, if any. Call before txn->Commit() so log
  /// order matches serialization order.
  LogTicket LogOperation(const std::string& payload,
                         PromiseId consumed = PromiseId());
  /// Waits for the ticket's record to be durable. On failure detaches
  /// the log (once, with a metrics counter + error span) and returns
  /// kDataLoss: the operation's in-memory effect stands but did not
  /// reach the log. OK for empty tickets.
  Status AwaitLogDurable(const LogTicket& ticket);
  /// Detaches `expected` (idempotent CAS) after a durability failure.
  void DetachLog(OperationLog* expected, const Status& cause);
  /// Name under which `client` was registered (the `from` of the
  /// envelopes direct-API calls build).
  const std::string& NameOf(ClientId client);

  /// Retries queued requests inside the current operation: claims the
  /// entries whose classes the scope covers (plus lapsed ones), grants
  /// or re-queues them in ticket (FIFO) order.
  Status DrainPendingScoped(Transaction* txn, const LockScope& scope);

  /// Lock planning for a still-queued `ticket`'s predicate classes.
  void AddTicketClasses(std::set<std::string>* classes,
                        PendingTicket ticket) const;

  /// Consumes a fulfilled `ticket` or reports it still queued;
  /// kFailedPrecondition for another client's, kNotFound if unknown.
  Result<QueuedOutcome> TakeTicket(ClientId client, PendingTicket ticket);

  ViolationHandler violation_handler_;
  // Atomic: read lock-free on every operation's fast path and cleared
  // by whichever concurrent operation first observes a durability
  // failure (DetachLog CAS).
  std::atomic<OperationLog*> oplog_{nullptr};
  // Client registry has its own mutex: ClientFor is called from client
  // threads outside the operation locks.
  mutable std::mutex client_mu_;
  std::map<ClientId, std::string> client_names_;

  struct PendingRequest {
    PendingTicket ticket;
    ClientId client;
    std::vector<Predicate> predicates;
    DurationMs duration_ms;
    Timestamp patience_deadline;
  };
  mutable std::mutex pending_mu_;
  std::vector<PendingRequest> pending_;  // FIFO (ticket order)
  std::map<PendingTicket, std::pair<ClientId, GrantOutcome>> fulfilled_;
  uint64_t next_ticket_ = 1;

  // Idempotency table (exactly-once processing). Keyed by the sender's
  // protocol name + message id; holds the full reply envelope so a
  // retry gets a byte-identical answer (same promise id, same result).
  // Repopulated by ReplayLog, since replay drives the same Handle path
  // — dedup therefore survives crash recovery. dedup_mu_ is a leaf
  // mutex, never held across a whole HandleInner call (HandleInner
  // takes it briefly at its sequencing point).
  struct DedupEntry {
    /// The reply, binary-encoded: about a tenth of an Envelope's
    /// footprint (688 bytes inline plus its strings), and the table
    /// holds dedup_capacity of them. Replays decode it.
    std::string reply;
    /// LSN of the operation that produced the reply; 0 when it predates
    /// the log (no-log path, restored legacy entries).
    uint64_t lsn = 0;
  };
  mutable std::mutex dedup_mu_;
  std::map<DedupKey, DedupEntry> dedup_completed_;
  std::deque<DedupKey> dedup_fifo_;  // insertion order, for eviction
  std::set<DedupKey> dedup_in_progress_;

  // Fuzzy-capture state. capture_active_ is the lock-free fast-path
  // flag the hooks check on every operation; capture_mu_ guards the
  // rest. Lock order: operations take capture_mu_ while holding their
  // class stripes, and CaptureClassLocked reads engines_/table_ state
  // while holding capture_mu_ — so capture_mu_ orders BEFORE
  // engines_mu_ and the table's internal lock, and nothing may take
  // capture_mu_ while holding either of those.
  std::atomic<bool> capture_active_{false};
  mutable std::mutex capture_mu_;
  struct CaptureState {
    bool active = false;
    bool poisoned = false;
    std::string poison_reason;
    uint64_t cut_lsn = 0;
    std::set<std::string> pending;  ///< classes not yet captured
    std::unique_ptr<CheckpointData> data;
  };
  CaptureState capture_;

  struct AtomicStats {
    std::atomic<uint64_t> requests{0}, granted{0}, rejected{0}, released{0},
        expired{0}, updates{0}, actions{0}, action_failures{0},
        violations_rolled_back{0}, expired_use_errors{0},
        promises_broken{0}, duplicates_replayed{0}, deadline_sheds{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace promises

#endif  // PROMISES_CORE_PROMISE_MANAGER_H_

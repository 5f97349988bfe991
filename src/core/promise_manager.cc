#include "core/promise_manager.h"

#include <algorithm>
#include <thread>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/delegation_engine.h"
#include "core/federated_engine.h"
#include "core/pool_engine.h"
#include "core/satisfiability_engine.h"
#include "core/tag_engine.h"
#include "core/tentative_engine.h"
#include "predicate/evaluator.h"

namespace promises {

namespace {

// Parallel tail replay re-executes records on worker threads; each
// record must consume the exact promise id it consumed originally even
// though the generator would hand ids out in worker-arrival order.
// A worker pins the record's id here before calling Handle; GrantLocked
// consumes it instead of the generator. Thread-local, so concurrent
// workers cannot steal each other's ids.
thread_local uint64_t tls_forced_promise_id = 0;

// Maps a direct call's <promise-response> back to its GrantOutcome.
GrantOutcome ToGrantOutcome(PromiseResponseHeader&& resp, PromiseId consumed) {
  GrantOutcome out;
  out.accepted = resp.result == PromiseResultCode::kAccepted;
  out.promise_id = resp.promise_id;
  out.duration_ms = resp.granted_duration_ms;
  out.reason = std::move(resp.reason);
  out.counter_offer = std::move(resp.counter_offer);
  out.consumed_id = consumed;
  return out;
}

}  // namespace

thread_local PromiseManager::EpochTls* PromiseManager::tls_epoch_ = nullptr;

PromiseManager::PromiseManager(PromiseManagerConfig config, Clock* clock,
                               ResourceManager* rm, TransactionManager* tm,
                               Transport* transport)
    : config_(std::move(config)),
      clock_(clock),
      rm_(rm),
      tm_(tm),
      transport_(transport) {
  if (transport_ != nullptr) {
    transport_->Register(config_.name, [this](const Envelope& request) {
      return Handle(request);
    });
  }
}

PromiseManager::~PromiseManager() {
  if (transport_ != nullptr) transport_->Unregister(config_.name);
}

bool PromiseManager::IsDelegated(const std::string& cls) const {
  std::lock_guard<std::mutex> lk(config_mu_);
  return delegated_.count(cls) > 0;
}

bool PromiseManager::IsFederated(const std::string& cls) const {
  std::lock_guard<std::mutex> lk(config_mu_);
  return federated_.count(cls) > 0;
}

void PromiseManager::ExpandClasses(std::set<std::string>* classes) const {
  std::lock_guard<std::mutex> lk(config_mu_);
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::string> add;
    for (const std::string& cls : *classes) {
      auto fit = federated_.find(cls);
      if (fit != federated_.end()) {
        for (const std::string& member : fit->second) {
          if (classes->count(member) == 0) add.push_back(member);
        }
      }
      auto vit = member_to_virtual_.find(cls);
      if (vit != member_to_virtual_.end()) {
        for (const std::string& virt : vit->second) {
          if (classes->count(virt) == 0) add.push_back(virt);
        }
      }
    }
    for (std::string& cls : add) {
      if (classes->insert(std::move(cls)).second) changed = true;
    }
  }
}

void PromiseManager::AddDueClasses(std::set<std::string>* classes) const {
  if (classes->empty()) return;
  std::vector<std::vector<std::string>> due;
  for (PromiseId id : table_.DueIds(clock_->Now())) {
    if (auto cls = table_.ClassesOf(id)) due.push_back(std::move(*cls));
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const std::vector<std::string>& cls_list : due) {
      bool overlaps = false;
      for (const std::string& cls : cls_list) {
        if (classes->count(cls)) {
          overlaps = true;
          break;
        }
      }
      if (!overlaps) continue;
      for (const std::string& cls : cls_list) {
        if (classes->insert(cls).second) changed = true;
      }
    }
  }
}

void PromiseManager::PlanClosure(std::set<std::string>* classes) const {
  size_t before;
  do {
    before = classes->size();
    ExpandClasses(classes);
    AddDueClasses(classes);
  } while (classes->size() != before);
}

Result<std::unique_ptr<Transaction>> PromiseManager::BeginOperation(
    LockScope* scope, std::set<std::string> classes, bool whole_manager) {
  // Logged managers keep the striped scope: log order is fixed at the
  // OperationLog sequencing point, reached before the commit releases
  // these locks, so it remains a valid serialization order without
  // whole-manager exclusion (see the file header).
  // Inside an epoch the executor's partitioning is the serialization
  // guarantee: the transaction skips the lock manager entirely (its
  // Lock() calls only record the write set) and the planned closure is
  // checked against the partition instead — escaping it is a miss the
  // executor retries in the epoch's serial phase.
  std::unique_ptr<Transaction> txn =
      tls_epoch_ != nullptr ? tm_->BeginPreSerialized() : tm_->Begin();
  if (whole_manager) {
    PROMISES_RETURN_IF_ERROR(txn->Lock(RootKey(), LockMode::kExclusive));
    scope->whole_manager = true;
    CaptureScopeClasses(*scope);
    return txn;
  }
  PlanClosure(&classes);
  if (tls_epoch_ != nullptr && tls_epoch_->allowed != nullptr) {
    for (const std::string& cls : classes) {
      if (tls_epoch_->allowed->count(cls) == 0) {
        tls_epoch_->miss = true;
        return Status::Unavailable("epoch partition miss on class '" + cls +
                                   "'");
      }
    }
  }
  // Deterministic order: root first, then stripes sorted by class name
  // (std::set iteration). Keeps planned acquisitions deadlock-free.
  PROMISES_RETURN_IF_ERROR(txn->Lock(RootKey(), LockMode::kShared));
  for (const std::string& cls : classes) {
    PROMISES_RETURN_IF_ERROR(
        txn->Lock(StripeKey(cls), LockMode::kExclusive));
  }
  scope->classes = std::move(classes);
  // Copy-on-read for an in-flight fuzzy capture: any still-pending
  // class in this scope is snapshotted now, before the operation can
  // mutate it (see CaptureCheckpoint).
  CaptureScopeClasses(*scope);
  return txn;
}

Status PromiseManager::EnsureClassLocked(Transaction* txn, LockScope* scope,
                                         const std::string& cls) {
  if (scope->Covers(cls)) return Status::OK();
  std::set<std::string> add{cls};
  ExpandClasses(&add);
  for (const std::string& c : add) {
    if (scope->Covers(c)) continue;
    if (tls_epoch_ != nullptr && tls_epoch_->allowed != nullptr &&
        tls_epoch_->allowed->count(c) == 0) {
      // Runtime escape from the epoch partition (ill-behaved service
      // touching an unplanned class): the operation must roll back
      // fully and rerun in the serial phase, where it may touch
      // anything.
      tls_epoch_->miss = true;
      return Status::Unavailable("epoch partition miss on class '" + c + "'");
    }
    PROMISES_RETURN_IF_ERROR(txn->Lock(StripeKey(c), LockMode::kExclusive));
    scope->classes.insert(c);
    CaptureClassIfPending(c);
  }
  return Status::OK();
}

void PromiseManager::AddPromiseClasses(std::set<std::string>* classes,
                                       PromiseId id) const {
  if (auto cls = table_.ClassesOf(id)) {
    classes->insert(cls->begin(), cls->end());
  }
}

void PromiseManager::AddActionClasses(std::set<std::string>* classes,
                                      const ActionBody& action) const {
  for (const auto& [name, value] : action.params) {
    (void)name;
    if (!value.is_string()) continue;
    const std::string& cls = value.as_string();
    if (rm_->HasPool(cls) || rm_->HasInstanceClass(cls) ||
        IsFederated(cls) || IsDelegated(cls)) {
      classes->insert(cls);
    }
  }
}

Result<ResourceEngine*> PromiseManager::EngineFor(const std::string& cls) {
  {
    std::lock_guard<std::mutex> lk(engines_mu_);
    auto it = engines_.find(cls);
    if (it != engines_.end()) return it->second.get();
  }
  // Creation is serialized per class because EngineFor(cls) is only
  // called while holding cls's stripe; engines_mu_ protects the map
  // shape against concurrent insertions for other classes.
  EngineContext ctx{rm_, &table_, clock_};
  std::unique_ptr<ResourceEngine> engine;
  bool is_federated = false;
  bool is_delegated = false;
  std::vector<std::string> members;
  std::string upstream;
  {
    std::lock_guard<std::mutex> lk(config_mu_);
    auto fit = federated_.find(cls);
    if (fit != federated_.end()) {
      is_federated = true;
      members = fit->second;
    }
    auto dit = delegated_.find(cls);
    if (dit != delegated_.end()) {
      is_delegated = true;
      upstream = dit->second;
    }
  }
  if (is_federated) {
    engine = std::make_unique<FederatedEngine>(cls, members, ctx);
  } else if (is_delegated) {
    engine = std::make_unique<DelegationEngine>(cls, ctx, transport_,
                                                upstream, config_.name);
  } else {
    bool is_pool = rm_->HasPool(cls);
    bool is_instance = rm_->HasInstanceClass(cls);
    if (!is_pool && !is_instance) {
      return Status::NotFound("resource class '" + cls + "' not found");
    }
    switch (config_.policy.For(cls, is_pool)) {
      case Technique::kSatisfiability:
        engine = std::make_unique<SatisfiabilityEngine>(cls, is_pool, ctx);
        break;
      case Technique::kResourcePool:
        if (!is_pool) {
          return Status::InvalidArgument(
              "resource-pool technique requires a pool class ('" + cls +
              "' is an instance class)");
        }
        engine = std::make_unique<ResourcePoolEngine>(cls, ctx);
        break;
      case Technique::kAllocatedTags:
        if (!is_instance) {
          return Status::InvalidArgument(
              "allocated-tags technique requires an instance class ('" + cls +
              "' is a pool)");
        }
        engine = std::make_unique<AllocatedTagEngine>(cls, ctx);
        break;
      case Technique::kTentative:
        if (!is_instance) {
          return Status::InvalidArgument(
              "tentative technique requires an instance class ('" + cls +
              "' is a pool)");
        }
        engine = std::make_unique<TentativeEngine>(cls, ctx);
        break;
      case Technique::kDelegated:
        return Status::InvalidArgument(
            "class '" + cls +
            "' marked delegated but no upstream configured; call "
            "DelegateClass first");
    }
  }
  std::lock_guard<std::mutex> lk(engines_mu_);
  auto [it, inserted] = engines_.try_emplace(cls, std::move(engine));
  (void)inserted;
  return it->second.get();
}

Status PromiseManager::ExpireDueLocked(Transaction* txn,
                                       const LockScope& scope) {
  Timestamp now = clock_->Now();
  for (PromiseId id : table_.DueIds(now)) {
    auto classes = table_.ClassesOf(id);
    if (!classes) continue;  // removed by a concurrent operation
    // Only expire promises whose every class is inside the held
    // stripes; uncovered ones are another operation's (or the
    // whole-manager ExpireDue's) job. Sound because availability on a
    // class only depends on promises covering that class.
    if (!scope.CoversAll(*classes)) continue;
    PROMISES_RETURN_IF_ERROR(
        ReleaseOneLocked(txn, id, PromiseState::kExpired));
    stats_.expired.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status PromiseManager::DrainPendingScoped(Transaction* txn,
                                          const LockScope& scope) {
  Timestamp now = clock_->Now();
  // Claim eligible entries by extraction so two concurrent drains can
  // never grant the same ticket twice; failures are re-queued below.
  std::vector<PendingRequest> claimed;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (pending_.empty()) return Status::OK();
    std::vector<PendingRequest> keep;
    keep.reserve(pending_.size());
    for (PendingRequest& req : pending_) {
      bool lapsed = now >= req.patience_deadline;
      bool covered = true;
      if (!lapsed && !scope.whole_manager) {
        for (const Predicate& p : req.predicates) {
          if (!scope.Covers(p.resource_class())) {
            covered = false;
            break;
          }
        }
      }
      if (lapsed || covered) {
        claimed.push_back(std::move(req));
      } else {
        keep.push_back(std::move(req));
      }
    }
    pending_ = std::move(keep);
  }
  if (claimed.empty()) return Status::OK();

  Status failure;
  std::vector<PendingRequest> still_waiting;
  for (PendingRequest& req : claimed) {
    if (!failure.ok()) {
      still_waiting.push_back(std::move(req));
      continue;
    }
    if (now >= req.patience_deadline) {
      GrantOutcome out;
      out.accepted = false;
      out.reason = "pending request lapsed after " +
                   std::to_string(config_.pending_patience_ms) + " ms";
      std::lock_guard<std::mutex> lk(pending_mu_);
      fulfilled_[req.ticket] = {req.client, std::move(out)};
      continue;
    }
    Result<GrantOutcome> out =
        GrantLocked(txn, req.client, req.predicates, req.duration_ms, {});
    if (!out.ok()) {
      failure = out.status();
      still_waiting.push_back(std::move(req));
      continue;
    }
    if (out->accepted) {
      std::lock_guard<std::mutex> lk(pending_mu_);
      fulfilled_[req.ticket] = {req.client, std::move(*out)};
    } else {
      // Best-effort FIFO: an ungrantable head does not block smaller
      // requests behind it.
      still_waiting.push_back(std::move(req));
    }
  }
  if (!still_waiting.empty()) {
    std::lock_guard<std::mutex> lk(pending_mu_);
    for (PendingRequest& req : still_waiting) {
      pending_.push_back(std::move(req));
    }
    std::sort(pending_.begin(), pending_.end(),
              [](const PendingRequest& a, const PendingRequest& b) {
                return a.ticket < b.ticket;
              });
  }
  return failure;
}

Result<PromiseManager::QueuedOutcome> PromiseManager::RequestPromiseOrQueue(
    ClientId client, std::vector<Predicate> predicates,
    DurationMs duration_ms) {
  if (oplog_.load(std::memory_order_acquire) != nullptr) {
    // Queued grants fire outside the logged command stream; the two
    // features do not compose in this version.
    return Status::FailedPrecondition(
        "pending requests are not supported with an attached log");
  }
  Envelope request = DirectEnvelope(client);
  PromiseRequestHeader& req = request.promise_request.emplace();
  req.request_id = RequestId(1);
  req.predicates = std::move(predicates);
  req.duration_ms = duration_ms;
  req.queue_if_unavailable = true;
  DirectOutcome direct;
  Result<Envelope> reply = HandleInner(request, client, nullptr, &direct);
  PROMISES_RETURN_IF_ERROR(reply.status());
  PromiseResponseHeader& resp = *reply->promise_response;
  QueuedOutcome result;
  if (resp.result == PromiseResultCode::kPending) {
    result.queued = true;
    result.ticket = resp.pending_ticket;
  } else {
    result.outcome = ToGrantOutcome(std::move(resp), direct.consumed_id);
  }
  return result;
}

void PromiseManager::AddTicketClasses(std::set<std::string>* classes,
                                      PendingTicket ticket) const {
  std::lock_guard<std::mutex> lk(pending_mu_);
  for (const PendingRequest& req : pending_) {
    if (req.ticket != ticket) continue;
    for (const Predicate& p : req.predicates) {
      classes->insert(p.resource_class());
    }
    return;
  }
}

Result<PromiseManager::QueuedOutcome> PromiseManager::TakeTicket(
    ClientId client, PendingTicket ticket) {
  std::lock_guard<std::mutex> lk(pending_mu_);
  QueuedOutcome out;
  auto it = fulfilled_.find(ticket);
  if (it != fulfilled_.end()) {
    if (it->second.first != client) {
      return Status::FailedPrecondition("ticket belongs to another client");
    }
    out.outcome = std::move(it->second.second);
    fulfilled_.erase(it);
    return out;
  }
  for (const PendingRequest& req : pending_) {
    if (req.ticket != ticket) continue;
    if (req.client != client) {
      return Status::FailedPrecondition("ticket belongs to another client");
    }
    out.queued = true;
    out.ticket = ticket;
    return out;
  }
  return Status::NotFound("unknown ticket " + std::to_string(ticket));
}

Result<PromiseManager::QueuedOutcome> PromiseManager::PollPending(
    ClientId client, PendingTicket ticket) {
  // A poll is a progress point: lapse promises and retry the queue. If
  // the ticket is still queued, plan its own predicate classes so this
  // very poll can grant it; a fulfilled ticket needs no stripes.
  std::set<std::string> classes;
  AddTicketClasses(&classes, ticket);
  LockScope scope;
  PROMISES_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> txn,
                            BeginOperation(&scope, std::move(classes)));
  PROMISES_RETURN_IF_ERROR(ExpireDueLocked(txn.get(), scope));
  PROMISES_RETURN_IF_ERROR(DrainPendingScoped(txn.get(), scope));
  Result<QueuedOutcome> result = TakeTicket(client, ticket);
  PROMISES_RETURN_IF_ERROR(txn->Commit());
  return result;
}

Status PromiseManager::CancelPending(ClientId client, PendingTicket ticket) {
  // Claim the ticket first (atomic under the queue mutex): a still-
  // queued request just disappears; a fulfilled-but-unpolled grant is
  // released like any other promise.
  GrantOutcome fulfilled;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->ticket != ticket) continue;
      if (it->client != client) {
        return Status::FailedPrecondition("ticket belongs to another client");
      }
      pending_.erase(it);
      return Status::OK();
    }
    auto it = fulfilled_.find(ticket);
    if (it == fulfilled_.end() || it->second.first != client) {
      return Status::NotFound("unknown ticket " + std::to_string(ticket));
    }
    fulfilled = std::move(it->second.second);
    fulfilled_.erase(it);
  }
  if (!fulfilled.accepted) return Status::OK();
  // NotFound: the grant already expired between claim and release.
  Status st = Release(client, {fulfilled.promise_id});
  return st.IsNotFound() ? Status::OK() : st;
}

Status PromiseManager::ReleaseOneLocked(Transaction* txn, PromiseId id,
                                        PromiseState final_state) {
  PromiseRecord* rec = table_.FindMutable(id);
  if (rec == nullptr) {
    return Status::NotFound("promise " + id.ToString() + " not in table");
  }
  for (const Predicate& pred : rec->predicates) {
    PROMISES_ASSIGN_OR_RETURN(ResourceEngine * engine,
                              EngineFor(pred.resource_class()));
    PROMISES_RETURN_IF_ERROR(engine->Unreserve(txn, id, pred));
  }
  PROMISES_ASSIGN_OR_RETURN(PromiseRecord removed, table_.Remove(id));
  removed.state = final_state;
  txn->PushUndo([this, removed] {
    PromiseRecord restore = removed;
    restore.state = PromiseState::kActive;
    (void)table_.Insert(std::move(restore));
  });
  return Status::OK();
}

Result<GrantOutcome> PromiseManager::GrantLocked(
    Transaction* txn, ClientId client, std::vector<Predicate> predicates,
    DurationMs duration_ms, const std::vector<PromiseId>& handbacks) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  const size_t mark = txn->UndoDepth();
  Timestamp now = clock_->Now();

  // Counter-offer (§6 "accepted with the condition XX"): the strongest
  // weaker variant currently grantable. Quantity predicates shrink to
  // the pool headroom; property predicates shrink to their count
  // headroom. Runs after the rejection rollback, so engine headroom
  // reflects pre-request state. Exact for single-predicate requests;
  // best-effort for multi-predicate ones (per-class headrooms are not
  // re-verified jointly).
  auto counter_offer = [&](const std::vector<Predicate>& preds)
      -> std::string {
    bool reduced = false;
    std::vector<std::string> parts;
    for (const Predicate& pred : preds) {
      Result<ResourceEngine*> engine = EngineFor(pred.resource_class());
      if (!engine.ok()) return "";
      if (pred.kind() == PredicateKind::kQuantity) {
        Result<int64_t> headroom = (*engine)->QuantityHeadroom(txn, now);
        if (!headroom.ok() || *headroom <= 0) return "";
        int64_t offer = std::min(pred.amount(), *headroom);
        if (offer < pred.amount()) reduced = true;
        parts.push_back(
            Predicate::Quantity(pred.resource_class(), CompareOp::kGe, offer)
                .ToString());
      } else if (pred.kind() == PredicateKind::kProperty) {
        Result<int64_t> headroom = (*engine)->CountHeadroom(txn, now, pred);
        if (!headroom.ok() || *headroom <= 0) return "";
        int64_t offer = std::min(pred.count(), *headroom);
        if (offer < pred.count()) reduced = true;
        parts.push_back(
            Predicate::Property(pred.resource_class(), pred.match(), offer)
                .ToString());
      } else {
        return "";  // a pinned named instance has no weaker form
      }
    }
    if (!reduced) return "";  // rejection had some other cause
    std::string joined;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) joined += "; ";
      joined += parts[i];
    }
    return joined;
  };

  const std::vector<Predicate>* preds_for_offer = nullptr;
  PromiseId consumed_id;  // set once the generator has been consumed
  auto reject = [&](std::string reason) {
    txn->RollbackTo(mark);
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    GrantOutcome out;
    out.accepted = false;
    out.reason = std::move(reason);
    out.consumed_id = consumed_id;
    if (preds_for_offer != nullptr) {
      out.counter_offer = counter_offer(*preds_for_offer);
    }
    return out;
  };

  if (predicates.empty()) {
    return reject("promise request carries no predicates");
  }

  // Validate the handbacks before touching anything: §4 — "the previous
  // one should be retained if the service can't guarantee the modified
  // request".
  for (PromiseId id : handbacks) {
    const PromiseRecord* rec = table_.Find(id);
    if (rec == nullptr || !rec->ActiveAt(now)) {
      return reject("handback promise " + id.ToString() + " is not active");
    }
    if (rec->owner != client) {
      return reject("handback promise " + id.ToString() +
                    " is owned by another client");
    }
  }

  // Validate predicates against local resource definitions (delegated
  // classes are validated by their upstream maker; federated classes
  // by their engine against member schemas).
  for (const Predicate& pred : predicates) {
    if (IsDelegated(pred.resource_class()) ||
        IsFederated(pred.resource_class())) {
      continue;
    }
    Status st = ValidatePredicate(pred, *rm_);
    if (!st.ok()) return reject(st.ToString());
  }

  // Atomic update: hand back the old promises first so their resources
  // count toward the new request; all of it rolls back on rejection.
  for (PromiseId id : handbacks) {
    PROMISES_RETURN_IF_ERROR(
        ReleaseOneLocked(txn, id, PromiseState::kReleased));
  }

  DurationMs requested =
      duration_ms > 0 ? duration_ms : config_.default_duration_ms;
  DurationMs granted_duration = std::min(requested, config_.max_duration_ms);

  PromiseRecord record;
  if (tls_forced_promise_id != 0) {
    record.id = PromiseId(tls_forced_promise_id);
    tls_forced_promise_id = 0;
  } else {
    record.id = promise_ids_.Next();
  }
  consumed_id = record.id;
  record.owner = client;
  record.predicates = std::move(predicates);
  record.granted_at = now;
  record.expires_at = now + granted_duration;

  PromiseId new_id = record.id;
  PROMISES_RETURN_IF_ERROR(table_.Insert(record));
  txn->PushUndo([this, new_id] { (void)table_.Remove(new_id); });

  preds_for_offer = &record.predicates;
  for (const Predicate& pred : record.predicates) {
    Result<ResourceEngine*> engine = EngineFor(pred.resource_class());
    if (!engine.ok()) return reject(engine.status().ToString());
    Status st = (*engine)->Reserve(txn, record, pred);
    if (st.code() == StatusCode::kFailedPrecondition ||
        st.code() == StatusCode::kNotFound ||
        st.code() == StatusCode::kInvalidArgument) {
      return reject(st.ToString());
    }
    PROMISES_RETURN_IF_ERROR(st);
  }

  stats_.granted.fetch_add(1, std::memory_order_relaxed);
  if (!handbacks.empty()) {
    stats_.updates.fetch_add(1, std::memory_order_relaxed);
  }
  GrantOutcome out;
  out.accepted = true;
  out.promise_id = new_id;
  out.consumed_id = new_id;
  out.duration_ms = granted_duration;
  return out;
}

Status PromiseManager::VerifyAllLocked(Transaction* txn) {
  Timestamp now = clock_->Now();
  std::vector<ResourceEngine*> engines;
  {
    std::lock_guard<std::mutex> lk(engines_mu_);
    engines.reserve(engines_.size());
    for (auto& [cls, engine] : engines_) {
      (void)cls;
      engines.push_back(engine.get());
    }
  }
  for (ResourceEngine* engine : engines) {
    PROMISES_RETURN_IF_ERROR(engine->VerifyConsistent(txn, now));
  }
  return Status::OK();
}

Status PromiseManager::VerifyTouchedLocked(Transaction* txn,
                                           LockScope* scope) {
  if (scope->whole_manager) return VerifyAllLocked(txn);
  // The held stripes, plus any class the action wrote through the
  // resource manager behind the manager's back — §8: "the promise
  // manager cannot rely on the application code being always
  // well-behaved". Writes show up as exclusive "pool:<cls>" /
  // "class:<cls>" resource keys on this transaction; their stripes are
  // late-locked (deadlock detection backstops the out-of-order grab).
  // The write set comes from the transaction's own record rather than
  // the lock manager so pre-serialized (epoch) transactions — which
  // never register with the lock manager — verify identically.
  std::set<std::string> touched = scope->classes;
  for (const std::string& key : txn->ExclusiveKeys()) {
    std::string cls;
    if (StartsWith(key, "pool:")) {
      cls = key.substr(5);
    } else if (StartsWith(key, "class:")) {
      cls = key.substr(6);
    } else {
      continue;
    }
    touched.insert(std::move(cls));
  }
  ExpandClasses(&touched);
  // A write that reached the resource manager without its stripe held
  // bypassed the copy-on-read hook: if the class is still pending in an
  // active capture, its at-cut state is unrecoverable — poison the
  // capture (CaptureCheckpoint retries with a fresh cut). Must happen
  // before EnsureClassLocked below would "capture" the mutated state.
  if (capture_active_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(capture_mu_);
    if (capture_.active && !capture_.poisoned) {
      for (const std::string& cls : touched) {
        if (!scope->Covers(cls) && capture_.pending.count(cls) > 0) {
          capture_.poisoned = true;
          capture_.poison_reason =
              "raw resource-manager write to uncaptured class '" + cls + "'";
          break;
        }
      }
    }
  }
  Timestamp now = clock_->Now();
  for (const std::string& cls : touched) {
    PROMISES_RETURN_IF_ERROR(EnsureClassLocked(txn, scope, cls));
    ResourceEngine* engine = EngineIfExists(cls);
    if (engine == nullptr) continue;  // no promises ever granted on it
    PROMISES_RETURN_IF_ERROR(engine->VerifyConsistent(txn, now));
  }
  return Status::OK();
}

Result<ActionOutcome> PromiseManager::ExecuteLocked(
    Transaction* txn, LockScope* scope, ClientId client,
    const ActionBody& action, const EnvironmentHeader& env) {
  stats_.actions.fetch_add(1, std::memory_order_relaxed);
  const size_t mark = txn->UndoDepth();
  Timestamp now = clock_->Now();

  auto fail = [&](std::string error) {
    txn->RollbackTo(mark);
    stats_.action_failures.fetch_add(1, std::memory_order_relaxed);
    ActionOutcome out;
    out.ok = false;
    out.error = std::move(error);
    return out;
  };

  // Validate the promise environment (§6): all promises must be active
  // and owned by the caller; using a lapsed one yields the §2
  // 'promise-expired' error.
  std::vector<PromiseId> env_ids;
  for (const EnvironmentHeader::Entry& e : env.entries) {
    const PromiseRecord* rec = table_.Find(e.promise);
    if (rec == nullptr || !rec->ActiveAt(now)) {
      stats_.expired_use_errors.fetch_add(1, std::memory_order_relaxed);
      return fail("promise-expired: " + e.promise.ToString() +
                  " is not active");
    }
    if (rec->owner != client) {
      return fail("promise " + e.promise.ToString() +
                  " is owned by another client");
    }
    env_ids.push_back(e.promise);
  }

  ServiceFn service;
  {
    std::lock_guard<std::mutex> lk(config_mu_);
    auto sit = services_.find(action.service);
    if (sit != services_.end()) service = sit->second;
  }
  if (!service) {
    return fail("unknown service '" + action.service + "'");
  }

  ActionContext ctx(this, txn, scope, client, env_ids);
  Result<std::map<std::string, Value>> result =
      service(&ctx, action.operation, action.params);
  if (!result.ok()) {
    if (tls_epoch_ != nullptr && tls_epoch_->miss) {
      // A partition miss inside the service is not an application
      // failure: propagate the error so the whole operation rolls
      // back (nothing logged) and the executor reruns it serially —
      // the striped path would simply have taken the stripe lock.
      return result.status();
    }
    return fail("action failed: " + result.status().ToString());
  }

  // Release-after entries form an atomic unit with the action (§2/§4):
  // they only happen because the action succeeded, and they roll back
  // if verification fails below.
  for (const EnvironmentHeader::Entry& e : env.entries) {
    if (!e.release_after) continue;
    PROMISES_RETURN_IF_ERROR(
        ReleaseOneLocked(txn, e.promise, PromiseState::kReleased));
    stats_.released.fetch_add(1, std::memory_order_relaxed);
  }

  // §8: "the promise manager cannot rely on the application code being
  // always well-behaved, so the promise manager also has to check for
  // consistency after an action has been completed."
  Status verify = VerifyTouchedLocked(txn, scope);
  if (verify.IsViolated()) {
    stats_.violations_rolled_back.fetch_add(1, std::memory_order_relaxed);
    return fail("rolled back: " + verify.ToString());
  }
  PROMISES_RETURN_IF_ERROR(verify);

  ActionOutcome out;
  out.ok = true;
  out.outputs = std::move(result).value();
  return out;
}

Envelope PromiseManager::DirectEnvelope(ClientId client) {
  Envelope request;
  request.message_id = MessageId(0);
  request.from = NameOf(client);
  request.to = config_.name;
  return request;
}

Result<GrantOutcome> PromiseManager::RequestPromise(
    ClientId client, std::vector<Predicate> predicates,
    DurationMs duration_ms, std::vector<PromiseId> release_on_grant) {
  // Direct-API root: callers that skip the envelope path (the scaling
  // workload, embedders) still get a phase breakdown when sampled.
  ScopedSpan op_span(Tracer::Global().StartTrace(), "request-promise");
  Envelope request = DirectEnvelope(client);
  PromiseRequestHeader& req = request.promise_request.emplace();
  req.request_id = RequestId(1);
  req.predicates = std::move(predicates);
  req.duration_ms = duration_ms;
  req.release_on_grant = std::move(release_on_grant);
  DirectOutcome direct;
  Result<Envelope> reply = HandleInner(request, client, nullptr, &direct);
  PROMISES_RETURN_IF_ERROR(reply.status());
  PROMISES_RETURN_IF_ERROR(direct.durable);
  return ToGrantOutcome(std::move(*reply->promise_response),
                        direct.consumed_id);
}

Status PromiseManager::Release(ClientId client,
                               const std::vector<PromiseId>& ids) {
  ScopedSpan op_span(Tracer::Global().StartTrace(), "release");
  Envelope request = DirectEnvelope(client);
  request.release = ReleaseHeader{ids};
  DirectOutcome direct;
  PROMISES_RETURN_IF_ERROR(
      HandleInner(request, client, nullptr, &direct).status());
  PROMISES_RETURN_IF_ERROR(direct.durable);
  if (!direct.release_problems.empty()) {
    return Status::NotFound("some releases failed:" +
                            direct.release_problems);
  }
  return Status::OK();
}

Result<ActionOutcome> PromiseManager::Execute(ClientId client,
                                              const ActionBody& action,
                                              const EnvironmentHeader& env) {
  ScopedSpan op_span(Tracer::Global().StartTrace(), "execute");
  Envelope request = DirectEnvelope(client);
  request.environment = env;
  request.action = action;
  DirectOutcome direct;
  Result<Envelope> reply = HandleInner(request, client, nullptr, &direct);
  PROMISES_RETURN_IF_ERROR(reply.status());
  PROMISES_RETURN_IF_ERROR(direct.durable);
  ActionResultBody& result = *reply->action_result;
  ActionOutcome out;
  out.ok = result.ok;
  out.error = std::move(result.error);
  out.outputs = std::move(result.outputs);
  return out;
}

ClientId PromiseManager::ClientFor(const std::string& name) {
  std::lock_guard<std::mutex> lk(client_mu_);
  auto it = client_ids_.find(name);
  if (it != client_ids_.end()) return it->second;
  ClientId id = client_id_gen_.Next();
  client_ids_[name] = id;
  client_names_[id] = name;
  return id;
}

const std::string& PromiseManager::NameOf(ClientId client) {
  static const std::string kUnknown = "unknown-client";
  std::lock_guard<std::mutex> lk(client_mu_);
  auto it = client_names_.find(client);
  return it == client_names_.end() ? kUnknown : it->second;
}

PromiseManager::LogTicket PromiseManager::LogOperation(
    const std::string& payload, PromiseId consumed) {
  LogTicket ticket;
  OperationLog* log = oplog_.load(std::memory_order_acquire);
  if (log == nullptr) return ticket;
  ticket.log = log;
  // The sequencing point: the record's position in the log is fixed
  // here, while this operation still holds its stripe locks.
  ScopedSpan append_span("oplog-append");
  Result<uint64_t> seq =
      log->AppendOperation(clock_, payload, consumed.value());
  if (!seq.ok()) {
    append_span.set_status(StatusCodeToString(seq.status().code()));
    ticket.enqueue_error = seq.status();
    return ticket;
  }
  ticket.sequence = *seq;
  return ticket;
}

Status PromiseManager::AwaitLogDurable(const LogTicket& ticket) {
  if (ticket.log == nullptr) return Status::OK();
  Status cause = ticket.enqueue_error;
  if (cause.ok()) {
    // Off the critical section: the operation's locks are released,
    // only its reply is held back until the group is durable.
    ScopedSpan wait_span("oplog-group-wait");
    cause = ticket.log->WaitDurable(ticket.sequence);
    if (!cause.ok()) {
      wait_span.set_status(StatusCodeToString(cause.code()));
    }
  }
  if (cause.ok()) return Status::OK();
  DetachLog(ticket.log, cause);
  return Status::DataLoss(
      "operation committed in memory but its log record was lost (log "
      "detached): " +
      cause.ToString());
}

void PromiseManager::DetachLog(OperationLog* expected, const Status& cause) {
  OperationLog* want = expected;
  if (!oplog_.compare_exchange_strong(want, nullptr,
                                      std::memory_order_acq_rel)) {
    return;  // another operation already detached it
  }
  static Counter* detached_total = MetricsRegistry::Global().GetCounter(
      "promises_oplog_detached_total");
  detached_total->Increment();
  ScopedSpan detach_span("oplog-detached");
  detach_span.set_status(StatusCodeToString(cause.code()));
}

Status PromiseManager::AttachLog(OperationLog* log) {
  if (log == nullptr || !log->IsOpen()) {
    return Status::InvalidArgument("log must be open");
  }
  {
    std::lock_guard<std::mutex> lk(config_mu_);
    if (!delegated_.empty()) {
      return Status::FailedPrecondition(
          "recovery logging is not supported with delegated classes");
    }
  }
  {
    // A queued request granted later by a drain would fire outside the
    // logged command stream (the same reason RequestPromiseOrQueue
    // refuses while attached).
    std::lock_guard<std::mutex> lk(pending_mu_);
    if (!pending_.empty()) {
      return Status::FailedPrecondition(
          "cannot attach a log while requests are queued as pending");
    }
  }
  {
    // The capture's cut LSN belongs to the log that was attached when
    // it was chosen; swapping logs mid-capture would splice two
    // sequence spaces.
    std::lock_guard<std::mutex> lk(capture_mu_);
    if (capture_.active) {
      return Status::FailedPrecondition(
          "cannot attach a log while a checkpoint capture is active");
    }
  }
  oplog_.store(log, std::memory_order_release);
  return Status::OK();
}

Status PromiseManager::ReplayLog(const std::vector<LogRecord>& records,
                                 SimulatedClock* clock) {
  if (oplog_.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition("detach the log before replaying");
  }
  uint64_t max_promise_id = 0;
  for (const LogRecord& record : records) {
    clock->AdvanceTo(record.timestamp);
    // The record carries the promise id its operation consumed at
    // runtime; pinning the generator reproduces it even though the
    // original allocation order (under striped concurrency) may not
    // have matched the log order.
    if (record.promise_id != 0) {
      promise_ids_.Pin(record.promise_id);
      max_promise_id = std::max(max_promise_id, record.promise_id);
    }
    PROMISES_RETURN_IF_ERROR(ReplayRecord(record.payload, nullptr));
  }
  // Leave the generator past every replayed id: the last record need
  // not carry the maximum (allocation could run ahead of log order).
  if (max_promise_id != 0) promise_ids_.Pin(max_promise_id + 1);
  return Status::OK();
}

Status PromiseManager::ReplayRecord(const std::string& payload,
                                    const Envelope* parsed) {
  // Outcomes replay deterministically; only errors are reported.
  if (parsed != nullptr) return Handle(*parsed).status();
  if (Envelope::Sniff(payload)) {
    PROMISES_ASSIGN_OR_RETURN(Envelope env, Envelope::Decode(payload));
    return Handle(env).status();
  }
  // External events: "damage|<cls>|<qty>" / "lose|<cls>|<id>".
  std::vector<std::string> parts = Split(payload, '|');
  if (parts.size() == 3 && parts[0] == "damage") {
    PROMISES_ASSIGN_OR_RETURN(int64_t qty, ParseInt64(parts[2]));
    return ReportExternalDamage(parts[1], qty).status();
  }
  if (parts.size() == 3 && parts[0] == "lose") {
    return ReportInstanceLost(parts[1], parts[2]).status();
  }
  return Status::InvalidArgument("unknown log record: " + payload);
}

Status PromiseManager::ReplayLogParallel(const std::vector<LogRecord>& records,
                                         SimulatedClock* clock, int workers) {
  if (workers <= 1 || records.size() < 2) return ReplayLog(records, clock);
  if (oplog_.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition("detach the log before replaying");
  }
  ScopedSpan replay_span("tail-replay");
  static Counter* tail_records_total = MetricsRegistry::Global().GetCounter(
      "promises_recovery_tail_records_total");
  static Counter* tail_segments_total = MetricsRegistry::Global().GetCounter(
      "promises_recovery_tail_segments_total");
  tail_records_total->Increment(records.size());

  // Phase 1 (parallel): parse each record and derive its dependency
  // footprint — the resource classes it plans (closed under
  // federation) and the promise ids it references or consumed.
  struct Planned {
    const LogRecord* record = nullptr;
    bool is_envelope = false;
    Envelope envelope;
    bool barrier = false;
    std::set<std::string> classes;
    std::vector<uint64_t> promise_ids;
  };
  std::vector<Planned> planned(records.size());
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;
  auto note_error = [&](const Status& st) {
    std::lock_guard<std::mutex> lk(error_mu);
    if (first_error.ok()) first_error = st;
    failed.store(true, std::memory_order_release);
  };
  {
    std::atomic<size_t> next_index{0};
    auto parse_worker = [&] {
      for (;;) {
        size_t i = next_index.fetch_add(1, std::memory_order_relaxed);
        if (i >= records.size()) break;
        if (failed.load(std::memory_order_acquire)) break;
        Planned& p = planned[i];
        p.record = &records[i];
        const std::string& payload = records[i].payload;
        if (Envelope::Sniff(payload)) {
          Result<Envelope> env = Envelope::Decode(payload);
          if (!env.ok()) {
            note_error(env.status());
            break;
          }
          p.is_envelope = true;
          p.envelope = std::move(*env);
          // Actions run arbitrary service code (the class-planning
          // heuristic is best-effort) and polls touch the global
          // pending queue: both replay serially, as barriers.
          p.barrier = p.envelope.action.has_value() ||
                      p.envelope.poll.has_value();
          if (p.envelope.promise_request) {
            for (const Predicate& pred :
                 p.envelope.promise_request->predicates) {
              p.classes.insert(pred.resource_class());
            }
            for (PromiseId id :
                 p.envelope.promise_request->release_on_grant) {
              p.promise_ids.push_back(id.value());
            }
          }
          if (p.envelope.release) {
            for (PromiseId id : p.envelope.release->promises) {
              p.promise_ids.push_back(id.value());
            }
          }
          if (p.envelope.environment) {
            for (const EnvironmentHeader::Entry& e :
                 p.envelope.environment->entries) {
              if (e.promise.valid()) p.promise_ids.push_back(e.promise.value());
            }
          }
          ExpandClasses(&p.classes);
        } else {
          // External events hunt broken promises over every class.
          p.barrier = true;
        }
        if (records[i].promise_id != 0) {
          p.promise_ids.push_back(records[i].promise_id);
        }
      }
    };
    size_t nparse = std::min<size_t>(static_cast<size_t>(workers),
                                     records.size());
    std::vector<std::thread> pool;
    for (size_t w = 1; w < nparse; ++w) pool.emplace_back(parse_worker);
    parse_worker();
    for (std::thread& t : pool) t.join();
  }
  if (failed.load(std::memory_order_acquire)) {
    replay_span.set_status(StatusCodeToString(first_error.code()));
    return first_error;
  }

  // Phase 2 (serial): union-find over "c:<class>" / "p:<promise id>"
  // keys. Promises already in the table (the restored snapshot) seed
  // the structure, so a tail release whose envelope names only a
  // promise id lands in the component of the classes that promise
  // reserves. Expiry stays inside components too: AddDueClasses only
  // widens an operation to due promises OVERLAPPING its classes, and
  // overlap means same component.
  std::map<std::string, std::string> parent;
  auto find = [&parent](std::string key) {
    parent.try_emplace(key, key);
    while (parent[key] != key) {
      parent[key] = parent[parent[key]];  // path halving
      key = parent[key];
    }
    return key;
  };
  auto unite = [&](const std::string& a, const std::string& b) {
    std::string ra = find(a);
    std::string rb = find(b);
    if (ra != rb) parent[rb] = std::move(ra);
  };
  for (const std::string& cls : table_.ReferencedClasses()) {
    for (const PromiseRecord& rec : table_.RecordsForClass(cls)) {
      unite("c:" + cls, "p:" + std::to_string(rec.id.value()));
    }
  }
  for (size_t i = 0; i < planned.size(); ++i) {
    const Planned& p = planned[i];
    if (p.barrier) continue;
    std::string self = "r:" + std::to_string(i);
    for (const std::string& cls : p.classes) unite(self, "c:" + cls);
    for (uint64_t id : p.promise_ids) {
      unite(self, "p:" + std::to_string(id));
    }
  }

  uint64_t max_promise_id = 0;
  for (const Planned& p : planned) {
    max_promise_id = std::max(max_promise_id, p.record->promise_id);
  }

  auto replay_one = [&](const Planned& p) -> Status {
    // Pin logical time and the consumed promise id to this record for
    // the duration of its re-execution; worker threads replaying other
    // components concurrently see their own record's time.
    ScopedTimeOverride time_pin(p.record->timestamp);
    if (p.record->promise_id != 0) {
      tls_forced_promise_id = p.record->promise_id;
    }
    Status st = ReplayRecord(p.record->payload,
                             p.is_envelope ? &p.envelope : nullptr);
    tls_forced_promise_id = 0;
    return st;
  };

  // Phases 3+4: split at barriers; within a segment, group records by
  // component and replay the groups concurrently (each group in log
  // order). Components share no class, so their stripe footprints are
  // disjoint — grants and releases never late-lock.
  auto run_segment = [&](size_t begin, size_t end) {
    if (begin >= end || failed.load(std::memory_order_acquire)) return;
    tail_segments_total->Increment();
    std::map<std::string, std::vector<const Planned*>> groups;
    std::vector<std::string> order;
    for (size_t i = begin; i < end; ++i) {
      std::string root = find("r:" + std::to_string(i));
      auto [it, inserted] = groups.try_emplace(root);
      if (inserted) order.push_back(root);
      it->second.push_back(&planned[i]);
    }
    Timestamp seg_max = 0;
    for (size_t i = begin; i < end; ++i) {
      seg_max = std::max(seg_max, planned[i].record->timestamp);
    }
    size_t nworkers =
        std::min<size_t>(static_cast<size_t>(workers), order.size());
    if (nworkers <= 1) {
      for (size_t i = begin;
           i < end && !failed.load(std::memory_order_acquire); ++i) {
        Status st = replay_one(planned[i]);
        if (!st.ok()) note_error(st);
      }
    } else {
      std::atomic<size_t> next_group{0};
      const auto& groups_ref = groups;  // read-only from here on
      auto group_worker = [&] {
        for (;;) {
          size_t g = next_group.fetch_add(1, std::memory_order_relaxed);
          if (g >= order.size()) break;
          if (failed.load(std::memory_order_acquire)) break;
          for (const Planned* p : groups_ref.at(order[g])) {
            if (failed.load(std::memory_order_acquire)) break;
            Status st = replay_one(*p);
            if (!st.ok()) {
              note_error(st);
              break;
            }
          }
        }
      };
      std::vector<std::thread> pool;
      for (size_t w = 1; w < nworkers; ++w) pool.emplace_back(group_worker);
      group_worker();
      for (std::thread& t : pool) t.join();
    }
    clock->AdvanceTo(seg_max);
  };

  size_t seg_begin = 0;
  for (size_t i = 0; i < planned.size(); ++i) {
    if (!planned[i].barrier) continue;
    run_segment(seg_begin, i);
    if (failed.load(std::memory_order_acquire)) break;
    clock->AdvanceTo(planned[i].record->timestamp);
    Status st = replay_one(planned[i]);
    if (!st.ok()) note_error(st);
    if (failed.load(std::memory_order_acquire)) break;
    seg_begin = i + 1;
  }
  if (!failed.load(std::memory_order_acquire)) {
    run_segment(seg_begin, planned.size());
  }
  if (failed.load(std::memory_order_acquire)) {
    replay_span.set_status(StatusCodeToString(first_error.code()));
    return first_error;
  }
  if (max_promise_id != 0) promise_ids_.Pin(max_promise_id + 1);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Fuzzy checkpoint capture (see core/checkpoint.h and DESIGN.md §10)

void PromiseManager::CaptureScopeClasses(const LockScope& scope) {
  if (!capture_active_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(capture_mu_);
  if (!capture_.active || capture_.poisoned) return;
  if (scope.whole_manager) {
    // Root-exclusive: no striped operation is in flight, so every
    // pending class is untouched-since-cut and capturable right now.
    while (!capture_.pending.empty() && !capture_.poisoned) {
      CaptureClassLocked(*capture_.pending.begin());
    }
    return;
  }
  for (const std::string& cls : scope.classes) {
    if (capture_.poisoned) break;
    if (capture_.pending.count(cls) > 0) CaptureClassLocked(cls);
  }
}

void PromiseManager::CaptureClassIfPending(const std::string& cls) {
  if (!capture_active_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(capture_mu_);
  if (!capture_.active || capture_.poisoned) return;
  if (capture_.pending.count(cls) > 0) CaptureClassLocked(cls);
}

void PromiseManager::PoisonCapture(const std::string& reason) {
  // Caller holds capture_mu_.
  capture_.poisoned = true;
  capture_.poison_reason = reason;
}

void PromiseManager::CaptureClassLocked(const std::string& cls) {
  capture_.pending.erase(cls);
  CheckpointData* data = capture_.data.get();
  if (rm_->HasPool(cls)) {
    Result<int64_t> qty = rm_->ExportPoolQuantity(cls);
    if (!qty.ok()) {
      PoisonCapture("pool export failed for '" + cls +
                    "': " + qty.status().ToString());
      return;
    }
    data->pools[cls] = *qty;
  }
  if (rm_->HasInstanceClass(cls)) {
    Result<std::vector<InstanceView>> instances = rm_->ExportInstances(cls);
    if (!instances.ok()) {
      PoisonCapture("instance export failed for '" + cls +
                    "': " + instances.status().ToString());
      return;
    }
    data->instances[cls] = std::move(*instances);
  }
  for (PromiseRecord& rec : table_.RecordsForClass(cls)) {
    // A promise spanning several classes is stored once (keyed by id);
    // whichever class captures first wins, and the record cannot have
    // changed in between because every one of its classes was pending.
    uint64_t id = rec.id.value();
    data->promises.emplace(id, std::move(rec));
  }
  ResourceEngine* engine = EngineIfExists(cls);
  if (engine != nullptr) {
    std::string blob = engine->SerializeState();
    if (!blob.empty()) data->engine_state[cls] = std::move(blob);
  }
}

std::set<std::string> PromiseManager::CheckpointClasses() const {
  std::set<std::string> classes;
  for (std::string& cls : rm_->PoolClasses()) classes.insert(std::move(cls));
  for (std::string& cls : rm_->InstanceClasses()) {
    classes.insert(std::move(cls));
  }
  std::set<std::string> referenced = table_.ReferencedClasses();
  classes.insert(referenced.begin(), referenced.end());
  {
    std::lock_guard<std::mutex> lk(engines_mu_);
    for (const auto& [cls, engine] : engines_) {
      (void)engine;
      classes.insert(cls);
    }
  }
  {
    std::lock_guard<std::mutex> lk(config_mu_);
    for (const auto& [cls, members] : federated_) {
      (void)members;
      classes.insert(cls);
    }
  }
  return classes;
}

Result<CheckpointData> PromiseManager::CaptureCheckpoint() {
  static Counter* captures_total = MetricsRegistry::Global().GetCounter(
      "promises_checkpoint_captures_total");
  static Counter* poisoned_total = MetricsRegistry::Global().GetCounter(
      "promises_checkpoint_poisoned_total");
  if (oplog_.load(std::memory_order_acquire) == nullptr) {
    return Status::FailedPrecondition(
        "checkpoint capture requires an attached log (the cut is a log "
        "sequence number)");
  }

  // Clears capture state after a failure so the next attempt (or the
  // next CaptureCheckpoint call) starts clean.
  auto deactivate = [this]() -> std::unique_ptr<CheckpointData> {
    std::lock_guard<std::mutex> lk(capture_mu_);
    std::unique_ptr<CheckpointData> data = std::move(capture_.data);
    capture_ = CaptureState{};
    capture_active_.store(false, std::memory_order_release);
    return data;
  };

  constexpr int kMaxAttempts = 5;
  std::string last_poison;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ScopedSpan capture_span("checkpoint-capture");
    std::set<std::string> classes = CheckpointClasses();

    // Activation: a momentary root-exclusive barrier (O(1) work under
    // the lock). Every striped operation holds the root key shared
    // from BeginOperation until commit, so root-exclusive drains all
    // in-flight operations — the cut chosen here has no laggards, and
    // every operation sequenced after it observes capture_active_ in
    // its BeginOperation hook before touching any class.
    {
      LockScope scope;
      Result<std::unique_ptr<Transaction>> txn_or =
          BeginOperation(&scope, {}, /*whole_manager=*/true);
      if (!txn_or.ok()) return txn_or.status();
      std::unique_ptr<Transaction> txn = std::move(txn_or).value();
      OperationLog* log = oplog_.load(std::memory_order_acquire);
      if (log == nullptr) {
        return Status::FailedPrecondition("log detached during capture");
      }
      Result<LogCut> cut = log->CutPoint();
      if (!cut.ok()) return cut.status();
      {
        std::lock_guard<std::mutex> lk(capture_mu_);
        if (capture_.active) {
          return Status::FailedPrecondition(
              "a checkpoint capture is already active");
        }
        capture_ = CaptureState{};
        capture_.active = true;
        capture_.cut_lsn = cut->sequence;
        capture_.pending = classes;
        capture_.data = std::make_unique<CheckpointData>();
        capture_.data->cut_lsn = cut->sequence;
        capture_.data->captured_at = cut->last_timestamp;
        capture_.data->promise_id_watermark = cut->promise_id_watermark;
        capture_active_.store(true, std::memory_order_release);
      }
      Status commit = txn->Commit();
      if (!commit.ok()) {
        (void)deactivate();
        return commit;
      }
    }

    // Sweep: capture each still-pending class under its stripe through
    // the normal operation path. Traffic keeps flowing; operations that
    // get to a pending class first capture it themselves (the
    // BeginOperation hook), so each iteration strictly shrinks the
    // pending set no matter who wins the stripe.
    bool poisoned = false;
    for (;;) {
      std::string next;
      {
        std::lock_guard<std::mutex> lk(capture_mu_);
        if (capture_.poisoned) {
          poisoned = true;
          last_poison = capture_.poison_reason;
          break;
        }
        if (capture_.pending.empty()) break;
        next = *capture_.pending.begin();
      }
      LockScope scope;
      Result<std::unique_ptr<Transaction>> txn_or =
          BeginOperation(&scope, {next});
      if (!txn_or.ok()) {
        (void)deactivate();
        return txn_or.status();
      }
      // The hook inside BeginOperation did the capture; nothing to do
      // under the lock but release it.
      Status commit = (*txn_or)->Commit();
      if (!commit.ok()) {
        (void)deactivate();
        return commit;
      }
    }

    std::unique_ptr<CheckpointData> data = deactivate();
    if (poisoned || data == nullptr) {
      poisoned_total->Increment();
      capture_span.set_status("poisoned");
      continue;
    }

    // Idempotency table, in FIFO (eviction) order so restore rebuilds
    // the same eviction queue. The LSN filter drops replies from
    // operations sequenced after the cut — tail replay regenerates
    // them; lsn 0 entries predate the log and are always kept.
    {
      std::set<DedupKey> seen;
      std::lock_guard<std::mutex> lk(dedup_mu_);
      for (const DedupKey& key : dedup_fifo_) {
        if (!seen.insert(key).second) continue;
        auto it = dedup_completed_.find(key);
        if (it == dedup_completed_.end()) continue;
        if (it->second.lsn != 0 && it->second.lsn > data->cut_lsn) continue;
        CheckpointDedupEntry entry;
        entry.from = key.first;
        entry.message_id = key.second;
        entry.lsn = it->second.lsn;
        entry.reply = it->second.reply;
        data->dedup.push_back(std::move(entry));
      }
    }
    // Client registry. Captured after the sweep, so it may include
    // clients first seen after the cut — a harmless superset: the
    // name<->id mappings are append-only and tail replay reuses them.
    {
      std::lock_guard<std::mutex> lk(client_mu_);
      for (const auto& [id, name] : client_names_) {
        data->clients.emplace_back(id.value(), name);
      }
    }
    captures_total->Increment();
    return std::move(*data);
  }
  return Status::Unavailable(
      "checkpoint capture poisoned " + std::to_string(kMaxAttempts) +
      " times (raw resource-manager writes keep racing the sweep): " +
      last_poison);
}

Status PromiseManager::RestoreCheckpoint(const CheckpointData& data,
                                         SimulatedClock* clock) {
  if (oplog_.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition("detach the log before restoring");
  }
  {
    std::lock_guard<std::mutex> lk(capture_mu_);
    if (capture_.active) {
      return Status::FailedPrecondition(
          "cannot restore while a capture is active");
    }
  }
  if (table_.size() != 0) {
    return Status::FailedPrecondition(
        "restore requires a freshly constructed manager");
  }
  // Same contract as ReplayLog: resource definitions, federations and
  // services must already be registered, and this manager is quiesced
  // (no concurrent operations), so raw restore calls need no stripes.
  clock->AdvanceTo(data.captured_at);
  {
    std::lock_guard<std::mutex> lk(client_mu_);
    uint64_t max_client = 0;
    for (const auto& [id, name] : data.clients) {
      client_names_[ClientId(id)] = name;
      client_ids_[name] = ClientId(id);
      max_client = std::max(max_client, id);
    }
    if (max_client != 0) client_id_gen_.Pin(max_client + 1);
  }
  if (data.promise_id_watermark != 0) {
    // Tail records always consume ids above the watermark (the cut was
    // chosen under the activation barrier, after every in-flight
    // allocation), so the absolute pin cannot collide with replay.
    promise_ids_.Pin(data.promise_id_watermark + 1);
  }
  for (const auto& [cls, quantity] : data.pools) {
    PROMISES_RETURN_IF_ERROR(rm_->RestorePoolQuantity(cls, quantity));
  }
  for (const auto& [cls, instances] : data.instances) {
    for (const InstanceView& inst : instances) {
      PROMISES_RETURN_IF_ERROR(
          rm_->RestoreInstance(cls, inst.id, inst.status, inst.properties));
    }
  }
  for (const auto& [id, rec] : data.promises) {
    (void)id;
    PROMISES_RETURN_IF_ERROR(table_.Insert(rec));
  }
  for (const auto& [cls, blob] : data.engine_state) {
    PROMISES_ASSIGN_OR_RETURN(ResourceEngine * engine, EngineFor(cls));
    PROMISES_RETURN_IF_ERROR(engine->RestoreState(blob));
  }
  if (config_.dedup_capacity > 0) {
    std::lock_guard<std::mutex> lk(dedup_mu_);
    for (const CheckpointDedupEntry& entry : data.dedup) {
      // Decoding validates the entry (and turns a version-1 XML reply
      // into the binary form the table holds).
      PROMISES_ASSIGN_OR_RETURN(Envelope reply, Envelope::Decode(entry.reply));
      RememberReplyLocked({entry.from, entry.message_id}, reply.Encode(),
                          entry.lsn);
    }
  }
  return Status::OK();
}

Result<Envelope> PromiseManager::Handle(const Envelope& request) {
  // Server-side span root: nest under the inbound envelope's context
  // when the wire carried one; otherwise start a fresh trace, so
  // embedders that call Handle without stamping a trace still get the
  // same phase breakdown.
  TraceContext trace_parent;
  if (request.trace && request.trace->sampled) {
    trace_parent = *request.trace;
  } else {
    trace_parent = Tracer::Global().StartTrace();
  }
  ScopedSpan handle_span(trace_parent, "handle");
  static Counter* requests_total = MetricsRegistry::Global().GetCounter(
      "promises_manager_requests_total");
  static Counter* deadline_sheds_total = MetricsRegistry::Global().GetCounter(
      "promises_manager_deadline_sheds_total");
  static Counter* replays_total = MetricsRegistry::Global().GetCounter(
      "promises_manager_duplicates_replayed_total");
  requests_total->Increment();

  // Shard guard: an envelope routed under a different world view than
  // this shard's identity is refused before the dedup table or any
  // lock stripe — the sender must re-plan against the live topology.
  if (config_.shard_index >= 0 && request.route) {
    static Counter* route_rejects_total =
        MetricsRegistry::Global().GetCounter(
            "promises_manager_route_rejects_total");
    if (request.route->topology_version != config_.topology_version) {
      handle_span.set_status("route-stale-topology");
      route_rejects_total->Increment();
      return Status::FailedPrecondition(
          "route: topology version " +
          std::to_string(request.route->topology_version) +
          " does not match shard's version " +
          std::to_string(config_.topology_version));
    }
    if (request.route->shard != config_.shard_index) {
      handle_span.set_status("route-wrong-shard");
      route_rejects_total->Increment();
      return Status::FailedPrecondition(
          "route: envelope for shard " +
          std::to_string(request.route->shard) + " reached shard " +
          std::to_string(config_.shard_index));
    }
  }

  // Deadline shed, before everything else: a request whose propagated
  // deadline already lapsed gets a tiny <overload> reply — the client
  // has given up, so executing it (or even touching the dedup table or
  // a lock stripe) is pure waste. Sheds are deliberately NOT cached:
  // a later retry with the same message id and a live deadline must
  // execute for real.
  if (request.deadline != 0 && clock_->Now() >= request.deadline) {
    handle_span.set_status("shed-deadline");
    deadline_sheds_total->Increment();
    stats_.deadline_sheds.fetch_add(1, std::memory_order_relaxed);
    Envelope shed;
    shed.message_id = request.message_id;
    shed.from = config_.name;
    shed.to = request.from;
    shed.overload = OverloadHeader{"deadline", 0};
    return shed;
  }

  // Idempotency layer: a message id the sender already completed gets
  // its original reply back, verbatim — no re-execution, no re-logging
  // (so replay never sees the duplicate either). Envelopes without a
  // valid message id (notably the log records synthesized by the
  // direct API, which all carry id 0) always execute.
  const bool dedup_eligible = config_.dedup_capacity > 0 &&
                              request.message_id.valid() &&
                              !request.from.empty();
  if (!dedup_eligible) {
    return HandleInner(request, ClientFor(request.from), nullptr);
  }

  DedupKey key{request.from, request.message_id.value()};
  {
    ScopedSpan dedup_span("dedup");
    std::lock_guard<std::mutex> lk(dedup_mu_);
    auto it = dedup_completed_.find(key);
    // A logged reply joins the table at its sequencing point, before it
    // is durable; while the original is still in progress (awaiting its
    // durable ack) a duplicate is refused below, never answered.
    if (it != dedup_completed_.end() && dedup_in_progress_.count(key) == 0) {
      dedup_span.set_status("replayed");
      replays_total->Increment();
      stats_.duplicates_replayed.fetch_add(1, std::memory_order_relaxed);
      return Envelope::Decode(it->second.reply);
    }
    if (!dedup_in_progress_.insert(key).second) {
      // A duplicate delivery raced the original, which is still
      // executing. Refuse (retryably) instead of running it twice; the
      // retry will find the cached reply.
      dedup_span.set_status("in-flight-duplicate");
      return Status::Unavailable("duplicate of in-flight request " +
                                 request.message_id.ToString() + " from '" +
                                 request.from + "'");
    }
  }

  Result<Envelope> reply =
      HandleInner(request, ClientFor(request.from), &key);

  {
    std::lock_guard<std::mutex> lk(dedup_mu_);
    dedup_in_progress_.erase(key);
    // Only completed requests are remembered: an errored envelope made
    // no state change, so re-executing the retry is the right call.
    // Logged operations were already inserted (LSN-tagged) at their
    // sequencing point inside HandleInner; this covers the unlogged
    // path (lsn 0: always inside any checkpoint cut).
    if (reply.ok()) RememberReplyLocked(key, reply->Encode(), 0);
  }
  return reply;
}

bool PromiseManager::RememberReplyLocked(const DedupKey& key,
                                         std::string encoded_reply,
                                         uint64_t lsn) {
  auto [it, inserted] = dedup_completed_.try_emplace(key);
  if (!inserted) return false;
  it->second = DedupEntry{std::move(encoded_reply), lsn};
  dedup_fifo_.push_back(key);
  while (dedup_fifo_.size() > config_.dedup_capacity) {
    dedup_completed_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
  return true;
}

std::set<std::string> PromiseManager::PlanEnvelope(
    const Envelope& request) const {
  // Plan the union of every part of the combined envelope.
  std::set<std::string> classes;
  if (request.promise_request) {
    for (const Predicate& p : request.promise_request->predicates) {
      classes.insert(p.resource_class());
    }
    for (PromiseId id : request.promise_request->release_on_grant) {
      AddPromiseClasses(&classes, id);
    }
  }
  if (request.poll) AddTicketClasses(&classes, request.poll->ticket);
  if (request.release) {
    for (PromiseId id : request.release->promises) {
      AddPromiseClasses(&classes, id);
    }
  }
  if (request.environment) {
    for (const EnvironmentHeader::Entry& e : request.environment->entries) {
      AddPromiseClasses(&classes, e.promise);
    }
  }
  if (request.action) AddActionClasses(&classes, *request.action);
  return classes;
}

std::set<std::string> PromiseManager::PlanEnvelopeClasses(
    const Envelope& request) const {
  std::set<std::string> classes = PlanEnvelope(request);
  PlanClosure(&classes);
  return classes;
}

Result<Envelope> PromiseManager::HandleInner(const Envelope& request,
                                             ClientId client,
                                             const DedupKey* dedup_key,
                                             DirectOutcome* direct) {
  std::set<std::string> classes = PlanEnvelope(request);

  LockScope scope;
  std::unique_ptr<Transaction> txn;
  {
    // Covers planning the stripe set and acquiring every class lock
    // (the 2PL lock manager's own blocking waits nest underneath as
    // lock-wait spans).
    ScopedSpan lock_span("lock-acquire");
    Result<std::unique_ptr<Transaction>> txn_or =
        BeginOperation(&scope, std::move(classes));
    if (!txn_or.ok()) {
      lock_span.set_status(StatusCodeToString(txn_or.status().code()));
      return txn_or.status();
    }
    txn = std::move(txn_or).value();
  }
  PROMISES_RETURN_IF_ERROR(ExpireDueLocked(txn.get(), scope));

  // Built in place inside the returned Result (no envelope moves on
  // return). Direct callers read only the reply's headers: they skip
  // its addressing and draw no transport message id.
  Result<Envelope> result{Envelope{}};
  Envelope& reply = *result;
  if (direct == nullptr) {
    reply.message_id =
        transport_ != nullptr ? transport_->NextMessageId() : MessageId(1);
    reply.from = config_.name;
    reply.to = request.from;
  }

  bool grant_rejected = false;
  PromiseId fresh_promise;
  PromiseId consumed_id;  // for the log record (replay id pinning)

  if (request.promise_request) {
    const PromiseRequestHeader& pr = *request.promise_request;
    GrantOutcome out;
    {
      // Predicate evaluation against current resource state is the
      // grant decision's cost center.
      ScopedSpan grant_span("predicate-eval");
      PROMISES_ASSIGN_OR_RETURN(
          out, GrantLocked(txn.get(), client, pr.predicates, pr.duration_ms,
                           pr.release_on_grant));
      if (!out.accepted) grant_span.set_status("rejected");
    }
    PromiseResponseHeader& resp = reply.promise_response.emplace();
    resp.promise_id = out.promise_id;
    resp.result = out.accepted ? PromiseResultCode::kAccepted
                               : PromiseResultCode::kRejected;
    // §6 'pending': queue an ungrantable request when asked. Not
    // available with an attached log (queued grants bypass the command
    // stream) or combined with atomic updates.
    if (!out.accepted && pr.queue_if_unavailable &&
        oplog_.load(std::memory_order_acquire) == nullptr &&
        pr.release_on_grant.empty()) {
      resp.result = PromiseResultCode::kPending;
      Timestamp deadline = clock_->Now() + config_.pending_patience_ms;
      std::lock_guard<std::mutex> lk(pending_mu_);
      resp.pending_ticket = next_ticket_++;
      pending_.push_back(PendingRequest{resp.pending_ticket, client,
                                        pr.predicates, pr.duration_ms,
                                        deadline});
    }
    resp.granted_duration_ms = out.duration_ms;
    resp.correlation = pr.request_id;
    resp.reason = std::move(out.reason);
    resp.counter_offer = std::move(out.counter_offer);
    grant_rejected = !out.accepted;
    fresh_promise = out.promise_id;
    consumed_id = out.consumed_id;
  } else if (request.poll) {
    // Resolve a queued request's ticket (processed only when the
    // envelope carries no new promise-request). Another client's
    // ticket reads as unknown.
    PROMISES_RETURN_IF_ERROR(DrainPendingScoped(txn.get(), scope));
    PromiseResponseHeader& resp = reply.promise_response.emplace();
    resp.correlation = RequestId(request.poll->ticket);
    Result<QueuedOutcome> taken = TakeTicket(client, request.poll->ticket);
    if (!taken.ok()) {
      resp.result = PromiseResultCode::kRejected;
      resp.reason = "unknown ticket " + std::to_string(request.poll->ticket);
    } else if (taken->queued) {
      resp.result = PromiseResultCode::kPending;
      resp.pending_ticket = taken->ticket;
    } else {
      resp.result = taken->outcome.accepted ? PromiseResultCode::kAccepted
                                            : PromiseResultCode::kRejected;
      resp.promise_id = taken->outcome.promise_id;
      resp.granted_duration_ms = taken->outcome.duration_ms;
      resp.reason = std::move(taken->outcome.reason);
    }
  }

  if (request.release) {
    for (PromiseId id : request.release->promises) {
      // Gone (released/expired) or appearing after lock planning: not
      // releasable by this operation; neither is another client's.
      auto id_classes = table_.ClassesOf(id);
      const PromiseRecord* rec =
          id_classes && scope.CoversAll(*id_classes) ? table_.Find(id)
                                                     : nullptr;
      if (rec == nullptr || rec->owner != client) {
        if (direct != nullptr) {
          direct->release_problems.append(" ").append(id.ToString()).append(
              rec == nullptr ? " not active;" : " owned by another client;");
        }
        continue;
      }
      PROMISES_RETURN_IF_ERROR(
          ReleaseOneLocked(txn.get(), id, PromiseState::kReleased));
      stats_.released.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (request.action) {
    if (grant_rejected) {
      // The action depended on the rejected request; §4 atomic unit.
      ActionResultBody& r = reply.action_result.emplace();
      r.ok = false;
      r.error = "skipped: accompanying promise request was rejected";
      stats_.actions.fetch_add(1, std::memory_order_relaxed);
      stats_.action_failures.fetch_add(1, std::memory_order_relaxed);
    } else {
      static const EnvironmentHeader kNoEnvironment;
      const EnvironmentHeader* env =
          request.environment ? &*request.environment : &kNoEnvironment;
      // Convention: promise id 0 in an environment refers to the
      // promise granted by this same envelope's request.
      EnvironmentHeader bound;
      if (fresh_promise.valid()) {
        bound = *env;
        for (EnvironmentHeader::Entry& e : bound.entries) {
          if (!e.promise.valid()) e.promise = fresh_promise;
        }
        env = &bound;
      }
      ActionOutcome out;
      {
        ScopedSpan action_span("action-exec");
        PROMISES_ASSIGN_OR_RETURN(
            out, ExecuteLocked(txn.get(), &scope, client, *request.action,
                               *env));
        if (!out.ok) action_span.set_status("action-failed");
      }
      ActionResultBody& r = reply.action_result.emplace();
      r.ok = out.ok;
      r.error = std::move(out.error);
      r.outputs = std::move(out.outputs);
    }
  }

  PROMISES_RETURN_IF_ERROR(DrainPendingScoped(txn.get(), scope));
  LogTicket ticket;
  if (oplog_.load(std::memory_order_acquire) != nullptr) {
    ticket = LogOperation(request.Encode(), consumed_id);
  }
  bool dedup_inserted = false;
  if (dedup_key != nullptr && ticket.log != nullptr &&
      ticket.enqueue_error.ok()) {
    // Sequencing-point insert: the reply joins the dedup table tagged
    // with its record's LSN while the stripe locks are still held, so a
    // fuzzy checkpoint's cut filter (lsn <= cut) keeps exactly the
    // replies whose operations the snapshot covers.
    std::string encoded = reply.Encode();
    std::lock_guard<std::mutex> lk(dedup_mu_);
    dedup_inserted =
        RememberReplyLocked(*dedup_key, std::move(encoded), ticket.sequence);
  }
  Status commit_status = txn->Commit();
  if (!commit_status.ok()) {
    if (dedup_inserted) {
      // The reply never happened; a retry must re-execute.
      std::lock_guard<std::mutex> lk(dedup_mu_);
      dedup_completed_.erase(*dedup_key);
    }
    return commit_status;
  }
  // A durability failure cannot fail the envelope reply: error replies
  // are not cached by the dedup layer, so a client retry would
  // re-execute an operation that already committed. The loss is still
  // loud — detach counter, error span — and direct-API callers get
  // kDataLoss through `direct` (see AwaitLogDurable).
  //
  // Inside an epoch the durable wait is deferred: the operation's
  // sequence is handed to the executor, which waits once per epoch on
  // the maximum before completing any reply (so "reply implies
  // durable" still holds end to end). An enqueue failure is handled
  // here either way — AwaitLogDurable does not block on those.
  if (tls_epoch_ != nullptr && ticket.log != nullptr &&
      ticket.enqueue_error.ok()) {
    if (ticket.sequence > tls_epoch_->log_sequence) {
      tls_epoch_->log_sequence = ticket.sequence;
    }
  } else {
    Status durable = AwaitLogDurable(ticket);
    if (direct != nullptr) direct->durable = std::move(durable);
  }
  if (direct != nullptr) direct->consumed_id = consumed_id;
  return result;
}

Result<std::unique_ptr<Transaction>> PromiseManager::AcquireEpoch() {
  LockScope scope;
  return BeginOperation(&scope, {}, /*whole_manager=*/true);
}

PromiseManager::EpochOpResult PromiseManager::HandleInEpoch(
    const Envelope& request, const std::set<std::string>* allowed) {
  EpochTls ctx;
  ctx.allowed = allowed;
  tls_epoch_ = &ctx;
  EpochOpResult out;
  out.reply = Handle(request);
  tls_epoch_ = nullptr;
  out.partition_miss = ctx.miss;
  out.log_sequence = ctx.log_sequence;
  return out;
}

Status PromiseManager::WaitEpochDurable(uint64_t max_sequence) {
  if (max_sequence == 0) return Status::OK();
  LogTicket ticket;
  ticket.log = oplog_.load(std::memory_order_acquire);
  ticket.sequence = max_sequence;
  if (ticket.log == nullptr) return Status::OK();  // detached meanwhile
  // The epoch is the group: no further committers are coming, so the
  // writer should flush now rather than linger out its window.
  ticket.log->KickFlush();
  return AwaitLogDurable(ticket);
}

void PromiseManager::RegisterService(const std::string& name, ServiceFn fn) {
  std::lock_guard<std::mutex> lk(config_mu_);
  services_[name] = std::move(fn);
}

Status PromiseManager::FederateClass(const std::string& virtual_cls,
                                     std::vector<std::string> members) {
  {
    std::lock_guard<std::mutex> lk(engines_mu_);
    if (engines_.count(virtual_cls)) {
      return Status::FailedPrecondition("class '" + virtual_cls +
                                        "' already has an engine; federate "
                                        "before use");
    }
  }
  std::lock_guard<std::mutex> lk(config_mu_);
  if (federated_.count(virtual_cls) || delegated_.count(virtual_cls)) {
    return Status::FailedPrecondition("class '" + virtual_cls +
                                      "' already has an engine; federate "
                                      "before use");
  }
  if (rm_->HasPool(virtual_cls) || rm_->HasInstanceClass(virtual_cls)) {
    return Status::AlreadyExists("'" + virtual_cls +
                                 "' names a concrete resource class");
  }
  if (members.empty()) {
    return Status::InvalidArgument("federation needs at least one member");
  }
  for (const std::string& member : members) {
    if (!rm_->HasInstanceClass(member)) {
      return Status::NotFound("member '" + member +
                              "' is not an instance class");
    }
  }
  for (const std::string& member : members) {
    member_to_virtual_[member].push_back(virtual_cls);
  }
  federated_[virtual_cls] = std::move(members);
  return Status::OK();
}

Status PromiseManager::DelegateClass(const std::string& cls,
                                     const std::string& upstream) {
  if (transport_ == nullptr) {
    return Status::FailedPrecondition(
        "delegation requires a transport; construct the manager with one");
  }
  {
    std::lock_guard<std::mutex> lk(engines_mu_);
    if (engines_.count(cls)) {
      return Status::FailedPrecondition(
          "class '" + cls + "' already has an engine; delegate before use");
    }
  }
  std::lock_guard<std::mutex> lk(config_mu_);
  delegated_[cls] = upstream;
  return Status::OK();
}

Result<std::vector<PromiseId>> PromiseManager::BreakUntilConsistent(
    std::unique_ptr<Transaction> txn, const std::string& cls,
    const std::string& reason, const std::string& log_payload) {
  std::vector<PromiseRecord> broken;
  Timestamp now = clock_->Now();
  while (true) {
    Status verify = VerifyAllLocked(txn.get());
    if (verify.ok()) break;
    if (!verify.IsViolated()) return verify;
    // Break the newest promise covering the damaged class: later
    // promises lose to earlier ones (a simple, predictable policy).
    std::vector<const PromiseRecord*> candidates =
        table_.ActiveForClass(cls, now);
    if (candidates.empty()) {
      // No direct promise names the damaged class, yet verification
      // still fails — the damage hit a member of a federated virtual
      // class (the covering promise lives on the virtual class). Widen
      // the hunt to every active promise.
      candidates = table_.Active(now);
    }
    if (candidates.empty()) {
      return Status::Internal(
          "external damage on '" + cls +
          "' cannot be absorbed by breaking promises: " + verify.ToString());
    }
    const PromiseRecord* victim = candidates.front();
    for (const PromiseRecord* r : candidates) {
      if (victim->id < r->id) victim = r;
    }
    PromiseRecord copy = *victim;
    PROMISES_RETURN_IF_ERROR(
        ReleaseOneLocked(txn.get(), victim->id, PromiseState::kViolated));
    copy.state = PromiseState::kViolated;
    broken.push_back(std::move(copy));
    stats_.promises_broken.fetch_add(1, std::memory_order_relaxed);
  }
  // Sequenced before the commit releases the whole-manager lock, like
  // every other logged operation.
  LogTicket ticket = LogOperation(log_payload);
  PROMISES_RETURN_IF_ERROR(txn->Commit());
  // Notify outside the transaction so handlers may call back into the
  // manager.
  std::vector<PromiseId> ids;
  for (const PromiseRecord& r : broken) {
    ids.push_back(r.id);
    if (violation_handler_) violation_handler_(r, reason);
  }
  PROMISES_RETURN_IF_ERROR(AwaitLogDurable(ticket));
  return ids;
}

Result<std::vector<PromiseId>> PromiseManager::ReportExternalDamage(
    const std::string& cls, int64_t quantity_lost) {
  if (quantity_lost <= 0) {
    return Status::InvalidArgument("quantity lost must be > 0");
  }
  LockScope scope;
  PROMISES_ASSIGN_OR_RETURN(
      std::unique_ptr<Transaction> txn,
      BeginOperation(&scope, {}, /*whole_manager=*/true));
  PROMISES_RETURN_IF_ERROR(ExpireDueLocked(txn.get(), scope));
  PROMISES_ASSIGN_OR_RETURN(int64_t on_hand,
                            rm_->GetQuantity(txn.get(), cls));
  int64_t loss = std::min(quantity_lost, on_hand);
  PROMISES_RETURN_IF_ERROR(rm_->AdjustQuantity(txn.get(), cls, -loss));
  return BreakUntilConsistent(
      std::move(txn), cls,
      "external damage destroyed " + std::to_string(loss) + " units of '" +
          cls + "'",
      "damage|" + cls + "|" + std::to_string(quantity_lost));
}

Result<std::vector<PromiseId>> PromiseManager::ReportInstanceLost(
    const std::string& cls, const std::string& id) {
  LockScope scope;
  PROMISES_ASSIGN_OR_RETURN(
      std::unique_ptr<Transaction> txn,
      BeginOperation(&scope, {}, /*whole_manager=*/true));
  PROMISES_RETURN_IF_ERROR(ExpireDueLocked(txn.get(), scope));
  PROMISES_RETURN_IF_ERROR(
      rm_->SetInstanceStatus(txn.get(), cls, id, InstanceStatus::kTaken));
  return BreakUntilConsistent(std::move(txn), cls,
                              "instance '" + id + "' of '" + cls +
                                  "' was lost",
                              "lose|" + cls + "|" + id);
}

size_t PromiseManager::ExpireDue() {
  LockScope scope;
  Result<std::unique_ptr<Transaction>> txn =
      BeginOperation(&scope, {}, /*whole_manager=*/true);
  if (!txn.ok()) return 0;
  uint64_t before = stats_.expired.load(std::memory_order_relaxed);
  if (!ExpireDueLocked(txn->get(), scope).ok()) {
    return 0;  // txn destructor rolls back
  }
  if (!DrainPendingScoped(txn->get(), scope).ok()) return 0;
  if (!(*txn)->Commit().ok()) return 0;
  return stats_.expired.load(std::memory_order_relaxed) - before;
}

const PromiseRecord* PromiseManager::FindPromise(PromiseId id) const {
  return table_.Find(id);
}

PromiseManagerStats PromiseManager::stats() const {
  PromiseManagerStats s;
  s.requests = stats_.requests.load(std::memory_order_relaxed);
  s.granted = stats_.granted.load(std::memory_order_relaxed);
  s.rejected = stats_.rejected.load(std::memory_order_relaxed);
  s.released = stats_.released.load(std::memory_order_relaxed);
  s.expired = stats_.expired.load(std::memory_order_relaxed);
  s.updates = stats_.updates.load(std::memory_order_relaxed);
  s.actions = stats_.actions.load(std::memory_order_relaxed);
  s.action_failures = stats_.action_failures.load(std::memory_order_relaxed);
  s.violations_rolled_back =
      stats_.violations_rolled_back.load(std::memory_order_relaxed);
  s.expired_use_errors =
      stats_.expired_use_errors.load(std::memory_order_relaxed);
  s.promises_broken = stats_.promises_broken.load(std::memory_order_relaxed);
  s.duplicates_replayed =
      stats_.duplicates_replayed.load(std::memory_order_relaxed);
  s.deadline_sheds = stats_.deadline_sheds.load(std::memory_order_relaxed);
  return s;
}

ResourceEngine* PromiseManager::EngineIfExists(const std::string& cls) {
  std::lock_guard<std::mutex> lk(engines_mu_);
  auto it = engines_.find(cls);
  return it == engines_.end() ? nullptr : it->second.get();
}

std::string PromiseManager::DumpState() const {
  Timestamp now = clock_->Now();
  std::string out = "promise-manager '" + config_.name + "' at t=" +
                    std::to_string(now) + "\n";
  out += "  active promises: " + std::to_string(table_.size()) + "\n";
  for (const PromiseRecord* rec : table_.Active(now)) {
    out += "    " + rec->id.ToString() + " owner=" +
           rec->owner.ToString() + " expires=" +
           std::to_string(rec->expires_at) + "\n";
    for (const Predicate& pred : rec->predicates) {
      out += "      " + pred.ToString() + "\n";
    }
  }
  out += "  engines:\n";
  std::lock_guard<std::mutex> lk(engines_mu_);
  for (const auto& [cls, engine] : engines_) {
    out += "    " + cls + ": " +
           std::string(TechniqueToString(engine->technique())) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------
// ActionContext

ResourceManager* ActionContext::rm() const { return manager_->rm_; }

bool ActionContext::InEnvironment(PromiseId promise) const {
  return std::find(env_promises_.begin(), env_promises_.end(), promise) !=
         env_promises_.end();
}

Status ActionContext::EnsurePromiseLocked(PromiseId promise) {
  auto classes = manager_->table_.ClassesOf(promise);
  if (!classes) return Status::OK();  // gone; callers report not-active
  for (const std::string& cls : *classes) {
    PROMISES_RETURN_IF_ERROR(
        manager_->EnsureClassLocked(txn_, scope_, cls));
  }
  return Status::OK();
}

namespace {

/// Locates the predicate of `rec` on `cls` whose units cover the n-th
/// take, returning the predicate and the unit index within it.
Result<std::pair<const Predicate*, int64_t>> LocateUnit(
    const PromiseRecord& rec, const std::string& cls, int64_t n) {
  int64_t base = 0;
  for (const Predicate& pred : rec.predicates) {
    if (pred.resource_class() != cls) continue;
    int64_t capacity;
    if (pred.kind() == PredicateKind::kNamed) {
      capacity = 1;
    } else if (pred.kind() == PredicateKind::kProperty) {
      capacity = pred.count();
    } else {
      continue;  // quantity predicates have no instances
    }
    if (n < base + capacity) {
      return std::make_pair(&pred, n - base);
    }
    base += capacity;
  }
  return Status::FailedPrecondition(
      "promise " + rec.id.ToString() + " has no remaining instance units on '" +
      cls + "' (all " + std::to_string(base) + " consumed)");
}

}  // namespace

Result<std::string> ActionContext::PeekInstance(PromiseId promise,
                                                const std::string& cls) {
  PROMISES_RETURN_IF_ERROR(EnsurePromiseLocked(promise));
  PROMISES_RETURN_IF_ERROR(manager_->EnsureClassLocked(txn_, scope_, cls));
  const PromiseRecord* rec = manager_->table_.Find(promise);
  if (rec == nullptr || !rec->ActiveAt(manager_->clock_->Now())) {
    return Status::Expired("promise " + promise.ToString() + " is not active");
  }
  int64_t n = taken_[{promise, cls}];
  PROMISES_ASSIGN_OR_RETURN(auto located, LocateUnit(*rec, cls, n));
  PROMISES_ASSIGN_OR_RETURN(ResourceEngine * engine,
                            manager_->EngineFor(cls));
  return engine->ResolveInstance(txn_, promise, *located.first,
                                 located.second);
}

Result<std::string> ActionContext::TakeInstance(PromiseId promise,
                                                const std::string& cls) {
  if (!InEnvironment(promise)) {
    return Status::FailedPrecondition(
        "promise " + promise.ToString() +
        " is not part of this action's environment");
  }
  PROMISES_RETURN_IF_ERROR(EnsurePromiseLocked(promise));
  PROMISES_RETURN_IF_ERROR(manager_->EnsureClassLocked(txn_, scope_, cls));
  const PromiseRecord* rec = manager_->table_.Find(promise);
  if (rec == nullptr || !rec->ActiveAt(manager_->clock_->Now())) {
    return Status::Expired("promise " + promise.ToString() +
                           " is not active");
  }
  int64_t n = taken_[{promise, cls}];
  PROMISES_ASSIGN_OR_RETURN(auto located, LocateUnit(*rec, cls, n));
  PROMISES_ASSIGN_OR_RETURN(ResourceEngine * engine,
                            manager_->EngineFor(cls));
  PROMISES_ASSIGN_OR_RETURN(
      std::string instance,
      engine->TakeInstance(txn_, promise, *located.first, located.second,
                           manager_->rm_));
  ++taken_[{promise, cls}];
  return instance;
}

Status ActionContext::TakeQuantity(const std::string& cls, int64_t n) {
  if (n <= 0) return Status::InvalidArgument("take amount must be > 0");
  if (manager_->config_.strict_actions) {
    return Status::FailedPrecondition(
        "strict mode: consuming '" + cls +
        "' requires a covering promise (use TakeQuantityUnder)");
  }
  PROMISES_RETURN_IF_ERROR(manager_->EnsureClassLocked(txn_, scope_, cls));
  return manager_->rm_->AdjustQuantity(txn_, cls, -n);
}

Status ActionContext::TakeQuantityUnder(PromiseId promise,
                                        const std::string& cls, int64_t n) {
  if (n <= 0) return Status::InvalidArgument("take amount must be > 0");
  if (!InEnvironment(promise)) {
    return Status::FailedPrecondition(
        "promise " + promise.ToString() +
        " is not part of this action's environment");
  }
  PROMISES_RETURN_IF_ERROR(EnsurePromiseLocked(promise));
  PROMISES_RETURN_IF_ERROR(manager_->EnsureClassLocked(txn_, scope_, cls));
  const PromiseRecord* rec = manager_->table_.Find(promise);
  if (rec == nullptr || !rec->ActiveAt(manager_->clock_->Now())) {
    return Status::Expired("promise " + promise.ToString() +
                           " is not active");
  }
  PROMISES_RETURN_IF_ERROR(manager_->rm_->AdjustQuantity(txn_, cls, -n));
  PROMISES_ASSIGN_OR_RETURN(ResourceEngine * engine,
                            manager_->EngineFor(cls));
  for (const Predicate& pred : rec->predicates) {
    if (pred.resource_class() == cls &&
        pred.kind() == PredicateKind::kQuantity) {
      return engine->NoteConsumed(txn_, promise, pred, n);
    }
  }
  // No quantity predicate on this class: plain unprotected consumption.
  return Status::OK();
}

Result<ActionResultBody> ActionContext::ForwardUpstream(
    PromiseId promise, const std::string& cls, ActionBody action,
    bool release_after) {
  if (!InEnvironment(promise)) {
    return Status::FailedPrecondition(
        "promise " + promise.ToString() +
        " is not part of this action's environment");
  }
  PROMISES_RETURN_IF_ERROR(EnsurePromiseLocked(promise));
  PROMISES_RETURN_IF_ERROR(manager_->EnsureClassLocked(txn_, scope_, cls));
  PROMISES_ASSIGN_OR_RETURN(ResourceEngine * engine, manager_->EngineFor(cls));
  if (engine->technique() != Technique::kDelegated) {
    return Status::FailedPrecondition("class '" + cls +
                                      "' is not delegated upstream");
  }
  auto* delegation = static_cast<DelegationEngine*>(engine);
  PROMISES_ASSIGN_OR_RETURN(PromiseId upstream_id,
                            delegation->UpstreamPromise(promise));
  Envelope env;
  env.message_id = manager_->transport_->NextMessageId();
  env.from = manager_->config_.name;
  env.to = delegation->upstream_endpoint();
  env.environment = EnvironmentHeader{{{upstream_id, release_after}}};
  env.action = std::move(action);
  PROMISES_ASSIGN_OR_RETURN(Envelope reply, manager_->transport_->Send(env));
  if (!reply.action_result) {
    return Status::Internal("upstream sent no action-result");
  }
  return *reply.action_result;
}

}  // namespace promises

#include "core/tentative_engine.h"

#include <algorithm>

#include "common/string_util.h"
#include "predicate/evaluator.h"

namespace promises {
namespace {

// Distinct predicate texts whose candidate sets are kept; past this the
// cache starts over, so odd workloads cannot grow it without bound.
constexpr size_t kMaxCachedPredicates = 256;

}  // namespace

size_t TentativeEngine::BeginOp(Transaction* txn) {
  // The promise-manager stripe serializes every transaction that calls
  // this engine, so a new transaction id means the previous one has
  // committed or rolled back and its journal is dead.
  if (txn->id() != journal_txn_) {
    matcher_.ForgetJournal();
    journal_txn_ = txn->id();
  }
  const size_t mark = matcher_.Mark();
  txn->PushUndo([this, mark, rights = instance_ids_.size(),
                 next = next_demand_, reallocations = reallocations_,
                 synced = synced_] {
    matcher_.RollbackTo(mark);
    while (instance_ids_.size() > rights) {
      index_of_.erase(instance_ids_.back());
      instance_ids_.pop_back();
    }
    next_demand_ = next;
    reallocations_ = reallocations;
    // Versions only grow, so the restored ones match the class again
    // only if it is unchanged since the mark; otherwise the next Sync
    // reconciles (and rebuilds the order and cache) in full.
    synced_ = synced;
  });
  return mark;
}

Status TentativeEngine::Sync(Transaction* txn) {
  PROMISES_ASSIGN_OR_RETURN(InstanceClassVersions now,
                            ctx_.rm->GetClassVersions(txn, cls_));
  if (synced_ == now) return Status::OK();
  const bool reshaped = !synced_ || now.shape != synced_->shape;
  if (reshaped) {
    candidates_.clear();
    visit_order_.clear();
  }
  size_t pos = 0;
  PROMISES_RETURN_IF_ERROR(ctx_.rm->ForEachInstance(
      txn, cls_,
      [&](const std::string& id, InstanceStatus status,
          const PropertyMap&) -> Status {
        size_t idx;
        if (reshaped) {
          // Index new instances (appends only; instance removal from a
          // class is not part of the model).
          auto [it, inserted] = index_of_.try_emplace(id, 0);
          if (inserted) {
            it->second = matcher_.AddRight();
            instance_ids_.push_back(id);
          }
          idx = it->second;
          visit_order_.push_back(idx);
        } else if (pos < visit_order_.size()) {
          idx = visit_order_[pos++];
        } else {
          return Status::Internal("tentative engine '" + cls_ +
                                  "': population changed without a shape "
                                  "version bump");
        }
        // Reconcile statuses changed behind the matcher's back. A taken
        // right drops out of the matching; a failed rehouse surfaces
        // through VerifyConsistent's saturation check.
        bool usable = status != InstanceStatus::kTaken;
        if (!usable && matcher_.RightEnabled(idx)) {
          matcher_.DisableRight(idx);
        } else if (usable && !matcher_.RightEnabled(idx)) {
          matcher_.EnableRight(idx);
        }
        return Status::OK();
      }));
  synced_ = now;
  return Status::OK();
}

Result<const std::vector<size_t>*> TentativeEngine::Candidates(
    Transaction* txn, const Predicate& pred, const std::string& text) {
  auto it = candidates_.find(text);
  if (it != candidates_.end()) return &it->second;
  if (candidates_.size() >= kMaxCachedPredicates) candidates_.clear();
  const Schema* schema = ctx_.rm->GetSchema(cls_);
  std::vector<size_t> rights;
  size_t pos = 0;
  PROMISES_RETURN_IF_ERROR(ctx_.rm->ForEachInstance(
      txn, cls_,
      [&](const std::string&, InstanceStatus,
          const PropertyMap& properties) -> Status {
        if (pos >= visit_order_.size()) {
          return Status::Internal("tentative engine '" + cls_ +
                                  "': candidates read before Sync");
        }
        PROMISES_ASSIGN_OR_RETURN(bool m,
                                  InstanceMatches(pred, properties, schema));
        if (m) rights.push_back(visit_order_[pos]);
        ++pos;
        return Status::OK();
      }));
  return &candidates_.emplace(text, std::move(rights)).first->second;
}

Status TentativeEngine::MirrorStatuses(Transaction* txn, size_t mark) {
  matcher_.OwnersEditedSince(mark, &edited_);
  bool in_sync = false;
  bool wrote = false;
  for (const auto& [r, before] : edited_) {
    uint64_t after = matcher_.OwnerOf(r);
    if (before == after) continue;
    PROMISES_ASSIGN_OR_RETURN(
        InstanceStatus status,
        ctx_.rm->GetInstanceStatus(txn, cls_, instance_ids_[r]));
    if (status == InstanceStatus::kTaken) continue;
    InstanceStatus want = after != 0 ? InstanceStatus::kPromised
                                     : InstanceStatus::kAvailable;
    if (status == want) continue;
    if (!wrote) {
      // Our own writes leave the matcher in sync if it was in sync
      // before them (the class lock keeps everyone else out).
      PROMISES_ASSIGN_OR_RETURN(InstanceClassVersions v,
                                ctx_.rm->GetClassVersions(txn, cls_));
      in_sync = synced_ == v;
      wrote = true;
    }
    PROMISES_RETURN_IF_ERROR(
        ctx_.rm->SetInstanceStatus(txn, cls_, instance_ids_[r], want));
  }
  if (wrote && in_sync) {
    PROMISES_ASSIGN_OR_RETURN(synced_, ctx_.rm->GetClassVersions(txn, cls_));
  }
  return Status::OK();
}

Status TentativeEngine::Reserve(Transaction* txn, const PromiseRecord& record,
                                const Predicate& pred) {
  if (pred.kind() == PredicateKind::kQuantity) {
    return Status::InvalidArgument(
        "tentative engine supports named and property predicates only");
  }
  const size_t mark = BeginOp(txn);
  PROMISES_RETURN_IF_ERROR(Sync(txn));
  // Owner changes from here on are this grant's; Sync's rehousing of
  // demands off taken rights is not a reallocation.
  const size_t grant_mark = matcher_.Mark();
  std::string text = pred.ToString();

  const std::vector<size_t>* candidates;
  std::vector<size_t> named;
  int64_t units = 1;
  if (pred.kind() == PredicateKind::kNamed) {
    auto it = index_of_.find(pred.instance_id());
    if (it == index_of_.end()) {
      return Status::NotFound("instance '" + pred.instance_id() +
                              "' not found in '" + cls_ + "'");
    }
    named.push_back(it->second);
    candidates = &named;
  } else {
    PROMISES_ASSIGN_OR_RETURN(candidates, Candidates(txn, pred, text));
    units = pred.count();
  }

  std::vector<uint64_t> demand_ids;
  for (int64_t u = 0; u < units; ++u) {
    uint64_t d = next_demand_++;
    if (!matcher_.AddDemand(d, *candidates)) {
      // The operation's undo rolls back the units already added when
      // the transaction rolls back; report the precondition failure.
      return Status::FailedPrecondition(
          "no assignment possible for " + text + " in '" + cls_ +
          "' even after reallocation");
    }
    demand_ids.push_back(d);
  }

  // Count displacements: any right whose owner changed from one demand
  // to a different demand (not 0) was reallocated.
  matcher_.OwnersEditedSince(grant_mark, &edited_);
  for (const auto& [r, before] : edited_) {
    uint64_t after = matcher_.OwnerOf(r);
    if (before != 0 && after != 0 && after != before) ++reallocations_;
  }

  AssignKey key(record.id, std::move(text));
  auto [entry, inserted] = ledger_.try_emplace(key);
  std::vector<uint64_t> replaced =
      inserted ? std::vector<uint64_t>() : std::move(entry->second);
  entry->second = std::move(demand_ids);
  txn->PushUndo([this, key = std::move(key), inserted,
                 replaced = std::move(replaced)]() mutable {
    if (inserted) {
      ledger_.erase(key);
    } else {
      ledger_[key] = std::move(replaced);
    }
  });
  return MirrorStatuses(txn, mark);
}

Status TentativeEngine::Unreserve(Transaction* txn, PromiseId id,
                                  const Predicate& pred) {
  auto it = ledger_.find(KeyOf(id, pred));
  if (it == ledger_.end()) {
    return Status::Internal("no tentative assignment for " + id.ToString() +
                            " on '" + cls_ + "'");
  }
  const size_t mark = BeginOp(txn);
  for (uint64_t d : it->second) matcher_.RemoveDemand(d);
  txn->PushUndo([this, key = it->first, demands = std::move(it->second)] {
    ledger_[key] = demands;
  });
  ledger_.erase(it);
  return MirrorStatuses(txn, mark);
}

Result<int64_t> TentativeEngine::CountHeadroom(Transaction* txn,
                                               Timestamp now,
                                               const Predicate& pred) {
  (void)now;
  if (pred.kind() != PredicateKind::kProperty) {
    return Status::Unimplemented("count headroom needs a property predicate");
  }
  const size_t mark = BeginOp(txn);  // Sync's reconciliation rolls back too
  PROMISES_RETURN_IF_ERROR(Sync(txn));
  PROMISES_ASSIGN_OR_RETURN(const std::vector<size_t>* candidates,
                            Candidates(txn, pred, pred.ToString()));
  // Probe between a mark and a rollback so the live matching is
  // untouched.
  const size_t probe_mark = matcher_.Mark();
  int64_t headroom = 0;
  uint64_t probe = next_demand_ + 1'000'000;  // ids never persisted
  while (matcher_.AddDemand(probe++, *candidates)) ++headroom;
  matcher_.RollbackTo(probe_mark);
  PROMISES_RETURN_IF_ERROR(MirrorStatuses(txn, mark));
  return headroom;
}

Status TentativeEngine::VerifyConsistent(Transaction* txn, Timestamp now) {
  const size_t mark = BeginOp(txn);
  PROMISES_RETURN_IF_ERROR(Sync(txn));
  PROMISES_RETURN_IF_ERROR(MirrorStatuses(txn, mark));
  for (const auto& [key, demand_ids] : ledger_) {
    const PromiseRecord* rec = ctx_.table->Find(key.first);
    if (rec == nullptr || !rec->ActiveAt(now)) continue;
    for (uint64_t d : demand_ids) {
      if (matcher_.AssignmentOf(d) == IncrementalMatcher::kUnmatched) {
        return Status::Violated("promise " + key.first.ToString() + " on '" +
                                cls_ +
                                "' lost its backing instance and no "
                                "reallocation exists");
      }
    }
  }
  return Status::OK();
}

Result<std::string> TentativeEngine::ResolveInstance(Transaction* txn,
                                                     PromiseId id,
                                                     const Predicate& pred,
                                                     int64_t already_taken) {
  (void)txn;
  auto it = ledger_.find(KeyOf(id, pred));
  if (it == ledger_.end()) {
    return Status::NotFound("no tentative assignment for " + id.ToString());
  }
  if (already_taken < 0 ||
      already_taken >= static_cast<int64_t>(it->second.size())) {
    return Status::FailedPrecondition(
        "all " + std::to_string(it->second.size()) +
        " assigned instances already taken under " + id.ToString());
  }
  uint64_t d = it->second[static_cast<size_t>(already_taken)];
  size_t r = matcher_.AssignmentOf(d);
  if (r == IncrementalMatcher::kUnmatched) {
    return Status::FailedPrecondition("demand unit of " + id.ToString() +
                                      " is currently unmatched");
  }
  return instance_ids_[r];
}

std::string TentativeEngine::SerializeState() const {
  IncrementalMatcher::Snapshot snap = matcher_.TakeSnapshot();
  std::string out;
  EncodeField(&out, "tent1");
  EncodeField(&out, std::to_string(instance_ids_.size()));
  for (size_t i = 0; i < instance_ids_.size(); ++i) {
    EncodeField(&out, instance_ids_[i]);
    EncodeField(&out, snap.right_enabled[i] ? "1" : "0");
  }
  // Demands sorted by id so equal states serialize identically.
  std::vector<uint64_t> demand_ids;
  demand_ids.reserve(snap.demands.size());
  for (const auto& [id, demand] : snap.demands) demand_ids.push_back(id);
  std::sort(demand_ids.begin(), demand_ids.end());
  EncodeField(&out, std::to_string(demand_ids.size()));
  for (uint64_t id : demand_ids) {
    const IncrementalMatcher::Demand& demand = snap.demands.at(id);
    EncodeField(&out, std::to_string(id));
    bool matched = demand.matched_right != IncrementalMatcher::kUnmatched;
    EncodeField(&out, matched ? std::to_string(demand.matched_right) : "-1");
    EncodeField(&out, std::to_string(demand.candidates.size()));
    for (size_t candidate : demand.candidates) {
      EncodeField(&out, std::to_string(candidate));
    }
  }
  EncodeField(&out, std::to_string(ledger_.size()));
  for (const auto& [key, demands] : ledger_) {
    EncodeField(&out, std::to_string(key.first.value()));
    EncodeField(&out, key.second);
    EncodeField(&out, std::to_string(demands.size()));
    for (uint64_t d : demands) EncodeField(&out, std::to_string(d));
  }
  EncodeField(&out, std::to_string(next_demand_));
  EncodeField(&out, std::to_string(reallocations_));
  return out;
}

Status TentativeEngine::RestoreState(const std::string& blob) {
  std::string_view cursor(blob);
  auto next = [&cursor]() -> Result<int64_t> {
    PROMISES_ASSIGN_OR_RETURN(std::string field, DecodeField(&cursor));
    return ParseInt64(field);
  };
  PROMISES_ASSIGN_OR_RETURN(std::string tag, DecodeField(&cursor));
  if (tag != "tent1") {
    return Status::InvalidArgument("tentative engine '" + cls_ +
                                   "': unknown state tag '" + tag + "'");
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t rights, next());
  std::vector<std::string> instance_ids;
  std::unordered_map<std::string, size_t> index_of;
  IncrementalMatcher::Snapshot snap;
  snap.right_owner.assign(static_cast<size_t>(rights), 0);
  snap.right_enabled.assign(static_cast<size_t>(rights), true);
  for (int64_t i = 0; i < rights; ++i) {
    PROMISES_ASSIGN_OR_RETURN(std::string instance, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(std::string enabled, DecodeField(&cursor));
    index_of[instance] = static_cast<size_t>(i);
    instance_ids.push_back(std::move(instance));
    snap.right_enabled[static_cast<size_t>(i)] = enabled == "1";
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t demands, next());
  for (int64_t i = 0; i < demands; ++i) {
    PROMISES_ASSIGN_OR_RETURN(int64_t id, next());
    PROMISES_ASSIGN_OR_RETURN(int64_t matched, next());
    PROMISES_ASSIGN_OR_RETURN(int64_t candidates, next());
    IncrementalMatcher::Demand demand;
    for (int64_t j = 0; j < candidates; ++j) {
      PROMISES_ASSIGN_OR_RETURN(int64_t candidate, next());
      if (candidate < 0 || candidate >= rights) {
        return Status::InvalidArgument("tentative state: candidate index "
                                       "out of range");
      }
      demand.candidates.push_back(static_cast<size_t>(candidate));
    }
    if (matched >= 0) {
      if (matched >= rights) {
        return Status::InvalidArgument("tentative state: matched index "
                                       "out of range");
      }
      demand.matched_right = static_cast<size_t>(matched);
      snap.right_owner[static_cast<size_t>(matched)] =
          static_cast<uint64_t>(id);
    }
    snap.demands[static_cast<uint64_t>(id)] = std::move(demand);
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t entries, next());
  std::map<AssignKey, std::vector<uint64_t>> ledger;
  for (int64_t i = 0; i < entries; ++i) {
    PROMISES_ASSIGN_OR_RETURN(int64_t id, next());
    PROMISES_ASSIGN_OR_RETURN(std::string pred, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(int64_t count, next());
    std::vector<uint64_t> ids;
    for (int64_t j = 0; j < count; ++j) {
      PROMISES_ASSIGN_OR_RETURN(int64_t d, next());
      ids.push_back(static_cast<uint64_t>(d));
    }
    ledger[{PromiseId(static_cast<uint64_t>(id)), std::move(pred)}] =
        std::move(ids);
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t next_demand, next());
  PROMISES_ASSIGN_OR_RETURN(int64_t reallocations, next());
  instance_ids_ = std::move(instance_ids);
  index_of_ = std::move(index_of);
  ledger_ = std::move(ledger);
  next_demand_ = static_cast<uint64_t>(next_demand);
  reallocations_ = static_cast<uint64_t>(reallocations);
  matcher_.Restore(std::move(snap));
  // The restored matcher is reconciled with the class on the next Sync.
  synced_.reset();
  candidates_.clear();
  visit_order_.clear();
  journal_txn_ = TxnId();
  return Status::OK();
}

}  // namespace promises

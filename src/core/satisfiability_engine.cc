#include "core/satisfiability_engine.h"

#include <algorithm>

#include "common/string_util.h"
#include "predicate/evaluator.h"

namespace promises {

Status SatisfiabilityEngine::Reserve(Transaction* txn,
                                     const PromiseRecord& record,
                                     const Predicate& pred) {
  (void)pred;  // The check is global: the candidate is already tabled.
  std::string reason;
  PROMISES_ASSIGN_OR_RETURN(
      bool ok, CheckNow(txn, ctx_.clock->Now(), &reason));
  if (!ok) {
    return Status::FailedPrecondition("promise " + record.id.ToString() +
                                      " not grantable on '" + cls_ +
                                      "': " + reason);
  }
  return Status::OK();
}

Status SatisfiabilityEngine::Unreserve(Transaction* txn, PromiseId id,
                                       const Predicate& pred) {
  // Removal from the promise table is the release; only the
  // consumption ledger needs clearing.
  auto key = std::make_pair(id, pred.ToString());
  auto it = consumed_.find(key);
  if (it != consumed_.end()) {
    int64_t old = it->second;
    consumed_.erase(it);
    txn->PushUndo([this, key, old] { consumed_[key] = old; });
  }
  return Status::OK();
}

Status SatisfiabilityEngine::NoteConsumed(Transaction* txn, PromiseId id,
                                          const Predicate& pred,
                                          int64_t amount) {
  if (pred.kind() != PredicateKind::kQuantity || amount <= 0) {
    return Status::OK();
  }
  auto key = std::make_pair(id, pred.ToString());
  consumed_[key] += amount;
  txn->PushUndo([this, key, amount] {
    auto it = consumed_.find(key);
    if (it == consumed_.end()) return;
    it->second -= amount;
    if (it->second <= 0) consumed_.erase(it);
  });
  return Status::OK();
}

Status SatisfiabilityEngine::VerifyConsistent(Transaction* txn,
                                              Timestamp now) {
  std::string reason;
  PROMISES_ASSIGN_OR_RETURN(bool ok, CheckNow(txn, now, &reason));
  if (!ok) {
    return Status::Violated("promises over '" + cls_ +
                            "' no longer satisfiable: " + reason);
  }
  return Status::OK();
}

Result<std::string> SatisfiabilityEngine::ResolveInstance(
    Transaction* txn, PromiseId id, const Predicate& pred,
    int64_t already_taken) {
  if (is_pool_) {
    return Status::Unimplemented("pool resources have no instances");
  }
  std::string reason;
  std::string resolved;
  PROMISES_ASSIGN_OR_RETURN(
      bool ok, CheckNow(txn, ctx_.clock->Now(), &reason, id, &pred,
                        already_taken, &resolved));
  if (!ok) {
    return Status::FailedPrecondition("cannot resolve instance for " +
                                      id.ToString() + ": " + reason);
  }
  if (resolved.empty()) {
    return Status::FailedPrecondition(
        "promise " + id.ToString() + " has no remaining units under " +
        pred.ToString());
  }
  return resolved;
}

Result<int64_t> SatisfiabilityEngine::QuantityHeadroom(Transaction* txn,
                                                       Timestamp now) {
  if (!is_pool_) {
    return Status::Unimplemented("instance classes have no quantity headroom");
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t quantity, ctx_.rm->GetQuantity(txn, cls_));
  int64_t promised = 0;
  for (const PromiseRecord* r : ctx_.table->ActiveForClass(cls_, now)) {
    for (const Predicate& p : r->predicates) {
      if (p.resource_class() != cls_ ||
          p.kind() != PredicateKind::kQuantity) {
        continue;
      }
      int64_t demand = p.amount();
      auto cit = consumed_.find(std::make_pair(r->id, p.ToString()));
      if (cit != consumed_.end()) {
        demand = std::max<int64_t>(0, demand - cit->second);
      }
      promised += demand;
    }
  }
  return std::max<int64_t>(0, quantity - promised);
}

Status SatisfiabilityEngine::CollectRights(
    Transaction* txn, const std::vector<const Predicate*>& preds,
    std::vector<std::string>* right_ids,
    std::vector<std::vector<size_t>>* candidates) {
  const Schema* schema = ctx_.rm->GetSchema(cls_);
  std::map<std::string, size_t> right_of_id;
  candidates->assign(preds.size(), {});
  PROMISES_RETURN_IF_ERROR(ctx_.rm->ForEachInstance(
      txn, cls_,
      [&](const std::string& id, InstanceStatus status,
          const PropertyMap& properties) -> Status {
        if (status != InstanceStatus::kAvailable) return Status::OK();
        size_t ri = right_ids->size();
        right_ids->push_back(id);
        right_of_id.emplace(id, ri);
        for (size_t i = 0; i < preds.size(); ++i) {
          if (preds[i]->kind() != PredicateKind::kProperty) continue;
          PROMISES_ASSIGN_OR_RETURN(
              bool m, InstanceMatches(*preds[i], properties, schema));
          if (m) (*candidates)[i].push_back(ri);
        }
        return Status::OK();
      }));
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i]->kind() != PredicateKind::kNamed) continue;
    auto it = right_of_id.find(preds[i]->instance_id());
    if (it != right_of_id.end()) (*candidates)[i].push_back(it->second);
  }
  return Status::OK();
}

Result<int64_t> SatisfiabilityEngine::CountHeadroom(Transaction* txn,
                                                    Timestamp now,
                                                    const Predicate& pred) {
  if (is_pool_ || pred.kind() != PredicateKind::kProperty) {
    return Status::Unimplemented("count headroom needs a property predicate "
                                 "on an instance class");
  }
  // Every existing demand, then `pred` last.
  std::vector<const Predicate*> preds;
  std::vector<int64_t> units;
  for (const PromiseRecord* r : ctx_.table->ActiveForClass(cls_, now)) {
    for (const Predicate& p : r->predicates) {
      if (p.resource_class() != cls_) continue;
      if (p.kind() == PredicateKind::kNamed) {
        units.push_back(1);
      } else if (p.kind() == PredicateKind::kProperty) {
        units.push_back(p.count());
      } else {
        continue;
      }
      preds.push_back(&p);
    }
  }
  preds.push_back(&pred);
  std::vector<std::string> right_ids;
  std::vector<std::vector<size_t>> candidates;
  PROMISES_RETURN_IF_ERROR(CollectRights(txn, preds, &right_ids, &candidates));

  // Seed an incremental matcher with every existing demand; then add
  // units of `pred` until no augmenting path remains.
  IncrementalMatcher matcher(right_ids.size());
  uint64_t next_demand = 1;
  for (size_t i = 0; i < units.size(); ++i) {
    for (int64_t u = 0; u < units[i]; ++u) {
      // Existing promises are satisfiable by invariant; a failed add
      // here means state drifted (e.g. mid-consumption) — treat the
      // unit as absorbing no headroom.
      (void)matcher.AddDemand(next_demand++, candidates[i]);
    }
  }
  int64_t headroom = 0;
  while (matcher.AddDemand(next_demand++, candidates.back())) ++headroom;
  return headroom;
}

Result<bool> SatisfiabilityEngine::CheckNow(
    Transaction* txn, Timestamp now, std::string* reason,
    PromiseId resolve_for, const Predicate* resolve_pred,
    int64_t resolve_taken, std::string* resolved) {
  std::vector<const PromiseRecord*> active =
      ctx_.table->ActiveForClass(cls_, now);

  if (is_pool_) {
    PROMISES_ASSIGN_OR_RETURN(int64_t quantity,
                              ctx_.rm->GetQuantity(txn, cls_));
    int64_t promised = 0;
    for (const PromiseRecord* r : active) {
      for (const Predicate& p : r->predicates) {
        if (p.resource_class() == cls_ &&
            p.kind() == PredicateKind::kQuantity) {
          int64_t demand = p.amount();
          auto cit = consumed_.find(std::make_pair(r->id, p.ToString()));
          if (cit != consumed_.end()) {
            demand = std::max<int64_t>(0, demand - cit->second);
          }
          promised += demand;
        }
      }
    }
    if (promised > quantity) {
      *reason = "promised " + std::to_string(promised) + " exceeds " +
                std::to_string(quantity) + " on hand";
      return false;
    }
    return true;
  }

  // Instance class: build the §5 bipartite graph. Left side: demand
  // units from every active promise on this class.
  std::vector<const Predicate*> preds;
  std::vector<PromiseId> owners;
  std::vector<int64_t> demand_counts;
  for (const PromiseRecord* r : active) {
    for (const Predicate& p : r->predicates) {
      if (p.resource_class() != cls_) continue;
      int64_t demand_count;
      if (p.kind() == PredicateKind::kNamed) {
        demand_count = 1;
      } else if (p.kind() == PredicateKind::kProperty) {
        demand_count = p.count();
      } else {
        continue;
      }
      // While an action consumes units under a promise it holds, the
      // consumed units no longer need backing.
      if (resolve_for.valid() && r->id == resolve_for &&
          resolve_pred != nullptr && p.Equals(*resolve_pred)) {
        demand_count = std::max<int64_t>(0, demand_count - resolve_taken);
      }
      preds.push_back(&p);
      owners.push_back(r->id);
      demand_counts.push_back(demand_count);
    }
  }
  // Right side: untaken (available) instances.
  std::vector<std::string> right_ids;
  std::vector<std::vector<size_t>> candidates;
  PROMISES_RETURN_IF_ERROR(CollectRights(txn, preds, &right_ids, &candidates));
  std::vector<Unit> units;
  for (size_t i = 0; i < preds.size(); ++i) {
    for (int64_t u = 0; u < demand_counts[i]; ++u) {
      units.push_back(Unit{owners[i], preds[i], candidates[i]});
    }
  }

  BipartiteGraph graph(units.size(), right_ids.size());
  for (size_t l = 0; l < units.size(); ++l) {
    for (size_t r : units[l].candidates) graph.AddEdge(l, r);
  }
  MatchingResult m = MaxMatching(graph);
  if (!m.Saturating()) {
    *reason = std::to_string(units.size()) + " demand units vs " +
              std::to_string(right_ids.size()) +
              " available instances; only " +
              std::to_string(m.size) + " satisfiable";
    return false;
  }

  if (resolve_for.valid() && resolved != nullptr && resolve_pred != nullptr) {
    for (size_t l = 0; l < units.size(); ++l) {
      if (units[l].promise == resolve_for &&
          units[l].pred->Equals(*resolve_pred)) {
        size_t r = m.match_left[l];
        if (r != MatchingResult::kUnmatched) {
          *resolved = right_ids[r];
        }
        break;
      }
    }
  }
  return true;
}

std::string SatisfiabilityEngine::SerializeState() const {
  std::string out;
  EncodeField(&out, "sat1");
  EncodeField(&out, std::to_string(consumed_.size()));
  for (const auto& [key, units] : consumed_) {
    EncodeField(&out, std::to_string(key.first.value()));
    EncodeField(&out, key.second);
    EncodeField(&out, std::to_string(units));
  }
  return out;
}

Status SatisfiabilityEngine::RestoreState(const std::string& blob) {
  std::string_view cursor(blob);
  auto next = [&cursor]() -> Result<int64_t> {
    PROMISES_ASSIGN_OR_RETURN(std::string field, DecodeField(&cursor));
    return ParseInt64(field);
  };
  PROMISES_ASSIGN_OR_RETURN(std::string tag, DecodeField(&cursor));
  if (tag != "sat1") {
    return Status::InvalidArgument("satisfiability engine '" + cls_ +
                                   "': unknown state tag '" + tag + "'");
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t entries, next());
  std::map<std::pair<PromiseId, std::string>, int64_t> consumed;
  for (int64_t i = 0; i < entries; ++i) {
    PROMISES_ASSIGN_OR_RETURN(int64_t id, next());
    PROMISES_ASSIGN_OR_RETURN(std::string pred, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(int64_t units, next());
    consumed[{PromiseId(static_cast<uint64_t>(id)), std::move(pred)}] = units;
  }
  consumed_ = std::move(consumed);
  return Status::OK();
}

}  // namespace promises

#include "core/tag_engine.h"

#include "common/string_util.h"
#include "predicate/evaluator.h"

namespace promises {

Status AllocatedTagEngine::TagInstance(Transaction* txn, const AssignKey& key,
                                       const std::string& instance) {
  PROMISES_RETURN_IF_ERROR(ctx_.rm->SetInstanceStatus(
      txn, cls_, instance, InstanceStatus::kPromised));
  assignments_[key].push_back(instance);
  txn->PushUndo([this, key] {
    auto it = assignments_.find(key);
    if (it == assignments_.end()) return;
    it->second.pop_back();
    if (it->second.empty()) assignments_.erase(it);
  });
  return Status::OK();
}

Status AllocatedTagEngine::Reserve(Transaction* txn,
                                   const PromiseRecord& record,
                                   const Predicate& pred) {
  AssignKey key = KeyOf(record.id, pred);
  if (pred.kind() == PredicateKind::kNamed) {
    PROMISES_ASSIGN_OR_RETURN(
        InstanceStatus status,
        ctx_.rm->GetInstanceStatus(txn, cls_, pred.instance_id()));
    if (status != InstanceStatus::kAvailable) {
      return Status::FailedPrecondition(
          "instance '" + pred.instance_id() + "' of '" + cls_ + "' is " +
          std::string(InstanceStatusToString(status)));
    }
    return TagInstance(txn, key, pred.instance_id());
  }
  if (pred.kind() == PredicateKind::kProperty) {
    const Schema* schema = ctx_.rm->GetSchema(cls_);
    std::vector<std::string> chosen;
    bool full = false;
    PROMISES_RETURN_IF_ERROR(ctx_.rm->ForEachInstance(
        txn, cls_,
        [&](const std::string& id, InstanceStatus status,
            const PropertyMap& properties) -> Status {
          if (full || status != InstanceStatus::kAvailable) {
            return Status::OK();
          }
          PROMISES_ASSIGN_OR_RETURN(bool m,
                                    InstanceMatches(pred, properties, schema));
          if (!m) return Status::OK();
          chosen.push_back(id);
          full = static_cast<int64_t>(chosen.size()) == pred.count();
          return Status::OK();
        }));
    if (static_cast<int64_t>(chosen.size()) < pred.count()) {
      return Status::FailedPrecondition(
          "only " + std::to_string(chosen.size()) + " of " +
          std::to_string(pred.count()) + " matching instances available in '" +
          cls_ + "'");
    }
    for (const std::string& id : chosen) {
      PROMISES_RETURN_IF_ERROR(TagInstance(txn, key, id));
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      "allocated-tags engine supports named and property predicates only");
}

Status AllocatedTagEngine::Unreserve(Transaction* txn, PromiseId id,
                                     const Predicate& pred) {
  AssignKey key = KeyOf(id, pred);
  auto it = assignments_.find(key);
  if (it == assignments_.end()) {
    return Status::Internal("no tag assignment for " + id.ToString() +
                            " on '" + cls_ + "'");
  }
  std::vector<std::string> released = it->second;
  for (const std::string& inst : released) {
    PROMISES_ASSIGN_OR_RETURN(InstanceStatus status,
                              ctx_.rm->GetInstanceStatus(txn, cls_, inst));
    // 'taken' instances were consumed under the promise and stay taken;
    // everything still merely 'promised' returns to the pool.
    if (status == InstanceStatus::kPromised) {
      PROMISES_RETURN_IF_ERROR(ctx_.rm->SetInstanceStatus(
          txn, cls_, inst, InstanceStatus::kAvailable));
    }
  }
  assignments_.erase(it);
  txn->PushUndo([this, key, released] { assignments_[key] = released; });
  return Status::OK();
}

Result<int64_t> AllocatedTagEngine::CountHeadroom(Transaction* txn,
                                                  Timestamp now,
                                                  const Predicate& pred) {
  (void)now;
  if (pred.kind() != PredicateKind::kProperty) {
    return Status::Unimplemented("count headroom needs a property predicate");
  }
  const Schema* schema = ctx_.rm->GetSchema(cls_);
  int64_t headroom = 0;
  PROMISES_RETURN_IF_ERROR(ctx_.rm->ForEachInstance(
      txn, cls_,
      [&](const std::string&, InstanceStatus status,
          const PropertyMap& properties) -> Status {
        if (status != InstanceStatus::kAvailable) return Status::OK();
        PROMISES_ASSIGN_OR_RETURN(bool m,
                                  InstanceMatches(pred, properties, schema));
        if (m) ++headroom;
        return Status::OK();
      }));
  return headroom;
}

Status AllocatedTagEngine::VerifyConsistent(Transaction* txn, Timestamp now) {
  // Every instance assigned to a promise still active must still carry
  // its 'promised' tag; a 'taken' or 'available' tag means some action
  // consumed or freed it without releasing the covering promise.
  for (const auto& [key, instances] : assignments_) {
    const PromiseRecord* rec = ctx_.table->Find(key.first);
    if (rec == nullptr || !rec->ActiveAt(now)) continue;
    for (const std::string& inst : instances) {
      PROMISES_ASSIGN_OR_RETURN(InstanceStatus status,
                                ctx_.rm->GetInstanceStatus(txn, cls_, inst));
      if (status != InstanceStatus::kPromised) {
        return Status::Violated(
            "instance '" + inst + "' of '" + cls_ + "' promised to " +
            key.first.ToString() + " but is now " +
            std::string(InstanceStatusToString(status)));
      }
    }
  }
  return Status::OK();
}

Result<std::string> AllocatedTagEngine::ResolveInstance(
    Transaction* txn, PromiseId id, const Predicate& pred,
    int64_t already_taken) {
  (void)txn;
  AssignKey key = KeyOf(id, pred);
  auto it = assignments_.find(key);
  if (it == assignments_.end()) {
    return Status::NotFound("no tag assignment for " + id.ToString());
  }
  if (already_taken < 0 ||
      already_taken >= static_cast<int64_t>(it->second.size())) {
    return Status::FailedPrecondition(
        "all " + std::to_string(it->second.size()) +
        " assigned instances already taken under " + id.ToString());
  }
  return it->second[static_cast<size_t>(already_taken)];
}

std::string AllocatedTagEngine::SerializeState() const {
  std::string out;
  EncodeField(&out, "tags1");
  EncodeField(&out, std::to_string(assignments_.size()));
  for (const auto& [key, instances] : assignments_) {
    EncodeField(&out, std::to_string(key.first.value()));
    EncodeField(&out, key.second);
    EncodeField(&out, std::to_string(instances.size()));
    for (const std::string& instance : instances) {
      EncodeField(&out, instance);
    }
  }
  return out;
}

Status AllocatedTagEngine::RestoreState(const std::string& blob) {
  std::string_view cursor(blob);
  auto next = [&cursor]() -> Result<int64_t> {
    PROMISES_ASSIGN_OR_RETURN(std::string field, DecodeField(&cursor));
    return ParseInt64(field);
  };
  PROMISES_ASSIGN_OR_RETURN(std::string tag, DecodeField(&cursor));
  if (tag != "tags1") {
    return Status::InvalidArgument("tag engine '" + cls_ +
                                   "': unknown state tag '" + tag + "'");
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t entries, next());
  std::map<AssignKey, std::vector<std::string>> assignments;
  for (int64_t i = 0; i < entries; ++i) {
    PROMISES_ASSIGN_OR_RETURN(int64_t id, next());
    PROMISES_ASSIGN_OR_RETURN(std::string pred, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(int64_t count, next());
    std::vector<std::string> instances;
    for (int64_t j = 0; j < count; ++j) {
      PROMISES_ASSIGN_OR_RETURN(std::string instance, DecodeField(&cursor));
      instances.push_back(std::move(instance));
    }
    assignments[{PromiseId(static_cast<uint64_t>(id)), std::move(pred)}] =
        std::move(instances);
  }
  assignments_ = std::move(assignments);
  return Status::OK();
}

}  // namespace promises

#include "core/federated_engine.h"

#include <set>

#include "common/string_util.h"
#include "predicate/evaluator.h"

namespace promises {

Result<std::vector<std::string>> FederatedEngine::EligibleMembers(
    const Predicate& pred) {
  if (pred.kind() != PredicateKind::kProperty) {
    return Status::InvalidArgument(
        "federated classes support property predicates only");
  }
  std::set<std::string> needed;
  pred.match()->CollectProperties(&needed);
  std::vector<std::string> eligible;
  for (const std::string& member : members_) {
    const Schema* schema = ctx_.rm->GetSchema(member);
    if (schema == nullptr) continue;
    bool exports_all = true;
    for (const std::string& prop : needed) {
      if (!schema->Has(prop)) {
        exports_all = false;
        break;
      }
    }
    if (exports_all) eligible.push_back(member);
  }
  if (eligible.empty()) {
    return Status::FailedPrecondition(
        "no provider of '" + cls_ + "' exports the properties required by " +
        pred.ToString());
  }
  return eligible;
}

Status FederatedEngine::Reserve(Transaction* txn, const PromiseRecord& record,
                                const Predicate& pred) {
  PROMISES_ASSIGN_OR_RETURN(std::vector<std::string> eligible,
                            EligibleMembers(pred));
  AssignKey key = KeyOf(record.id, pred);
  std::vector<Assignment> chosen;
  for (const std::string& member : eligible) {
    if (static_cast<int64_t>(chosen.size()) == pred.count()) break;
    const Schema* schema = ctx_.rm->GetSchema(member);
    PROMISES_RETURN_IF_ERROR(ctx_.rm->ForEachInstance(
        txn, member,
        [&](const std::string& id, InstanceStatus status,
            const PropertyMap& properties) -> Status {
          if (static_cast<int64_t>(chosen.size()) == pred.count() ||
              status != InstanceStatus::kAvailable) {
            return Status::OK();
          }
          PROMISES_ASSIGN_OR_RETURN(
              bool m, InstanceMatches(pred, properties, schema));
          if (m) chosen.push_back(Assignment{member, id});
          return Status::OK();
        }));
  }
  if (static_cast<int64_t>(chosen.size()) < pred.count()) {
    return Status::FailedPrecondition(
        "only " + std::to_string(chosen.size()) + " of " +
        std::to_string(pred.count()) +
        " matching instances available across " +
        std::to_string(eligible.size()) + " provider(s) of '" + cls_ + "'");
  }
  for (const Assignment& a : chosen) {
    PROMISES_RETURN_IF_ERROR(ctx_.rm->SetInstanceStatus(
        txn, a.member, a.instance, InstanceStatus::kPromised));
  }
  assignments_[key] = std::move(chosen);
  txn->PushUndo([this, key] { assignments_.erase(key); });
  return Status::OK();
}

Status FederatedEngine::Unreserve(Transaction* txn, PromiseId id,
                                  const Predicate& pred) {
  AssignKey key = KeyOf(id, pred);
  auto it = assignments_.find(key);
  if (it == assignments_.end()) {
    return Status::Internal("no federated assignment for " + id.ToString() +
                            " on '" + cls_ + "'");
  }
  std::vector<Assignment> released = it->second;
  for (const Assignment& a : released) {
    PROMISES_ASSIGN_OR_RETURN(
        InstanceStatus status,
        ctx_.rm->GetInstanceStatus(txn, a.member, a.instance));
    if (status == InstanceStatus::kPromised) {
      PROMISES_RETURN_IF_ERROR(ctx_.rm->SetInstanceStatus(
          txn, a.member, a.instance, InstanceStatus::kAvailable));
    }
  }
  assignments_.erase(it);
  txn->PushUndo([this, key, released] { assignments_[key] = released; });
  return Status::OK();
}

Status FederatedEngine::VerifyConsistent(Transaction* txn, Timestamp now) {
  for (const auto& [key, assignments] : assignments_) {
    const PromiseRecord* rec = ctx_.table->Find(key.first);
    if (rec == nullptr || !rec->ActiveAt(now)) continue;
    for (const Assignment& a : assignments) {
      PROMISES_ASSIGN_OR_RETURN(
          InstanceStatus status,
          ctx_.rm->GetInstanceStatus(txn, a.member, a.instance));
      if (status != InstanceStatus::kPromised) {
        return Status::Violated("instance '" + a.instance + "' of provider '" +
                                a.member + "' promised to " +
                                key.first.ToString() + " via '" + cls_ +
                                "' but is now " +
                                std::string(InstanceStatusToString(status)));
      }
    }
  }
  return Status::OK();
}

Result<std::string> FederatedEngine::ResolveInstance(Transaction* txn,
                                                     PromiseId id,
                                                     const Predicate& pred,
                                                     int64_t already_taken) {
  (void)txn;
  auto it = assignments_.find(KeyOf(id, pred));
  if (it == assignments_.end()) {
    return Status::NotFound("no federated assignment for " + id.ToString());
  }
  if (already_taken < 0 ||
      already_taken >= static_cast<int64_t>(it->second.size())) {
    return Status::FailedPrecondition(
        "all " + std::to_string(it->second.size()) +
        " assigned instances already taken under " + id.ToString());
  }
  const Assignment& a = it->second[static_cast<size_t>(already_taken)];
  return a.member + "/" + a.instance;
}

Result<std::string> FederatedEngine::TakeInstance(Transaction* txn,
                                                  PromiseId id,
                                                  const Predicate& pred,
                                                  int64_t already_taken,
                                                  ResourceManager* rm) {
  auto it = assignments_.find(KeyOf(id, pred));
  if (it == assignments_.end()) {
    return Status::NotFound("no federated assignment for " + id.ToString());
  }
  if (already_taken < 0 ||
      already_taken >= static_cast<int64_t>(it->second.size())) {
    return Status::FailedPrecondition(
        "all " + std::to_string(it->second.size()) +
        " assigned instances already taken under " + id.ToString());
  }
  const Assignment& a = it->second[static_cast<size_t>(already_taken)];
  PROMISES_RETURN_IF_ERROR(
      rm->SetInstanceStatus(txn, a.member, a.instance,
                            InstanceStatus::kTaken));
  return a.member + "/" + a.instance;
}

Result<int64_t> FederatedEngine::CountHeadroom(Transaction* txn,
                                               Timestamp now,
                                               const Predicate& pred) {
  (void)now;
  Result<std::vector<std::string>> eligible = EligibleMembers(pred);
  if (!eligible.ok()) return int64_t{0};
  int64_t headroom = 0;
  for (const std::string& member : *eligible) {
    const Schema* schema = ctx_.rm->GetSchema(member);
    PROMISES_RETURN_IF_ERROR(ctx_.rm->ForEachInstance(
        txn, member,
        [&](const std::string&, InstanceStatus status,
            const PropertyMap& properties) -> Status {
          if (status != InstanceStatus::kAvailable) return Status::OK();
          PROMISES_ASSIGN_OR_RETURN(
              bool m, InstanceMatches(pred, properties, schema));
          if (m) ++headroom;
          return Status::OK();
        }));
  }
  return headroom;
}

std::string FederatedEngine::SerializeState() const {
  std::string out;
  EncodeField(&out, "fed1");
  EncodeField(&out, std::to_string(assignments_.size()));
  for (const auto& [key, assignments] : assignments_) {
    EncodeField(&out, std::to_string(key.first.value()));
    EncodeField(&out, key.second);
    EncodeField(&out, std::to_string(assignments.size()));
    for (const Assignment& a : assignments) {
      EncodeField(&out, a.member);
      EncodeField(&out, a.instance);
    }
  }
  return out;
}

Status FederatedEngine::RestoreState(const std::string& blob) {
  std::string_view cursor(blob);
  auto next = [&cursor]() -> Result<int64_t> {
    PROMISES_ASSIGN_OR_RETURN(std::string field, DecodeField(&cursor));
    return ParseInt64(field);
  };
  PROMISES_ASSIGN_OR_RETURN(std::string tag, DecodeField(&cursor));
  if (tag != "fed1") {
    return Status::InvalidArgument("federated engine '" + cls_ +
                                   "': unknown state tag '" + tag + "'");
  }
  PROMISES_ASSIGN_OR_RETURN(int64_t entries, next());
  std::map<AssignKey, std::vector<Assignment>> assignments;
  for (int64_t i = 0; i < entries; ++i) {
    PROMISES_ASSIGN_OR_RETURN(int64_t id, next());
    PROMISES_ASSIGN_OR_RETURN(std::string pred, DecodeField(&cursor));
    PROMISES_ASSIGN_OR_RETURN(int64_t count, next());
    std::vector<Assignment> list;
    for (int64_t j = 0; j < count; ++j) {
      Assignment a;
      PROMISES_ASSIGN_OR_RETURN(a.member, DecodeField(&cursor));
      PROMISES_ASSIGN_OR_RETURN(a.instance, DecodeField(&cursor));
      list.push_back(std::move(a));
    }
    assignments[{PromiseId(static_cast<uint64_t>(id)), std::move(pred)}] =
        std::move(list);
  }
  assignments_ = std::move(assignments);
  return Status::OK();
}

}  // namespace promises

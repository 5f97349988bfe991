#include "resource/resource_manager.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace promises {
namespace {

Counter* ResourceMutations() {
  static Counter* counter = MetricsRegistry::Global().GetCounter(
      "promises_resource_mutations_total");
  return counter;
}

}  // namespace

std::string_view InstanceStatusToString(InstanceStatus s) {
  switch (s) {
    case InstanceStatus::kAvailable: return "available";
    case InstanceStatus::kPromised: return "promised";
    case InstanceStatus::kTaken: return "taken";
  }
  return "unknown";
}

Status ResourceManager::CreatePool(const std::string& cls,
                                   int64_t initial_quantity) {
  if (initial_quantity < 0) {
    return Status::InvalidArgument("initial quantity must be >= 0");
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (pools_.count(cls) || instance_classes_.count(cls)) {
    return Status::AlreadyExists("resource class '" + cls + "' exists");
  }
  pools_[cls] = initial_quantity;
  return Status::OK();
}

Status ResourceManager::CreateInstanceClass(const std::string& cls,
                                            Schema schema) {
  std::lock_guard<std::mutex> lk(mu_);
  if (pools_.count(cls) || instance_classes_.count(cls)) {
    return Status::AlreadyExists("resource class '" + cls + "' exists");
  }
  instance_classes_[cls].schema = std::move(schema);
  return Status::OK();
}

Status ResourceManager::AddInstance(const std::string& cls,
                                    const std::string& id,
                                    PropertyMap properties) {
  std::lock_guard<std::mutex> lk(mu_);
  InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  PROMISES_RETURN_IF_ERROR(c->schema.ValidateProperties(properties));
  auto [it, inserted] =
      c->instances.emplace(id, InstanceRecord{InstanceStatus::kAvailable,
                                              std::move(properties)});
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("instance '" + id + "' exists in '" + cls +
                                 "'");
  }
  ++c->versions.status;
  ++c->versions.shape;
  return Status::OK();
}

bool ResourceManager::HasPool(const std::string& cls) const {
  std::lock_guard<std::mutex> lk(mu_);
  return pools_.count(cls) > 0;
}

bool ResourceManager::HasInstanceClass(const std::string& cls) const {
  std::lock_guard<std::mutex> lk(mu_);
  return instance_classes_.count(cls) > 0;
}

const Schema* ResourceManager::GetSchema(const std::string& cls) const {
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  return c == nullptr ? nullptr : &c->schema;
}

std::vector<std::string> ResourceManager::PoolClasses() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(pools_.size());
  for (const auto& [name, qty] : pools_) {
    (void)qty;
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> ResourceManager::InstanceClasses() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(instance_classes_.size());
  for (const auto& [name, c] : instance_classes_) {
    (void)c;
    out.push_back(name);
  }
  return out;
}

Result<int64_t> ResourceManager::ExportPoolQuantity(
    const std::string& cls) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(cls);
  if (it == pools_.end()) {
    return Status::NotFound("pool '" + cls + "' not found");
  }
  return it->second;
}

Result<std::vector<InstanceView>> ResourceManager::ExportInstances(
    const std::string& cls) const {
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  std::vector<InstanceView> out;
  out.reserve(c->instances.size());
  for (const auto& [id, record] : c->instances) {
    out.push_back(InstanceView{id, record.status, record.properties});
  }
  return out;
}

Status ResourceManager::RestorePoolQuantity(const std::string& cls,
                                            int64_t quantity) {
  if (quantity < 0) {
    return Status::InvalidArgument("pool quantity must be >= 0");
  }
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(cls);
  if (it == pools_.end()) {
    return Status::NotFound("pool '" + cls + "' not found");
  }
  it->second = quantity;
  return Status::OK();
}

Status ResourceManager::RestoreInstance(const std::string& cls,
                                        const std::string& id,
                                        InstanceStatus status,
                                        PropertyMap properties) {
  std::lock_guard<std::mutex> lk(mu_);
  InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  auto it = c->instances.find(id);
  if (it == c->instances.end()) {
    return Status::NotFound("instance '" + id + "' not defined in '" + cls +
                            "' (definitions must pre-exist on restore)");
  }
  PROMISES_RETURN_IF_ERROR(c->schema.ValidateProperties(properties));
  it->second.status = status;
  it->second.properties = std::move(properties);
  ++c->versions.status;
  ++c->versions.shape;
  return Status::OK();
}

Result<int64_t> ResourceManager::GetQuantity(Transaction* txn,
                                             const std::string& cls) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(PoolKey(cls), LockMode::kShared));
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(cls);
  if (it == pools_.end()) {
    return Status::NotFound("pool '" + cls + "' not found");
  }
  return it->second;
}

Status ResourceManager::AdjustQuantity(Transaction* txn,
                                       const std::string& cls,
                                       int64_t delta) {
  // State mutations get a span (reads stay untraced — they dominate
  // volume and the interesting latency is the exclusive-lock write).
  ScopedSpan apply_span("resource-apply");
  ResourceMutations()->Increment();
  PROMISES_RETURN_IF_ERROR(txn->Lock(PoolKey(cls), LockMode::kExclusive));
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pools_.find(cls);
  if (it == pools_.end()) {
    return Status::NotFound("pool '" + cls + "' not found");
  }
  if (it->second + delta < 0) {
    return Status::FailedPrecondition(
        "pool '" + cls + "' would go negative (" +
        std::to_string(it->second) + " + " + std::to_string(delta) + ")");
  }
  it->second += delta;
  txn->PushUndo([this, cls, delta] {
    std::lock_guard<std::mutex> lk2(mu_);
    pools_[cls] -= delta;
  });
  return Status::OK();
}

Result<InstanceStatus> ResourceManager::GetInstanceStatus(
    Transaction* txn, const std::string& cls, const std::string& id) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kShared));
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  auto it = c->instances.find(id);
  if (it == c->instances.end()) {
    return Status::NotFound("instance '" + id + "' not found in '" + cls +
                            "'");
  }
  return it->second.status;
}

Status ResourceManager::SetInstanceStatus(Transaction* txn,
                                          const std::string& cls,
                                          const std::string& id,
                                          InstanceStatus status) {
  ScopedSpan apply_span("resource-apply");
  ResourceMutations()->Increment();
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kExclusive));
  std::lock_guard<std::mutex> lk(mu_);
  InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  auto it = c->instances.find(id);
  if (it == c->instances.end()) {
    return Status::NotFound("instance '" + id + "' not found in '" + cls +
                            "'");
  }
  InstanceStatus old = it->second.status;
  it->second.status = status;
  ++c->versions.status;
  txn->PushUndo([this, cls, id, old] {
    std::lock_guard<std::mutex> lk2(mu_);
    InstanceClass* c2 = FindClassLocked(cls);
    if (c2 == nullptr) return;
    ++c2->versions.status;
    auto it2 = c2->instances.find(id);
    if (it2 != c2->instances.end()) it2->second.status = old;
  });
  return Status::OK();
}

Result<InstanceView> ResourceManager::GetInstance(Transaction* txn,
                                                  const std::string& cls,
                                                  const std::string& id) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kShared));
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  auto it = c->instances.find(id);
  if (it == c->instances.end()) {
    return Status::NotFound("instance '" + id + "' not found in '" + cls +
                            "'");
  }
  return InstanceView{id, it->second.status, it->second.properties};
}

Status ResourceManager::SetInstanceProperty(Transaction* txn,
                                            const std::string& cls,
                                            const std::string& id,
                                            const std::string& name,
                                            Value value) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kExclusive));
  std::lock_guard<std::mutex> lk(mu_);
  InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  auto it = c->instances.find(id);
  if (it == c->instances.end()) {
    return Status::NotFound("instance '" + id + "' not found in '" + cls +
                            "'");
  }
  PropertyMap probe;
  probe[name] = value;
  PROMISES_RETURN_IF_ERROR(c->schema.ValidateProperties(probe));
  auto pit = it->second.properties.find(name);
  bool existed = pit != it->second.properties.end();
  Value old = existed ? pit->second : Value();
  it->second.properties[name] = std::move(value);
  ++c->versions.shape;
  txn->PushUndo([this, cls, id, name, existed, old] {
    std::lock_guard<std::mutex> lk2(mu_);
    InstanceClass* c2 = FindClassLocked(cls);
    if (c2 == nullptr) return;
    ++c2->versions.shape;
    auto it2 = c2->instances.find(id);
    if (it2 == c2->instances.end()) return;
    if (existed) {
      it2->second.properties[name] = old;
    } else {
      it2->second.properties.erase(name);
    }
  });
  return Status::OK();
}

Result<std::vector<InstanceView>> ResourceManager::ListInstances(
    Transaction* txn, const std::string& cls) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kShared));
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  std::vector<InstanceView> out;
  out.reserve(c->instances.size());
  for (const auto& [id, rec] : c->instances) {
    out.push_back(InstanceView{id, rec.status, rec.properties});
  }
  return out;
}

Status ResourceManager::ForEachInstance(Transaction* txn,
                                        const std::string& cls,
                                        const InstanceVisitor& fn) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kShared));
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  for (const auto& [id, rec] : c->instances) {
    PROMISES_RETURN_IF_ERROR(fn(id, rec.status, rec.properties));
  }
  return Status::OK();
}

Result<InstanceClassVersions> ResourceManager::GetClassVersions(
    Transaction* txn, const std::string& cls) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kShared));
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  return c->versions;
}

Result<int64_t> ResourceManager::CountAvailable(Transaction* txn,
                                                const std::string& cls) {
  PROMISES_RETURN_IF_ERROR(txn->Lock(ClassKey(cls), LockMode::kShared));
  std::lock_guard<std::mutex> lk(mu_);
  const InstanceClass* c = FindClassLocked(cls);
  if (c == nullptr) {
    return Status::NotFound("instance class '" + cls + "' not found");
  }
  int64_t n = 0;
  for (const auto& [id, rec] : c->instances) {
    (void)id;
    if (rec.status == InstanceStatus::kAvailable) ++n;
  }
  return n;
}

ResourceManager::InstanceClass* ResourceManager::FindClassLocked(
    const std::string& cls) {
  auto it = instance_classes_.find(cls);
  return it == instance_classes_.end() ? nullptr : &it->second;
}

const ResourceManager::InstanceClass* ResourceManager::FindClassLocked(
    const std::string& cls) const {
  auto it = instance_classes_.find(cls);
  return it == instance_classes_.end() ? nullptr : &it->second;
}

}  // namespace promises

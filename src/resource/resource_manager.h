// The Resource Manager (RM) of §8.
//
// "The role of the RM is to store the state of the system, and to
// process queries and updates on this data as requested by the
// application and the promise manager."
//
// The store models the two physical shapes of §3:
//  * pool classes — anonymous resources tracked by an explicit quantity
//    attribute ("quantity on hand" / "account balance", §3.1);
//  * instance classes — named resources, each instance carrying a
//    unique id, a free/busy-style status field (§3.2, §5 allocated
//    tags) and typed properties (§3.3).
//
// All data operations run inside a Transaction: they acquire 2PL locks
// through it and register undo closures, which is what lets the promise
// manager roll an action back when it would violate a promise (§8).

#ifndef PROMISES_RESOURCE_RESOURCE_MANAGER_H_
#define PROMISES_RESOURCE_RESOURCE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "resource/schema.h"
#include "resource/value.h"
#include "txn/transaction.h"

namespace promises {

/// §5 allocated-tag states: 'available' -> 'promised' -> 'taken'.
enum class InstanceStatus { kAvailable, kPromised, kTaken };

std::string_view InstanceStatusToString(InstanceStatus s);

/// Immutable copy of one instance handed to queries and checkers.
struct InstanceView {
  std::string id;
  InstanceStatus status = InstanceStatus::kAvailable;
  PropertyMap properties;
};

/// Change counters of one instance class. Both only ever grow — the
/// undo of a change bumps them again — so an unchanged value means the
/// class reads exactly as it did when the value was taken.
struct InstanceClassVersions {
  /// Bumped by SetInstanceStatus and its undo, AddInstance and
  /// RestoreInstance.
  uint64_t status = 0;
  /// Bumped by AddInstance, SetInstanceProperty and its undo, and
  /// RestoreInstance: the population or a property value changed.
  uint64_t shape = 0;

  bool operator==(const InstanceClassVersions&) const = default;
};

/// Visitor over live instance records (see ResourceManager::
/// ForEachInstance). A non-OK status stops the walk.
using InstanceVisitor = std::function<Status(
    const std::string& id, InstanceStatus status,
    const PropertyMap& properties)>;

/// In-memory transactional record store.
///
/// Thread-compatible through the lock manager: logical isolation comes
/// from the 2PL locks each call acquires via its Transaction; an
/// internal mutex only protects physical map structure.
class ResourceManager {
 public:
  ResourceManager() = default;
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  // --- Definition (setup-time, not transactional) ---

  /// Registers an anonymous resource pool with an initial quantity.
  Status CreatePool(const std::string& cls, int64_t initial_quantity);

  /// Registers a named-instance class exporting `schema`.
  Status CreateInstanceClass(const std::string& cls, Schema schema);

  /// Adds an instance to `cls` in state kAvailable.
  Status AddInstance(const std::string& cls, const std::string& id,
                     PropertyMap properties);

  bool HasPool(const std::string& cls) const;
  bool HasInstanceClass(const std::string& cls) const;
  /// Schema of an instance class, or nullptr.
  const Schema* GetSchema(const std::string& cls) const;
  std::vector<std::string> PoolClasses() const;
  std::vector<std::string> InstanceClasses() const;

  // --- Lock keys ---

  /// Lock key covering the quantity of a pool class.
  static std::string PoolKey(const std::string& cls) { return "pool:" + cls; }
  /// Lock key covering the whole instance population of a class.
  static std::string ClassKey(const std::string& cls) {
    return "class:" + cls;
  }

  // --- Pool operations (anonymous view, §3.1) ---

  /// Quantity on hand. Shared lock on the pool.
  Result<int64_t> GetQuantity(Transaction* txn, const std::string& cls);

  /// Adds `delta` (may be negative). Fails with kFailedPrecondition if
  /// the result would be negative. Exclusive lock; undoable.
  Status AdjustQuantity(Transaction* txn, const std::string& cls,
                        int64_t delta);

  // --- Instance operations (named view §3.2, property view §3.3) ---

  Result<InstanceStatus> GetInstanceStatus(Transaction* txn,
                                           const std::string& cls,
                                           const std::string& id);

  /// Sets the allocated-tag status field. Exclusive class lock; undoable.
  Status SetInstanceStatus(Transaction* txn, const std::string& cls,
                           const std::string& id, InstanceStatus status);

  Result<InstanceView> GetInstance(Transaction* txn, const std::string& cls,
                                   const std::string& id);

  /// Updates one property value (validated against the schema).
  /// Exclusive class lock; undoable.
  Status SetInstanceProperty(Transaction* txn, const std::string& cls,
                             const std::string& id, const std::string& name,
                             Value value);

  /// Copies every instance of `cls`. Shared class lock.
  Result<std::vector<InstanceView>> ListInstances(Transaction* txn,
                                                  const std::string& cls);

  /// Hands `fn` every instance of `cls` in id order, by const reference
  /// and without copying. Shared class lock. The physical mutex is held
  /// across the walk, so `fn` must not call back into the resource
  /// manager. Returns the first non-OK status `fn` returns.
  Status ForEachInstance(Transaction* txn, const std::string& cls,
                         const InstanceVisitor& fn);

  /// Change counters of `cls`. Shared class lock.
  Result<InstanceClassVersions> GetClassVersions(Transaction* txn,
                                                 const std::string& cls);

  /// Counts instances currently kAvailable. Shared class lock.
  Result<int64_t> CountAvailable(Transaction* txn, const std::string& cls);

  // --- Checkpoint access (raw: no 2PL, physical mutex only) ---
  //
  // Capture and restore deliberately bypass the lock manager: the
  // caller holds the promise-manager stripe covering `cls`, which is
  // the real serialization point for every promise-mediated mutation
  // of that class, so acquiring 2PL locks here would only add
  // upgrade/deadlock hazards. Definitions (pools, classes, instances)
  // must pre-exist on restore — the same contract as log replay.

  /// Snapshot of a pool's quantity.
  Result<int64_t> ExportPoolQuantity(const std::string& cls) const;

  /// Snapshot of every instance of `cls` (id, status, properties).
  Result<std::vector<InstanceView>> ExportInstances(
      const std::string& cls) const;

  /// Overwrites a pool's quantity with the checkpointed value.
  Status RestorePoolQuantity(const std::string& cls, int64_t quantity);

  /// Overwrites one pre-defined instance's status and properties.
  Status RestoreInstance(const std::string& cls, const std::string& id,
                         InstanceStatus status, PropertyMap properties);

 private:
  struct InstanceRecord {
    InstanceStatus status = InstanceStatus::kAvailable;
    PropertyMap properties;
  };
  struct InstanceClass {
    Schema schema;
    std::map<std::string, InstanceRecord> instances;
    InstanceClassVersions versions;
  };

  // Both return nullptr when absent. Callers hold mu_.
  InstanceClass* FindClassLocked(const std::string& cls);
  const InstanceClass* FindClassLocked(const std::string& cls) const;

  mutable std::mutex mu_;
  std::map<std::string, int64_t> pools_;
  std::map<std::string, InstanceClass> instance_classes_;
};

}  // namespace promises

#endif  // PROMISES_RESOURCE_RESOURCE_MANAGER_H_

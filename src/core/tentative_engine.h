// §5 'Tentative allocation' engine.
//
// "This is a hybrid mechanism, where property-based promise requests
// are met by marking the chosen resource instances as 'promised', and
// also remembering the specific predicate that resulted in this
// resource allocation. If a later promise request is not satisfiable
// from the pool of unallocated instances, the manager can consider
// rearranging these tentative allocations to allow it continue to meet
// all previous promises as well as granting the new request."
//
// The rearrangement is an augmenting-path search in the demand/instance
// bipartite graph (IncrementalMatcher): room 512 tentatively allocated
// for "a room with a view" migrates to the later "a 5th-floor room"
// request whenever a different room with a view exists. The instance
// status field mirrors the matching ('promised' = currently matched),
// per the hybrid description.
//
// Every operation costs what it changes (DESIGN §4 "engine cost
// model"): the matcher journals its edits and an aborted operation
// rolls back to its mark; the class's status version gates the
// enabled-right reconciliation; property candidate sets are cached per
// predicate text until the class's shape version moves; statuses are
// mirrored only for the rights the journal touched.

#ifndef PROMISES_CORE_TENTATIVE_ENGINE_H_
#define PROMISES_CORE_TENTATIVE_ENGINE_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "matching/bipartite.h"

namespace promises {

class TentativeEngine : public ResourceEngine {
 public:
  TentativeEngine(std::string resource_class, EngineContext ctx)
      : cls_(std::move(resource_class)), ctx_(ctx), matcher_(0) {}

  Technique technique() const override { return Technique::kTentative; }
  const std::string& resource_class() const override { return cls_; }

  Status Reserve(Transaction* txn, const PromiseRecord& record,
                 const Predicate& pred) override;
  Status Unreserve(Transaction* txn, PromiseId id,
                   const Predicate& pred) override;
  Status VerifyConsistent(Transaction* txn, Timestamp now) override;
  Result<std::string> ResolveInstance(Transaction* txn, PromiseId id,
                                      const Predicate& pred,
                                      int64_t already_taken) override;
  Result<int64_t> CountHeadroom(Transaction* txn, Timestamp now,
                                const Predicate& pred) override;
  std::string SerializeState() const override;
  Status RestoreState(const std::string& blob) override;

  /// Times an augmenting-path search displaced an earlier tentative
  /// choice (the §5 "rearranging" at work); exposed for E4.
  uint64_t reallocations() const { return reallocations_; }

 private:
  using AssignKey = std::pair<PromiseId, std::string>;
  static AssignKey KeyOf(PromiseId id, const Predicate& pred) {
    return {id, pred.ToString()};
  }

  /// Starts a mutating operation: registers one undo closure that
  /// rolls the matcher back to the returned journal mark and restores
  /// the engine's own counters. The journal of an earlier (finished)
  /// transaction is dropped first.
  size_t BeginOp(Transaction* txn);

  /// Reconciles the matcher with the class: indexes new instances and
  /// disables taken / re-enables untaken rights. Returns at once while
  /// the class's versions equal the last synced ones. Edits are
  /// journaled, so they roll back with the operation.
  Status Sync(Transaction* txn);

  /// Right indices whose instance matches property predicate `pred`,
  /// cached per predicate text for the synced shape version. Call
  /// after Sync in the same operation.
  Result<const std::vector<size_t>*> Candidates(Transaction* txn,
                                                const Predicate& pred,
                                                const std::string& text);

  /// Flips RM statuses so that rights whose owner changed since `mark`
  /// read 'promised' when matched and 'available' when free ('taken'
  /// stays).
  Status MirrorStatuses(Transaction* txn, size_t mark);

  std::string cls_;
  EngineContext ctx_;
  IncrementalMatcher matcher_;
  std::vector<std::string> instance_ids_;                // right -> id
  std::unordered_map<std::string, size_t> index_of_;     // id -> right
  std::map<AssignKey, std::vector<uint64_t>> ledger_;   // demand ids
  uint64_t next_demand_ = 1;
  uint64_t reallocations_ = 0;

  // Derived state, valid while the class's versions equal `synced_`.
  std::optional<InstanceClassVersions> synced_;
  std::vector<size_t> visit_order_;  // id-order position -> right
  std::unordered_map<std::string, std::vector<size_t>> candidates_;

  TxnId journal_txn_;  // transaction whose marks the journal serves
  std::vector<std::pair<size_t, uint64_t>> edited_;  // scratch
};

}  // namespace promises

#endif  // PROMISES_CORE_TENTATIVE_ENGINE_H_

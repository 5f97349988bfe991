// §5 'Satisfiability Check' engine — the prototype's mechanism (§8).
//
// "The promise manager keeps a record of all the promises it is
// currently committed to honouring and also has access to the current
// state of all resources covered by these promises. Whenever a new
// promise request is received, the manager checks that it and all
// relevant existing promises can be honoured, based on the current
// state of the resources involved."
//
// Stateless: truth lives in the promise table plus the resource
// manager, so Reserve and VerifyConsistent are the same computation
// (reported as kFailedPrecondition vs kViolated respectively).
//
//  * Pool classes: available quantity >= sum of promised amounts. The
//    summation realises §9's disjointness semantics — promises for
//    'balance>100' and 'balance>50' jointly require more than 150.
//  * Instance classes: bipartite matching between demand units (named
//    predicates pin one instance; count-k property predicates demand k
//    matching instances) and untaken instances; §3.2's rule that a
//    named-promised seat is excluded from anonymous-count promises
//    falls out of the matching.

#ifndef PROMISES_CORE_SATISFIABILITY_ENGINE_H_
#define PROMISES_CORE_SATISFIABILITY_ENGINE_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "matching/bipartite.h"

namespace promises {

class SatisfiabilityEngine : public ResourceEngine {
 public:
  SatisfiabilityEngine(std::string resource_class, bool is_pool,
                       EngineContext ctx)
      : cls_(std::move(resource_class)), is_pool_(is_pool), ctx_(ctx) {}

  Technique technique() const override { return Technique::kSatisfiability; }
  const std::string& resource_class() const override { return cls_; }

  Status Reserve(Transaction* txn, const PromiseRecord& record,
                 const Predicate& pred) override;
  Status Unreserve(Transaction* txn, PromiseId id,
                   const Predicate& pred) override;
  Status VerifyConsistent(Transaction* txn, Timestamp now) override;
  Result<std::string> ResolveInstance(Transaction* txn, PromiseId id,
                                      const Predicate& pred,
                                      int64_t already_taken) override;
  Status NoteConsumed(Transaction* txn, PromiseId id, const Predicate& pred,
                      int64_t amount) override;
  Result<int64_t> QuantityHeadroom(Transaction* txn, Timestamp now) override;
  Result<int64_t> CountHeadroom(Transaction* txn, Timestamp now,
                                const Predicate& pred) override;
  std::string SerializeState() const override;
  Status RestoreState(const std::string& blob) override;

 private:
  /// One demand unit in the satisfiability graph.
  struct Unit {
    PromiseId promise;
    const Predicate* pred;
    std::vector<size_t> candidates;  // indexes into available instances
  };

  /// Reads the right side of the §5 graph — the available instances,
  /// in id order, into `right_ids` — and, for each of `preds`, the
  /// rights it may use (named: its instance if available; property:
  /// every match) into `candidates`, in one walk of the class that
  /// copies no instance.
  Status CollectRights(Transaction* txn,
                       const std::vector<const Predicate*>& preds,
                       std::vector<std::string>* right_ids,
                       std::vector<std::vector<size_t>>* candidates);

  /// Core check; `reason` receives a human-readable failure cause.
  /// `resolve_for`/`resolve_taken`: when promise is valid, also report
  /// the instance matched to that promise's (already_taken+1)-th unit
  /// via `resolved`.
  Result<bool> CheckNow(Transaction* txn, Timestamp now, std::string* reason,
                        PromiseId resolve_for = PromiseId(),
                        const Predicate* resolve_pred = nullptr,
                        int64_t resolve_taken = 0,
                        std::string* resolved = nullptr);

  std::string cls_;
  bool is_pool_;
  EngineContext ctx_;
  // Units already consumed under a (promise, quantity predicate) pair;
  // subtracted from the predicate's demand during checking so that a
  // partially-consumed promise no longer claims the consumed units.
  // Serialized by this class's lock-manager stripe; undo via
  // transactions.
  std::map<std::pair<PromiseId, std::string>, int64_t> consumed_;
};

}  // namespace promises

#endif  // PROMISES_CORE_SATISFIABILITY_ENGINE_H_

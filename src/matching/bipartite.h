// Bipartite matching for property-view promise checking.
//
// §5: with property-based access "the promise manager needs to be able
// to check the compatibility of a set of promises with the state of the
// resources. This might be done by finding a matching in a bipartite
// graph where edges link the untaken resources to the promise
// predicates that they can satisfy."
//
// Left vertices are demand units (one per instance a promise needs: a
// `count >= k` predicate contributes k units); right vertices are
// untaken resource instances. The promise set is satisfiable iff a
// matching saturates every left vertex.
//
// Two engines are provided:
//  * Hopcroft–Karp maximum matching (O(E * sqrt(V))) for one-shot
//    satisfiability checks;
//  * IncrementalMatcher, which maintains a saturating matching across
//    demand insertions/removals using single augmenting-path searches —
//    the realistic promise-manager workload (experiment E3 compares
//    them). Its reassignment of previously matched right vertices along
//    augmenting paths IS the §5 "tentative allocation" rearrangement.

#ifndef PROMISES_MATCHING_BIPARTITE_H_
#define PROMISES_MATCHING_BIPARTITE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace promises {

/// Adjacency structure: left vertex -> right vertices it may use.
class BipartiteGraph {
 public:
  BipartiteGraph(size_t num_left, size_t num_right)
      : adj_(num_left), num_right_(num_right) {}

  size_t num_left() const { return adj_.size(); }
  size_t num_right() const { return num_right_; }

  void AddEdge(size_t left, size_t right) { adj_[left].push_back(right); }

  const std::vector<size_t>& Neighbors(size_t left) const {
    return adj_[left];
  }

 private:
  std::vector<std::vector<size_t>> adj_;
  size_t num_right_;
};

/// Result of a maximum-matching run.
struct MatchingResult {
  size_t size = 0;
  /// match_left[l] = right partner or kUnmatched.
  std::vector<size_t> match_left;
  /// match_right[r] = left partner or kUnmatched.
  std::vector<size_t> match_right;

  static constexpr size_t kUnmatched = static_cast<size_t>(-1);

  /// True when every left vertex found a partner.
  bool Saturating() const { return size == match_left.size(); }
};

/// Hopcroft–Karp maximum bipartite matching.
MatchingResult MaxMatching(const BipartiteGraph& graph);

/// Maintains a left-saturating matching under demand churn.
///
/// Demands (left side) come and go as promises are granted and
/// released; the right side (instances) is fixed at construction but
/// individual instances can be disabled when they are taken.
class IncrementalMatcher {
 public:
  explicit IncrementalMatcher(size_t num_right);

  /// Attempts to add a demand that may be satisfied by `candidates`.
  /// Returns true (and keeps the demand matched, possibly reassigning
  /// existing demands along an augmenting path) or false and leaves the
  /// matching untouched. `demand_id` must be fresh.
  bool AddDemand(uint64_t demand_id, const std::vector<size_t>& candidates);

  /// Removes a demand, freeing its matched right vertex.
  void RemoveDemand(uint64_t demand_id);

  /// Marks a right vertex unusable (instance taken). If a demand was
  /// matched to it, tries to rematch that demand elsewhere; returns
  /// false if the demand could not be rehoused (caller decides whether
  /// that is a violation).
  bool DisableRight(size_t right);

  /// Re-enables a right vertex (instance released back to available).
  void EnableRight(size_t right);

  /// Appends a new right vertex (instance added to the class) and
  /// returns its index.
  size_t AddRight();

  size_t num_right() const { return right_owner_.size(); }

  /// True when the right vertex is enabled (usable by demands).
  bool RightEnabled(size_t right) const {
    return right < right_enabled_.size() && right_enabled_[right];
  }

  /// Demand currently assigned to `right`, or 0 when free.
  uint64_t OwnerOf(size_t right) const {
    return right < right_owner_.size() ? right_owner_[right] : 0;
  }

  /// Right vertex currently assigned to `demand_id`, or kUnmatched.
  size_t AssignmentOf(uint64_t demand_id) const;

  size_t num_demands() const { return demands_.size(); }

  /// One registered demand unit and its current assignment.
  struct Demand {
    std::vector<size_t> candidates;
    size_t matched_right = MatchingResult::kUnmatched;
  };

  // --- Journaled undo ---
  //
  // Grants run inside local ACID transactions (§8); a rollback must
  // restore the exact prior matching because augmenting paths reassign
  // unrelated demands. From the first Mark() until ForgetJournal()
  // every edit is journaled: an assignment, an owner change, a demand
  // insert or erase, a right's enable/disable and an appended right.
  // RollbackTo undoes them in reverse, so undoing an operation costs
  // what the operation changed, not a copy of the whole matching.

  /// Starts journaling (if not already) and returns the current
  /// journal position.
  size_t Mark() {
    journaling_ = true;
    return journal_.size();
  }

  /// Undoes every edit journaled after `mark`, newest first.
  void RollbackTo(size_t mark);

  /// Drops the journal and stops journaling: no mark taken so far will
  /// be rolled back.
  void ForgetJournal();

  /// Fills `out` with each right whose owner was edited after `mark`,
  /// once, in right order, paired with its owner at `mark` (0 = free).
  /// The current owner may equal it again.
  void OwnersEditedSince(size_t mark,
                         std::vector<std::pair<size_t, uint64_t>>* out) const;

  /// Opaque copy of the full matcher state, for checkpoints. Restore
  /// also drops the journal.
  struct Snapshot {
    std::unordered_map<uint64_t, Demand> demands;
    std::vector<uint64_t> right_owner;
    std::vector<bool> right_enabled;
  };
  Snapshot TakeSnapshot() const;
  void Restore(Snapshot snapshot);

  static constexpr size_t kUnmatched = MatchingResult::kUnmatched;

 private:
  /// DFS augmenting-path search from `demand_id`; `visited_right` marks
  /// right vertices already on the path.
  bool TryAugment(uint64_t demand_id, std::vector<bool>* visited_right);

  /// One undoable edit: enough to put the prior value back.
  struct Edit {
    enum class Kind : uint8_t {
      kOwner,     // right_owner_[right] was `owner`
      kMatch,     // demand `demand` was matched to `right`
      kEnabled,   // right_enabled_[right] was `enabled`
      kInsert,    // demand `demand` was inserted
      kErase,     // demand `demand` (matched to `right`) was erased
      kAddRight,  // a right was appended
    };
    Kind kind;
    bool enabled = false;
    size_t right = 0;
    uint64_t demand = 0;
    uint64_t owner = 0;
    std::vector<size_t> candidates;  // kErase: the erased demand's
  };

  // Journaled edits of the three state fields. Record is kept out of
  // line so the augmenting-path recursion, which calls SetOwner and
  // SetMatch, stays small when nothing is journaled.
  void SetOwner(size_t right, uint64_t owner);
  void SetMatch(uint64_t demand_id, Demand* demand, size_t right);
  void SetEnabled(size_t right, bool enabled);
  [[gnu::noinline]] void Record(Edit::Kind kind, size_t right,
                                uint64_t demand, uint64_t owner,
                                bool enabled);

  std::unordered_map<uint64_t, Demand> demands_;
  std::vector<uint64_t> right_owner_;  // demand id or 0 (free)
  std::vector<bool> right_enabled_;
  std::vector<Edit> journal_;
  bool journaling_ = false;
};

}  // namespace promises

#endif  // PROMISES_MATCHING_BIPARTITE_H_

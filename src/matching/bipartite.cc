#include "matching/bipartite.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

namespace promises {

namespace {
constexpr size_t kUnmatched = MatchingResult::kUnmatched;
constexpr size_t kInf = std::numeric_limits<size_t>::max();
}  // namespace

MatchingResult MaxMatching(const BipartiteGraph& graph) {
  const size_t nl = graph.num_left();
  const size_t nr = graph.num_right();
  MatchingResult res;
  res.match_left.assign(nl, kUnmatched);
  res.match_right.assign(nr, kUnmatched);

  std::vector<size_t> dist(nl, kInf);

  // BFS phase: layer the graph from free left vertices.
  auto bfs = [&]() -> bool {
    std::queue<size_t> q;
    for (size_t l = 0; l < nl; ++l) {
      if (res.match_left[l] == kUnmatched) {
        dist[l] = 0;
        q.push(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool found_free_right = false;
    while (!q.empty()) {
      size_t l = q.front();
      q.pop();
      for (size_t r : graph.Neighbors(l)) {
        size_t l2 = res.match_right[r];
        if (l2 == kUnmatched) {
          found_free_right = true;
        } else if (dist[l2] == kInf) {
          dist[l2] = dist[l] + 1;
          q.push(l2);
        }
      }
    }
    return found_free_right;
  };

  // DFS phase: find vertex-disjoint shortest augmenting paths.
  std::function<bool(size_t)> dfs = [&](size_t l) -> bool {
    for (size_t r : graph.Neighbors(l)) {
      size_t l2 = res.match_right[r];
      if (l2 == kUnmatched || (dist[l2] == dist[l] + 1 && dfs(l2))) {
        res.match_left[l] = r;
        res.match_right[r] = l;
        return true;
      }
    }
    dist[l] = kInf;
    return false;
  };

  while (bfs()) {
    for (size_t l = 0; l < nl; ++l) {
      if (res.match_left[l] == kUnmatched && dfs(l)) ++res.size;
    }
  }
  return res;
}

IncrementalMatcher::IncrementalMatcher(size_t num_right)
    : right_owner_(num_right, 0), right_enabled_(num_right, true) {}

void IncrementalMatcher::Record(Edit::Kind kind, size_t right,
                                uint64_t demand, uint64_t owner,
                                bool enabled) {
  journal_.push_back(Edit{kind, enabled, right, demand, owner, {}});
}

void IncrementalMatcher::SetOwner(size_t right, uint64_t owner) {
  if (journaling_) {
    Record(Edit::Kind::kOwner, right, 0, right_owner_[right], false);
  }
  right_owner_[right] = owner;
}

void IncrementalMatcher::SetMatch(uint64_t demand_id, Demand* demand,
                                  size_t right) {
  if (journaling_) {
    Record(Edit::Kind::kMatch, demand->matched_right, demand_id, 0, false);
  }
  demand->matched_right = right;
}

void IncrementalMatcher::SetEnabled(size_t right, bool enabled) {
  if (journaling_) {
    Record(Edit::Kind::kEnabled, right, 0, 0, right_enabled_[right]);
  }
  right_enabled_[right] = enabled;
}

bool IncrementalMatcher::TryAugment(uint64_t demand_id,
                                    std::vector<bool>* visited_right) {
  Demand& d = demands_.at(demand_id);
  for (size_t r : d.candidates) {
    if (r >= right_owner_.size() || !right_enabled_[r] ||
        (*visited_right)[r]) {
      continue;
    }
    (*visited_right)[r] = true;
    uint64_t owner = right_owner_[r];
    if (owner == 0 || TryAugment(owner, visited_right)) {
      SetOwner(r, demand_id);
      SetMatch(demand_id, &d, r);
      return true;
    }
  }
  return false;
}

bool IncrementalMatcher::AddDemand(uint64_t demand_id,
                                   const std::vector<size_t>& candidates) {
  if (demand_id == 0) return false;  // 0 is the "free" sentinel
  auto [it, inserted] = demands_.emplace(demand_id, Demand{candidates});
  if (!inserted) return false;  // id reuse is a caller bug; refuse
  if (journaling_) Record(Edit::Kind::kInsert, 0, demand_id, 0, false);
  std::vector<bool> visited(right_owner_.size(), false);
  if (TryAugment(demand_id, &visited)) return true;
  // A failed search edits nothing, so the insert is the newest edit.
  if (journaling_) journal_.pop_back();
  demands_.erase(it);
  return false;
}

void IncrementalMatcher::RemoveDemand(uint64_t demand_id) {
  auto it = demands_.find(demand_id);
  if (it == demands_.end()) return;
  if (it->second.matched_right != kUnmatched) {
    SetOwner(it->second.matched_right, 0);
  }
  if (journaling_) {
    journal_.push_back(Edit{Edit::Kind::kErase, false,
                            it->second.matched_right, demand_id, 0,
                            std::move(it->second.candidates)});
  }
  demands_.erase(it);
}

bool IncrementalMatcher::DisableRight(size_t right) {
  if (right >= right_enabled_.size()) return true;
  SetEnabled(right, false);
  uint64_t owner = right_owner_[right];
  if (owner == 0) return true;
  SetOwner(right, 0);
  Demand& d = demands_.at(owner);
  SetMatch(owner, &d, kUnmatched);
  std::vector<bool> visited(right_owner_.size(), false);
  if (TryAugment(owner, &visited)) return true;
  // Could not rehouse: the demand stays registered but unmatched and
  // the caller decides whether that is a violation.
  return false;
}

void IncrementalMatcher::EnableRight(size_t right) {
  if (right < right_enabled_.size()) SetEnabled(right, true);
}

size_t IncrementalMatcher::AddRight() {
  if (journaling_) Record(Edit::Kind::kAddRight, 0, 0, 0, false);
  right_owner_.push_back(0);
  right_enabled_.push_back(true);
  return right_owner_.size() - 1;
}

void IncrementalMatcher::RollbackTo(size_t mark) {
  while (journal_.size() > mark) {
    Edit& e = journal_.back();
    switch (e.kind) {
      case Edit::Kind::kOwner:
        right_owner_[e.right] = e.owner;
        break;
      case Edit::Kind::kMatch:
        demands_.at(e.demand).matched_right = e.right;
        break;
      case Edit::Kind::kEnabled:
        right_enabled_[e.right] = e.enabled;
        break;
      case Edit::Kind::kInsert:
        demands_.erase(e.demand);
        break;
      case Edit::Kind::kErase:
        demands_.emplace(e.demand, Demand{std::move(e.candidates), e.right});
        break;
      case Edit::Kind::kAddRight:
        right_owner_.pop_back();
        right_enabled_.pop_back();
        break;
    }
    journal_.pop_back();
  }
}

void IncrementalMatcher::ForgetJournal() {
  journal_.clear();
  journaling_ = false;
}

void IncrementalMatcher::OwnersEditedSince(
    size_t mark, std::vector<std::pair<size_t, uint64_t>>* out) const {
  out->clear();
  for (size_t i = mark; i < journal_.size(); ++i) {
    const Edit& e = journal_[i];
    if (e.kind == Edit::Kind::kOwner) out->emplace_back(e.right, e.owner);
  }
  // The first edit of a right after the mark holds its owner at the
  // mark; stable order keeps it first among that right's edits.
  std::stable_sort(out->begin(), out->end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  out->erase(std::unique(out->begin(), out->end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             out->end());
}

IncrementalMatcher::Snapshot IncrementalMatcher::TakeSnapshot() const {
  return Snapshot{demands_, right_owner_, right_enabled_};
}

void IncrementalMatcher::Restore(Snapshot snapshot) {
  demands_ = std::move(snapshot.demands);
  right_owner_ = std::move(snapshot.right_owner);
  right_enabled_ = std::move(snapshot.right_enabled);
  ForgetJournal();
}

size_t IncrementalMatcher::AssignmentOf(uint64_t demand_id) const {
  auto it = demands_.find(demand_id);
  return it == demands_.end() ? kUnmatched : it->second.matched_right;
}

}  // namespace promises

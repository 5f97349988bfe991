// Tests for Hopcroft–Karp and the incremental matcher, including the
// property that incremental insertion grants exactly the demands a
// batch maximum matching could satisfy.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "matching/bipartite.h"

namespace promises {
namespace {

TEST(MaxMatchingTest, EmptyGraph) {
  BipartiteGraph g(0, 0);
  MatchingResult m = MaxMatching(g);
  EXPECT_EQ(m.size, 0u);
  EXPECT_TRUE(m.Saturating());
}

TEST(MaxMatchingTest, PerfectMatchingOnDiagonal) {
  BipartiteGraph g(3, 3);
  for (size_t i = 0; i < 3; ++i) g.AddEdge(i, i);
  MatchingResult m = MaxMatching(g);
  EXPECT_EQ(m.size, 3u);
  EXPECT_TRUE(m.Saturating());
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(m.match_left[i], i);
}

TEST(MaxMatchingTest, AugmentingPathRequired) {
  // L0 -> {R0, R1}, L1 -> {R0}: greedy L0->R0 must be displaced.
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  MatchingResult m = MaxMatching(g);
  EXPECT_EQ(m.size, 2u);
  EXPECT_EQ(m.match_left[1], 0u);
  EXPECT_EQ(m.match_left[0], 1u);
}

TEST(MaxMatchingTest, UnsaturatedWhenDemandExceedsSupply) {
  BipartiteGraph g(3, 2);
  for (size_t l = 0; l < 3; ++l)
    for (size_t r = 0; r < 2; ++r) g.AddEdge(l, r);
  MatchingResult m = MaxMatching(g);
  EXPECT_EQ(m.size, 2u);
  EXPECT_FALSE(m.Saturating());
}

TEST(MaxMatchingTest, IsolatedLeftVertexUnmatched) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  MatchingResult m = MaxMatching(g);
  EXPECT_EQ(m.size, 1u);
  EXPECT_EQ(m.match_left[1], MatchingResult::kUnmatched);
}

TEST(MaxMatchingTest, MatchingIsConsistentBothSides) {
  Rng rng(11);
  BipartiteGraph g(20, 15);
  for (size_t l = 0; l < 20; ++l) {
    for (size_t r = 0; r < 15; ++r) {
      if (rng.Chance(0.2)) g.AddEdge(l, r);
    }
  }
  MatchingResult m = MaxMatching(g);
  size_t left_matched = 0;
  for (size_t l = 0; l < 20; ++l) {
    if (m.match_left[l] == MatchingResult::kUnmatched) continue;
    ++left_matched;
    EXPECT_EQ(m.match_right[m.match_left[l]], l);
  }
  EXPECT_EQ(left_matched, m.size);
}

// ---------------------------------------------------------------------

TEST(IncrementalMatcherTest, AddAndRemoveDemands) {
  IncrementalMatcher m(2);
  EXPECT_TRUE(m.AddDemand(1, {0}));
  EXPECT_TRUE(m.AddDemand(2, {1}));
  EXPECT_FALSE(m.AddDemand(3, {0, 1}));  // full
  m.RemoveDemand(1);
  EXPECT_TRUE(m.AddDemand(3, {0, 1}));
  EXPECT_EQ(m.num_demands(), 2u);
}

TEST(IncrementalMatcherTest, FailedAddLeavesStateUntouched) {
  IncrementalMatcher m(1);
  ASSERT_TRUE(m.AddDemand(1, {0}));
  size_t before = m.AssignmentOf(1);
  EXPECT_FALSE(m.AddDemand(2, {0}));
  EXPECT_EQ(m.AssignmentOf(1), before);
  EXPECT_EQ(m.AssignmentOf(2), IncrementalMatcher::kUnmatched);
  EXPECT_EQ(m.num_demands(), 1u);
}

TEST(IncrementalMatcherTest, ReallocatesExistingDemand) {
  // The §5 hotel story: demand 1 (view) takes the only dual-purpose
  // room; demand 2 (5th floor) can only use that room, so demand 1 must
  // migrate to the other view room.
  IncrementalMatcher m(3);  // rooms: 0=512(both) 1=301(view) 2=-
  ASSERT_TRUE(m.AddDemand(1, {0, 1}));  // view rooms
  // Force the interesting case regardless of initial pick:
  ASSERT_TRUE(m.AddDemand(2, {0}));     // 5th floor only room 0
  EXPECT_EQ(m.AssignmentOf(2), 0u);
  EXPECT_EQ(m.AssignmentOf(1), 1u);     // migrated (or already there)
}

TEST(IncrementalMatcherTest, ZeroAndDuplicateDemandIdsRefused) {
  IncrementalMatcher m(2);
  EXPECT_FALSE(m.AddDemand(0, {0}));
  ASSERT_TRUE(m.AddDemand(5, {0}));
  EXPECT_FALSE(m.AddDemand(5, {1}));
}

TEST(IncrementalMatcherTest, DisableRightRehousesOrReports) {
  IncrementalMatcher m(2);
  ASSERT_TRUE(m.AddDemand(1, {0, 1}));
  size_t first = m.AssignmentOf(1);
  EXPECT_TRUE(m.DisableRight(first));  // rehoused to the other room
  EXPECT_NE(m.AssignmentOf(1), first);
  EXPECT_NE(m.AssignmentOf(1), IncrementalMatcher::kUnmatched);
  // Disable the second room too: no home left.
  EXPECT_FALSE(m.DisableRight(m.AssignmentOf(1)));
  EXPECT_EQ(m.AssignmentOf(1), IncrementalMatcher::kUnmatched);
}

TEST(IncrementalMatcherTest, EnableRightRestoresCapacity) {
  IncrementalMatcher m(1);
  ASSERT_TRUE(m.DisableRight(0));
  EXPECT_FALSE(m.AddDemand(1, {0}));
  m.EnableRight(0);
  EXPECT_TRUE(m.AddDemand(1, {0}));
}

TEST(IncrementalMatcherTest, AddRightGrowsTheMarket) {
  IncrementalMatcher m(1);
  ASSERT_TRUE(m.AddDemand(1, {0}));
  EXPECT_FALSE(m.AddDemand(2, {0}));
  size_t fresh = m.AddRight();
  EXPECT_EQ(fresh, 1u);
  EXPECT_TRUE(m.AddDemand(2, {0, fresh}));
}

TEST(IncrementalMatcherTest, SnapshotRestoreRoundTrip) {
  IncrementalMatcher m(3);
  ASSERT_TRUE(m.AddDemand(1, {0, 1}));
  ASSERT_TRUE(m.AddDemand(2, {1, 2}));
  auto snap = m.TakeSnapshot();
  size_t a1 = m.AssignmentOf(1);
  size_t a2 = m.AssignmentOf(2);

  ASSERT_TRUE(m.AddDemand(3, {0, 1, 2}));
  m.RemoveDemand(1);
  (void)m.DisableRight(2);

  m.Restore(snap);
  EXPECT_EQ(m.num_demands(), 2u);
  EXPECT_EQ(m.AssignmentOf(1), a1);
  EXPECT_EQ(m.AssignmentOf(2), a2);
  EXPECT_EQ(m.AssignmentOf(3), IncrementalMatcher::kUnmatched);
}

// Property: sequential incremental insertion accepts a demand iff the
// batch maximum matching over accepted-so-far + the new demand is
// saturating (augmenting-path maintenance preserves maximality).
TEST(IncrementalMatcherTest, AgreesWithBatchMatchingOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const size_t num_right = 8;
    IncrementalMatcher inc(num_right);
    std::vector<std::vector<size_t>> accepted;

    for (uint64_t d = 1; d <= 14; ++d) {
      std::vector<size_t> candidates;
      for (size_t r = 0; r < num_right; ++r) {
        if (rng.Chance(0.3)) candidates.push_back(r);
      }
      bool inc_ok = inc.AddDemand(d, candidates);

      // Batch check: accepted set + this demand.
      BipartiteGraph g(accepted.size() + 1, num_right);
      for (size_t l = 0; l < accepted.size(); ++l) {
        for (size_t r : accepted[l]) g.AddEdge(l, r);
      }
      for (size_t r : candidates) g.AddEdge(accepted.size(), r);
      bool batch_ok = MaxMatching(g).Saturating();

      EXPECT_EQ(inc_ok, batch_ok) << "seed " << seed << " demand " << d;
      if (inc_ok) accepted.push_back(candidates);
    }
  }
}

// --- Journaled undo ----------------------------------------------------

void ExpectSameState(const IncrementalMatcher::Snapshot& got,
                     const IncrementalMatcher::Snapshot& want) {
  EXPECT_EQ(got.right_owner, want.right_owner);
  EXPECT_EQ(got.right_enabled, want.right_enabled);
  ASSERT_EQ(got.demands.size(), want.demands.size());
  for (const auto& [id, demand] : want.demands) {
    auto it = got.demands.find(id);
    ASSERT_NE(it, got.demands.end()) << "demand " << id;
    EXPECT_EQ(it->second.candidates, demand.candidates) << "demand " << id;
    EXPECT_EQ(it->second.matched_right, demand.matched_right)
        << "demand " << id;
  }
}

TEST(MatchingJournalTest, IncrementalMatcherJournalRollback) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    IncrementalMatcher m(10);
    uint64_t next = 1;
    std::vector<uint64_t> live;
    auto step = [&] {
      switch (rng.UniformInt(0, 5)) {
        case 0:
        case 1: {
          std::vector<size_t> candidates;
          for (size_t r = 0; r < m.num_right(); ++r) {
            if (rng.Chance(0.3)) candidates.push_back(r);
          }
          if (m.AddDemand(next, candidates)) live.push_back(next);
          ++next;
          break;
        }
        case 2:
          if (!live.empty()) {
            size_t i = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
            m.RemoveDemand(live[i]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          }
          break;
        case 3:
          (void)m.DisableRight(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(m.num_right()) - 1)));
          break;
        case 4:
          m.EnableRight(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(m.num_right()) - 1)));
          break;
        default:
          if (rng.Chance(0.3)) (void)m.AddRight();
          break;
      }
    };
    for (int i = 0; i < 30; ++i) step();  // history before any mark
    const IncrementalMatcher::Snapshot outer = m.TakeSnapshot();
    const size_t outer_mark = m.Mark();
    for (int i = 0; i < 25; ++i) step();
    const IncrementalMatcher::Snapshot inner = m.TakeSnapshot();
    const size_t inner_mark = m.Mark();
    for (int i = 0; i < 25; ++i) step();

    // Every right whose owner moved is reported once, in order, with
    // its owner at the mark.
    std::vector<std::pair<size_t, uint64_t>> edited;
    m.OwnersEditedSince(outer_mark, &edited);
    for (size_t i = 1; i < edited.size(); ++i) {
      EXPECT_LT(edited[i - 1].first, edited[i].first);
    }
    auto owner_at_mark = [&](size_t r) -> uint64_t {
      return r < outer.right_owner.size() ? outer.right_owner[r] : 0;
    };
    for (const auto& [r, owner] : edited) EXPECT_EQ(owner, owner_at_mark(r));
    for (size_t r = 0; r < m.num_right(); ++r) {
      if (m.OwnerOf(r) == owner_at_mark(r)) continue;
      EXPECT_TRUE(std::any_of(edited.begin(), edited.end(),
                              [r](const auto& e) { return e.first == r; }))
          << "right " << r;
    }

    m.RollbackTo(inner_mark);
    ExpectSameState(m.TakeSnapshot(), inner);
    m.RollbackTo(outer_mark);
    ExpectSameState(m.TakeSnapshot(), outer);
  }
}

TEST(MatchingJournalTest, ForgottenJournalKeepsTheMatching) {
  IncrementalMatcher m(2);
  const size_t mark = m.Mark();
  ASSERT_TRUE(m.AddDemand(1, {0, 1}));
  m.ForgetJournal();
  m.RollbackTo(mark);  // nothing journaled is left to undo
  EXPECT_EQ(m.AssignmentOf(1), 0u);
  // Without a mark nothing is journaled.
  ASSERT_TRUE(m.AddDemand(2, {0}));
  m.RollbackTo(0);
  EXPECT_EQ(m.AssignmentOf(1), 1u);
  EXPECT_EQ(m.AssignmentOf(2), 0u);
}

}  // namespace
}  // namespace promises

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/scored_heap.hpp"

namespace mp {
namespace {

TaskId tid(std::size_t i) { return TaskId{i}; }

// Id capacity of the heaps below: above every id a test inserts.
constexpr std::size_t kIds = 2048;

TEST(ScoredHeap, EmptyBehaviour) {
  ScoredHeap h(kIds);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_FALSE(h.top().has_value());
}

TEST(ScoredHeap, TopIsMaxGain) {
  ScoredHeap h(kIds);
  h.insert(tid(0), 0.3, 0.0);
  h.insert(tid(1), 0.9, 0.0);
  h.insert(tid(2), 0.5, 0.0);
  ASSERT_TRUE(h.top().has_value());
  EXPECT_EQ(h.top()->task, tid(1));
}

TEST(ScoredHeap, CriticalityBreaksGainTies) {
  ScoredHeap h(kIds);
  h.insert(tid(0), 0.5, 0.2);
  h.insert(tid(1), 0.5, 0.9);
  h.insert(tid(2), 0.5, 0.5);
  EXPECT_EQ(h.top()->task, tid(1));
}

TEST(ScoredHeap, FifoBreaksFullTies) {
  ScoredHeap h(kIds);
  h.insert(tid(3), 0.5, 0.5);
  h.insert(tid(1), 0.5, 0.5);
  h.insert(tid(2), 0.5, 0.5);
  EXPECT_EQ(h.top()->task, tid(3));  // earliest insertion wins
  h.pop_top();
  EXPECT_EQ(h.top()->task, tid(1));
  h.pop_top();
  EXPECT_EQ(h.top()->task, tid(2));
}

TEST(ScoredHeap, PopTopRemoves) {
  ScoredHeap h(kIds);
  h.insert(tid(0), 0.1, 0.0);
  h.insert(tid(1), 0.2, 0.0);
  h.pop_top();
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.top()->task, tid(0));
  EXPECT_FALSE(h.contains(tid(1)));
}

TEST(ScoredHeap, RemoveArbitrary) {
  ScoredHeap h(kIds);
  for (std::size_t i = 0; i < 10; ++i)
    h.insert(tid(i), 0.1 * static_cast<double>(i), 0.0);
  h.remove(tid(5));
  EXPECT_EQ(h.size(), 9u);
  EXPECT_FALSE(h.contains(tid(5)));
  EXPECT_TRUE(h.validate());
  EXPECT_EQ(h.top()->task, tid(9));
}

TEST(ScoredHeap, RemoveLastElementNoReheap) {
  ScoredHeap h(kIds);
  h.insert(tid(0), 0.9, 0.0);
  h.insert(tid(1), 0.1, 0.0);
  h.remove(tid(1));
  EXPECT_TRUE(h.validate());
  EXPECT_EQ(h.size(), 1u);
}

TEST(ScoredHeapDeath, DoubleInsertRejected) {
  ScoredHeap h(kIds);
  h.insert(tid(0), 0.5, 0.0);
  EXPECT_DEATH(h.insert(tid(0), 0.6, 0.0), "already in this heap");
}

TEST(ScoredHeapDeath, IdAtOrPastTheCapacityTripsTheCheck) {
  ScoredHeap h(8);
  h.insert(tid(7), 0.5, 0.0);
  EXPECT_DEATH(h.insert(tid(8), 0.5, 0.0), "past the heap's id capacity");
  EXPECT_DEATH(h.insert(TaskId::invalid(), 0.5, 0.0), "past the heap's id capacity");
  EXPECT_DEATH(ScoredHeap().insert(tid(0), 0.5, 0.0), "past the heap's id capacity");
}

TEST(ScoredHeapDeath, RemoveMissingRejected) {
  ScoredHeap h(kIds);
  EXPECT_DEATH(h.remove(tid(0)), "not in the heap");
}

TEST(ScoredHeap, ForTopVisitsInExactOrder) {
  ScoredHeap h(kIds, /*window=*/64);
  Rng rng(5);
  for (std::size_t i = 0; i < 64; ++i)
    h.insert(tid(i), rng.next_double(), rng.next_double());
  const std::span<const HeapEntry> front = h.front();
  ASSERT_EQ(front.size(), 64u);
  for (std::size_t i = 1; i < front.size(); ++i) EXPECT_TRUE(front[i - 1].before(front[i]));
  std::size_t visited = 0;
  h.for_each([&](const HeapEntry&) { ++visited; });
  EXPECT_EQ(visited, 64u);
}

TEST(ScoredHeap, ForTopFirstIsTop) {
  ScoredHeap h(kIds);
  Rng rng(17);
  for (std::size_t i = 0; i < 50; ++i) h.insert(tid(i), rng.next_double(), 0.0);
  ASSERT_FALSE(h.front().empty());
  EXPECT_EQ(h.front().front().task, h.top()->task);
}

TEST(ScoredHeapDeath, WindowTooLargeToSizeTripsTheCheck) {
  // Rejected before the front is allocated: every position must fit the
  // 32-bit position table next to the id capacity.
  EXPECT_DEATH(ScoredHeap(kIds, SIZE_MAX), "window out of range");
  EXPECT_DEATH(ScoredHeap(kIds, std::size_t{1} << 32), "window out of range");
  EXPECT_DEATH(ScoredHeap(kIds, (std::size_t{1} << 32) - kIds), "window out of range");
}

TEST(ScoredHeap, SparseAndOutOfOrderIdsWithinTheDeclaredCapacity) {
  ScoredHeap h(1'000'001);
  EXPECT_FALSE(h.contains(tid(1'000'000)));
  EXPECT_FALSE(h.contains(tid(5'000'000)));  // beyond the table: absent
  for (std::size_t id : {std::size_t{1'000'000}, std::size_t{3}, std::size_t{70'000},
                         std::size_t{0}, std::size_t{999'999}}) {
    h.insert(tid(id), 0.5 + static_cast<double>(id % 7) / 10.0, 0.0);
    ASSERT_TRUE(h.validate()) << id;
  }
  EXPECT_EQ(h.size(), 5u);
  EXPECT_TRUE(h.contains(tid(1'000'000)));
  EXPECT_FALSE(h.contains(tid(1'000'001)));
  EXPECT_FALSE(h.contains(tid(4)));
  h.remove(tid(70'000));
  ASSERT_TRUE(h.validate());
  EXPECT_FALSE(h.contains(tid(70'000)));
  h.pop_top();
  ASSERT_TRUE(h.validate());
  EXPECT_EQ(h.size(), 3u);
}

TEST(ScoredHeap, ClearThenReinsertSameIds) {
  ScoredHeap h(kIds);
  for (std::size_t i = 0; i < 6; ++i) {
    h.insert(tid(10 * i), static_cast<double>(i) / 6.0, 0.0);
    ASSERT_TRUE(h.validate());
  }
  h.clear();
  ASSERT_TRUE(h.validate());
  EXPECT_TRUE(h.empty());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_FALSE(h.contains(tid(10 * i)));
  // The same ids go back in (a node rebuild re-pushes its survivors); the
  // insertion counter survived, so FIFO ties still follow insertion order.
  h.insert(tid(30), 0.5, 0.5);
  ASSERT_TRUE(h.validate());
  h.insert(tid(0), 0.5, 0.5);
  ASSERT_TRUE(h.validate());
  h.insert(tid(50), 0.9, 0.0);
  ASSERT_TRUE(h.validate());
  EXPECT_EQ(h.top()->task, tid(50));
  h.pop_top();
  ASSERT_TRUE(h.validate());
  EXPECT_EQ(h.top()->task, tid(30));
  h.remove(tid(30));
  ASSERT_TRUE(h.validate());
  EXPECT_EQ(h.top()->task, tid(0));
  EXPECT_EQ(h.size(), 1u);
}

TEST(ScoredHeap, ForTopLimitStopsAfterThatManyEntries) {
  ScoredHeap h(kIds);
  for (std::size_t i = 0; i < 20; ++i) h.insert(tid(i), static_cast<double>(i), 0.0);
  std::vector<std::size_t> seen;
  for (const HeapEntry& e : h.front().first(3)) seen.push_back(e.task.index());
  EXPECT_EQ(seen, (std::vector<std::size_t>{19, 18, 17}));
  EXPECT_TRUE(h.front().first(0).empty());
  EXPECT_EQ(h.size(), 20u);  // non-destructive
}

// Property sweep: random interleavings of insert/remove/pop keep the heap
// property, the index map, and the exact max ordering.
class ScoredHeapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoredHeapProperty, RandomOpsKeepInvariants) {
  Rng rng(GetParam());
  ScoredHeap h(kIds);
  std::vector<TaskId> live;
  std::size_t next_id = 0;
  for (int step = 0; step < 2000; ++step) {
    const double action = rng.next_double();
    if (action < 0.55 || live.empty()) {
      const TaskId t = tid(next_id++);
      h.insert(t, rng.next_double(), rng.next_double());
      live.push_back(t);
    } else if (action < 0.8) {
      // remove a random live task
      const std::size_t pick = static_cast<std::size_t>(rng.next_in(0, live.size() - 1));
      h.remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const TaskId top = h.top()->task;
      h.pop_top();
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i] == top) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(h.validate());
    }
    ASSERT_EQ(h.size(), live.size());
  }
  ASSERT_TRUE(h.validate());
  // Drain: pops must come out in non-increasing order.
  std::optional<HeapEntry> prev;
  while (!h.empty()) {
    const HeapEntry e = *h.top();
    if (prev) {
      EXPECT_FALSE(e.before(*prev));
    }
    prev = e;
    h.pop_top();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoredHeapProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mp

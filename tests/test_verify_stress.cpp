// Randomized stress for the structures the verification layer guards most
// closely: ScoredHeap's arbitrary-removal/stale-duplicate machinery and the
// EventLog's concurrent append/export path. The concurrency tests run under
// real threads in every build (the TSan CI job runs them with `-L verify`)
// and additionally under the controlled scheduler when -DMP_VERIFY=ON.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "core/scored_heap.hpp"
#include "obs/observer.hpp"
#include "verify/explore.hpp"
#include "verify/sync.hpp"

namespace mp {
namespace {

// ---- ScoredHeap ----------------------------------------------------------

TEST(ScoredHeapStress, RandomInsertRemovePopAgainstReference) {
  std::mt19937_64 rng(20260806);
  std::uniform_real_distribution<double> score(0.0, 4.0);
  for (int round = 0; round < 50; ++round) {
    ScoredHeap h(200);
    // Reference: the live entries, compared via the heap's own ordering.
    std::vector<HeapEntry> ref;
    std::uint32_t next_task = 0;
    for (int step = 0; step < 200; ++step) {
      const int op = static_cast<int>(rng() % 4);
      if (op <= 1 || ref.empty()) {  // insert (biased: heaps mostly grow)
        const TaskId t{next_task++};
        const double g = score(rng);
        const double p = score(rng);
        h.insert(t, g, p);
        // seq mirrors the heap's FIFO tiebreak (one insert per task id).
        ref.push_back(HeapEntry{t, g, p, t.value()});
      } else if (op == 2) {  // remove an arbitrary live task (eviction path)
        const TaskId victim = ref[rng() % ref.size()].task;
        h.remove(victim);
        ref.erase(std::find_if(ref.begin(), ref.end(),
                               [&](const HeapEntry& e) { return e.task == victim; }));
      } else {  // pop_top must agree with the reference maximum
        const auto top = h.top();
        ASSERT_TRUE(top.has_value());
        const auto best = std::min_element(
            ref.begin(), ref.end(),
            [](const HeapEntry& a, const HeapEntry& b) { return a.before(b); });
        ASSERT_EQ(top->task, best->task);
        h.pop_top();
        ref.erase(best);
      }
      ASSERT_TRUE(h.validate()) << "heap corrupt after step " << step;
      ASSERT_EQ(h.size(), ref.size());
    }
    for (const HeapEntry& e : ref) ASSERT_TRUE(h.contains(e.task));
  }
}

// Heaps built for windows around the minimum front length, all fed the same
// operations, must each hold the sorted reference's prefix in front(), entry
// for entry, and every live entry in for_each(): the heaps grow well past
// four times the longest front, lose front, boundary and deep entries along
// the way, and are drained back below the shortest front. Scores come from
// small sets, so the criticality and FIFO tiebreaks decide many comparisons;
// ids are reused after removal.
TEST(ScoredHeapStress, FrontHeapBoundaryAgainstSortedReference) {
  constexpr std::size_t kMin = ScoredHeap::kMinFront;
  constexpr std::size_t kWindows[] = {1, 10, kMin, kMin + 1, 40};
  constexpr std::size_t kMaxFront = 40;
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kIds = 8 * kMaxFront;
  static_assert(4 * kMaxFront + kRounds < kIds, "the grow phase needs a free id for every insert");
  std::mt19937_64 rng(20261019);
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<ScoredHeap> heaps;
    std::vector<std::size_t> fronts;  // each heap's front length
    for (const std::size_t w : kWindows) {
      heaps.emplace_back(kIds, w);
      fronts.push_back(std::max(kMin, w));
    }
    std::vector<HeapEntry> ref;  // kept sorted best-first
    std::vector<bool> present(kIds, false);
    std::uint64_t seq = 0;
    const auto insert = [&] {
      std::size_t id = rng() % kIds;
      while (present[id]) id = (id + 1) % kIds;
      const double g = static_cast<double>(rng() % 6) / 4.0;
      const double p = static_cast<double>(rng() % 3);
      for (ScoredHeap& h : heaps) h.insert(TaskId{id}, g, p);
      ref.push_back(HeapEntry{TaskId{id}, g, p, seq++});
      present[id] = true;
      std::sort(ref.begin(), ref.end(),
                [](const HeapEntry& a, const HeapEntry& b) { return a.before(b); });
    };
    const auto remove_rank = [&](std::size_t r) {
      const TaskId t = ref[r].task;
      const bool pop = r == 0 && rng() % 2 == 0;
      for (ScoredHeap& h : heaps) pop ? h.pop_top() : h.remove(t);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(r));
      present[t.index()] = false;
    };
    // A front, a boundary (F-1 or F, for one heap's front length F) or a
    // deep entry, by turns.
    const auto remove_some = [&] {
      const std::size_t n = ref.size();
      const std::size_t f = fronts[rng() % fronts.size()];
      switch (rng() % 3) {
        case 0: remove_rank(rng() % std::min(n, f)); break;
        case 1: remove_rank(std::min(n - 1, f - 1 + rng() % 2)); break;
        default: remove_rank(n > f ? f + rng() % (n - f) : rng() % n); break;
      }
    };
    const auto check = [&](const char* phase, int step) {
      std::vector<std::size_t> ref_ids;
      for (const HeapEntry& e : ref) ref_ids.push_back(e.task.index());
      std::sort(ref_ids.begin(), ref_ids.end());
      for (std::size_t i = 0; i < heaps.size(); ++i) {
        const ScoredHeap& h = heaps[i];
        ASSERT_TRUE(h.validate()) << phase << " step " << step << " window " << kWindows[i];
        ASSERT_EQ(h.size(), ref.size());
        const std::span<const HeapEntry> front = h.front();
        ASSERT_EQ(front.size(), std::min(fronts[i], ref.size()))
            << phase << " window " << kWindows[i];
        for (std::size_t r = 0; r < front.size(); ++r) {
          ASSERT_EQ(front[r].task, ref[r].task)
              << phase << " step " << step << " window " << kWindows[i] << " rank " << r;
          ASSERT_EQ(front[r].seq, ref[r].seq);
          ASSERT_EQ(front[r].gain, ref[r].gain);
          ASSERT_EQ(front[r].prio, ref[r].prio);
        }
        std::vector<std::size_t> seen;
        h.for_each([&](const HeapEntry& e) { seen.push_back(e.task.index()); });
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen, ref_ids) << phase << " step " << step << " window " << kWindows[i];
      }
    };
    // Grow past four times the longest front, with one removal for every
    // three inserts.
    for (int step = 0; ref.size() < 4 * kMaxFront + round; ++step) {
      if (ref.empty() || rng() % 4 != 0)
        insert();
      else
        remove_some();
      check("grow", step);
      if (HasFatalFailure()) return;
    }
    // Drain below the shortest front, still inserting now and then.
    for (int step = 0; ref.size() >= kMin - 2; ++step) {
      if (rng() % 5 == 0)
        insert();
      else
        remove_some();
      check("drain", step);
      if (HasFatalFailure()) return;
    }
    while (!ref.empty()) {
      remove_some();
      check("empty", 0);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ScoredHeapStress, StaleDuplicateDiscardPattern) {
  // MultiPrio's lazy-discard usage: tasks duplicated into several heaps, one
  // heap takes, the others top()/pop_top() through the stale entries later.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> score(0.0, 1.0);
  constexpr std::size_t kHeaps = 3, kTasks = 64;
  for (int round = 0; round < 20; ++round) {
    std::vector<ScoredHeap> heaps(kHeaps, ScoredHeap(kTasks));
    std::vector<bool> taken(kTasks, false);
    for (std::uint32_t t = 0; t < kTasks; ++t)
      for (auto& h : heaps) h.insert(TaskId{t}, score(rng), score(rng));
    std::size_t live = kTasks;
    while (live > 0) {
      ScoredHeap& h = heaps[rng() % kHeaps];
      // Lazy discard, exactly as MultiPrioScheduler::drop_taken does it.
      while (auto top = h.top()) {
        if (!taken[top->task.index()]) break;
        h.pop_top();
        ASSERT_TRUE(h.validate());
      }
      const auto top = h.top();
      if (!top.has_value()) continue;  // this heap ran dry of live entries
      taken[top->task.index()] = true;
      h.remove(top->task);
      ASSERT_TRUE(h.validate());
      --live;
    }
    // Whatever remains anywhere must be stale duplicates of taken tasks.
    for (auto& h : heaps)
      h.for_each([&](const HeapEntry& e) { EXPECT_TRUE(taken[e.task.index()]); });
  }
}

// ---- EventLog under real concurrency -------------------------------------

void hammer_event_log(std::size_t appenders, std::size_t per_thread,
                      std::size_t capacity, bool concurrent_export) {
  EventLog log(capacity);
  std::vector<Thread> threads;
  threads.reserve(appenders + (concurrent_export ? 1 : 0));
  for (std::size_t a = 0; a < appenders; ++a) {
    threads.emplace_back([&log, a, per_thread] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        SchedEvent e;
        e.kind = (a % 2 == 0) ? SchedEventKind::Push : SchedEventKind::Pop;
        e.task = TaskId{static_cast<std::uint32_t>(i)};
        log.append(e);
      }
    });
  }
  if (concurrent_export) {
    threads.emplace_back([&log, appenders, per_thread] {
      // Export while appends are in flight: must never crash or double-count.
      while (log.recorded() < appenders * per_thread / 2) {
        (void)log.snapshot();
        (void)log.to_csv();
      }
      (void)log.to_csv();
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t total = appenders * per_thread;
  MP_CHECK_MSG(log.recorded() == total, "appends lost");
  MP_CHECK_MSG(log.accounting_ok(), "drop accounting out of balance");
  std::uint64_t pushes = 0, pops = 0;
  for (std::size_t a = 0; a < appenders; ++a)
    (a % 2 == 0 ? pushes : pops) += per_thread;
  MP_CHECK(log.count(SchedEventKind::Push) == pushes);
  MP_CHECK(log.count(SchedEventKind::Pop) == pops);
  // Seqs in the retained window are unique and the window is the newest.
  std::set<std::uint64_t> seqs;
  for (const SchedEvent& e : log.snapshot()) {
    MP_CHECK(e.seq < total);
    MP_CHECK_MSG(seqs.insert(e.seq).second, "duplicate seq in snapshot");
  }
}

TEST(EventLogStress, ConcurrentAppendKeepsDropProofAccounting) {
  hammer_event_log(/*appenders=*/4, /*per_thread=*/5000, /*capacity=*/1024,
                   /*concurrent_export=*/false);
}

TEST(EventLogStress, ConcurrentAppendAndExport) {
  hammer_event_log(/*appenders=*/4, /*per_thread=*/2000, /*capacity=*/512,
                   /*concurrent_export=*/true);
}

TEST(EventLogStress, ExploredAppendAndExport) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  // Tiny instance under the controlled scheduler: every interleaving of two
  // appenders against the ring boundary (capacity 3 < the 4 total appends),
  // with the MP_CHECK post-conditions acting as the oracle.
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 10000;
  const verify::ExploreResult r = verify::explore(
      [] {
        hammer_event_log(/*appenders=*/2, /*per_thread=*/2, /*capacity=*/3,
                         /*concurrent_export=*/false);
      },
      cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_GT(r.schedules, 1u);
}

// ---- metrics counters under the shim -------------------------------------

TEST(MetricsStress, CounterIsAtomicAcrossThreads) {
  Counter c;
  constexpr std::size_t kThreads = 4, kIncs = 20000;
  std::vector<Thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&c] {
      for (std::size_t k = 0; k < kIncs; ++k) c.inc();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kIncs);
}

}  // namespace
}  // namespace mp

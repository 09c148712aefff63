// The concurrency verification layer (src/verify/): deterministic
// interleaving exploration of ThreadExecutor + MultiPrio end-to-end, the
// always-on structural-invariant oracle, and the seeded mutations that prove
// the detector detects.
//
// The exploration tests run only in -DMP_VERIFY=ON builds (the `verify`
// ctest label / CI job); in normal builds they skip via
// exploration_supported() and only the stub/oracle tests execute.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/multiprio.hpp"
#include "exec/thread_executor.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "test_util.hpp"
#include "verify/explore.hpp"
#include "verify/mutation.hpp"

namespace mp {
namespace {

// A mutex-free FIFO whose pop is a check-then-act across a yield point: it
// reads the head, may be preempted, then advances. Correct only when every
// call is serialized (SchedConcurrency::ExternalLock — the executor's
// SerializedScheduler provides that); two unserialized pops hand out the
// same task, which the task lifecycle reports as "task popped twice". This is the
// fixture for SkipExecutorLock: a wrapped MultiPrio would still be guarded
// by its own shard locks, so dropping the adapter's lock there is harmless.
class RacyFifo final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void push(TaskId t) override { queue_.push_back(t); }
  [[nodiscard]] std::optional<TaskId> pop(WorkerId /*w*/) override {
    if (head_ >= queue_.size()) return std::nullopt;
    const TaskId t = queue_[head_];
    verify_point("racy_fifo.pop", this);
    ++head_;
    return t;
  }
  [[nodiscard]] std::string name() const override { return "racy-fifo"; }
  [[nodiscard]] std::size_t pending_count() const override {
    return queue_.size() - std::min(head_, queue_.size());
  }

 private:
  std::vector<TaskId> queue_;
  std::size_t head_ = 0;
};

ExecSchedulerFactory racy_fifo() {
  return [](SchedContext ctx) { return std::make_unique<RacyFifo>(std::move(ctx)); };
}

// The exploration fixture: a 6-task DAG (diamond 0→{1,2}→3 plus two
// independent tasks) on `cpus` CPU workers (RAM node) + 1 GPU worker (its
// own node), so duplication, pop_condition and eviction paths are all live.
// Small enough for exhaustive DFS, rich enough that the lock protocol under
// test actually arbitrates between the workers.
//
// The explorations here run "multiprio-coarse" (MultiPrio behind the
// SerializedScheduler, probed through it); the SkipExecutorLock tests run
// RacyFifo above. The sharded default is verified by the dedicated suite in
// test_sharded.cpp. cpus = 2 for the lock mutations — the races they
// reintroduce are same-node-worker races.
void run_fixture_once(const ExecSchedulerFactory& make_scheduler, bool with_observer,
                      std::size_t cpus = 1) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("work", {ArchType::CPU, ArchType::GPU},
                                     [](const Task&, std::span<void* const>) {});
  std::vector<DataId> d;
  for (int i = 0; i < 5; ++i) d.push_back(g.add_data(64));
  g.submit(cl, {Access{d[0], AccessMode::Write}});
  g.submit(cl, {Access{d[0], AccessMode::Read}, Access{d[1], AccessMode::Write}});
  g.submit(cl, {Access{d[0], AccessMode::Read}, Access{d[2], AccessMode::Write}});
  g.submit(cl, {Access{d[1], AccessMode::Read}, Access{d[2], AccessMode::Read}});
  g.submit(cl, {Access{d[3], AccessMode::ReadWrite}});
  g.submit(cl, {Access{d[4], AccessMode::ReadWrite}});

  Platform p = test::small_platform(cpus, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  RecordingObserver obs;
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;  // idle retries must not dominate explored runs
  if (with_observer) cfg.observer = &obs;
  const ExecResult r = exec.run(make_scheduler, cfg);
  // Post-conditions double as oracles: under an active exploration a failed
  // MP_CHECK is reported as a violation with the schedule trace.
  MP_CHECK_MSG(r.tasks_executed == 6, "fixture must execute all 6 tasks");
  if (with_observer) {
    MP_CHECK_MSG(obs.events().count(SchedEventKind::Pop) == 6,
                 "one POP event per executed task");
    MP_CHECK_MSG(obs.events().accounting_ok(), "event accounting out of balance");
  }
}

TEST(VerifyExplore, StubsAreInertWithoutMpVerify) {
  if (verify::exploration_supported()) GTEST_SKIP() << "MP_VERIFY build";
  bool ran = false;
  const verify::ExploreResult r = verify::explore([&] { ran = true; });
  EXPECT_FALSE(ran);  // the stub never runs the body
  EXPECT_EQ(r.schedules, 0u);
  EXPECT_FALSE(r.violation);
  EXPECT_FALSE(r.summary().empty());
}

TEST(VerifyExplore, UnmutatedFixtureExploresClean) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 10000;
  const verify::ExploreResult r = verify::explore(
      [] { run_fixture_once(scheduler_factory("multiprio-coarse"), /*with_observer=*/false); }, cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
  EXPECT_GT(r.schedules, 1u) << "fixture must actually branch";
  EXPECT_EQ(r.truncated, 0u);
}

TEST(VerifyExplore, TinyFixtureExhaustsScheduleSpace) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  // Two independent tasks on two workers: small enough that the DFS must
  // prove full coverage of the schedule space (the 6-task fixture above has
  // exponentially many mutex interleavings and is budget-bounded instead).
  // Both workers pop, start and finish through the adapter's lock.
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 25000;  // measured: 18340 schedules
  const verify::ExploreResult r = verify::explore(
      [] {
        TaskGraph g;
        const CodeletId cl =
            g.add_codelet("work", {ArchType::CPU, ArchType::GPU},
                          [](const Task&, std::span<void* const>) {});
        const DataId a = g.add_data(64);
        const DataId b = g.add_data(64);
        g.submit(cl, {Access{a, AccessMode::ReadWrite}});
        g.submit(cl, {Access{b, AccessMode::ReadWrite}});
        Platform p = test::small_platform(1, 1);
        PerfDatabase db = test::flat_perf();
        ThreadExecutor exec(g, p, db);
        ExecConfig ecfg;
        ecfg.stall_timeout = 0.05;
        const ExecResult res = exec.run(scheduler_factory("multiprio-coarse"), ecfg);
        MP_CHECK(res.tasks_executed == 2);
      },
      cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
  EXPECT_TRUE(r.exhausted) << "DFS must terminate on the tiny fixture, ran "
                           << r.schedules << " schedules";
  EXPECT_GT(r.schedules, 1u);
}

TEST(VerifyExplore, UnmutatedFixtureWithObserverExploresClean) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Pct;
  cfg.max_schedules = 200;
  cfg.seed = 7;
  const verify::ExploreResult r = verify::explore(
      [] { run_fixture_once(scheduler_factory("multiprio-coarse"), /*with_observer=*/true); }, cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
  EXPECT_EQ(r.schedules, 200u);
}

// The minimal contended fixture for the exhaustive lock mutation: two
// independent dual-arch tasks on two same-node CPU workers. Both workers'
// pops read the same queue head, so any interleaving that runs one pop
// inside another's read→advance window hands out a task twice. Small enough
// that exhaustive DFS reaches that window well inside the 10k budget (the
// 6-task fixture's mutated space is too wide for DFS; the PCT variants
// below keep covering it).
void run_tiny_contended_fixture(const ExecSchedulerFactory& make_scheduler) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("work", {ArchType::CPU, ArchType::GPU},
                                     [](const Task&, std::span<void* const>) {});
  const DataId a = g.add_data(64);
  const DataId b = g.add_data(64);
  g.submit(cl, {Access{a, AccessMode::ReadWrite}});
  g.submit(cl, {Access{b, AccessMode::ReadWrite}});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  const ExecResult r = exec.run(make_scheduler, cfg);
  MP_CHECK(r.tasks_executed == 2);
}

TEST(VerifyMutation, SkipExecutorLockIsCaughtExhaustive) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ScopedMutation arm(verify::Mutation::SkipExecutorLock);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 10000;  // the detection budget the suite guarantees
  const verify::ExploreResult r =
      verify::explore([] { run_tiny_contended_fixture(racy_fifo()); }, cfg);
  ASSERT_TRUE(r.violation)
      << "unlocked Scheduler::pop must be detected within 10k interleavings; "
      << r.summary();
  EXPECT_NE(r.violation_message.find("task popped twice"), std::string::npos)
      << r.violation_message;
  EXPECT_FALSE(r.violation_message.empty());
  EXPECT_FALSE(r.violation_trace.empty()) << "violation must carry the schedule";
}

TEST(VerifyMutation, SkipExecutorLockIsCaughtByPct) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ScopedMutation arm(verify::Mutation::SkipExecutorLock);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Pct;
  cfg.max_schedules = 10000;
  cfg.seed = 1;
  const verify::ExploreResult r = verify::explore(
      [] { run_fixture_once(racy_fifo(), /*with_observer=*/false, /*cpus=*/2); }, cfg);
  EXPECT_TRUE(r.violation) << r.summary();
  EXPECT_NE(r.violation_message.find("task popped twice"), std::string::npos)
      << r.violation_message;
}

TEST(VerifyMutation, SkipBrwDecrementIsCaught) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ScopedMutation arm(verify::Mutation::SkipBrwDecrement);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 10000;
  const verify::ExploreResult r = verify::explore(
      [] { run_fixture_once(scheduler_factory("multiprio-coarse"), /*with_observer=*/false); }, cfg);
  ASSERT_TRUE(r.violation)
      << "an uncorrected best_remaining_work ledger must trip the brw "
      << "upper-bound invariant; " << r.summary();
  EXPECT_NE(r.violation_message.find("best_remaining_work"), std::string::npos)
      << r.violation_message;
}

TEST(VerifyExplore, PctIsDeterministicPerSeed) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ScopedMutation arm(verify::Mutation::SkipExecutorLock);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Pct;
  cfg.max_schedules = 10000;
  cfg.seed = 42;
  const auto body = [] {
    run_fixture_once(racy_fifo(), /*with_observer=*/false, /*cpus=*/2);
  };
  const verify::ExploreResult a = verify::explore(body, cfg);
  const verify::ExploreResult b = verify::explore(body, cfg);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.violation_message, b.violation_message);
}

// ---- the oracle itself, exercised without any exploration (all builds) ----

TEST(MultiPrioInvariants, HoldAcrossPushPopRepushEvict) {
  test::EdgeGraph eg(8, {{0, 4}, {1, 5}, {2, 6}, {3, 7}});
  Platform p = test::small_platform(2, 1);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  MultiPrioScheduler s(mc.ctx());
  std::string why;

  EXPECT_TRUE(s.check_invariants(&why)) << why;
  for (std::size_t i = 0; i < 4; ++i) s.push(eg.tasks[i]);
  EXPECT_TRUE(s.check_invariants(&why)) << why;

  // Worker 2 is the GPU — the best architecture under flat_perf, so its
  // pops always pass the pop_condition. CPU pops below may instead evict
  // (diversion refused), which is exactly the path the oracle must survive.
  const auto t = s.pop(WorkerId{std::size_t{2}});
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(s.check_invariants(&why)) << why;

  s.repush(*t);
  EXPECT_TRUE(s.check_invariants(&why)) << why;

  // Drain everything through all workers; the oracle must hold at every
  // intermediate state, including after evictions and lazy stale-duplicate
  // discards.
  std::size_t popped = 0;
  while (popped < 4) {
    bool any = false;
    for (std::size_t w = 0; w < p.num_workers(); ++w) {
      if (s.pop(WorkerId{w}).has_value()) {
        ++popped;
        any = true;
        EXPECT_TRUE(s.check_invariants(&why)) << why;
      }
    }
    ASSERT_TRUE(any) << "scheduler stopped yielding tasks";
  }
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_TRUE(s.check_invariants(&why)) << why;
}

TEST(MultiPrioInvariants, ReadyCountExcludesStaleDuplicates) {
  // One dual-arch task duplicated into the CPU and the GPU heap: taking it
  // from the CPU node must retire the GPU node's ready count immediately,
  // even though the stale GPU heap entry is only dropped lazily.
  test::EdgeGraph eg(2, {});
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  MultiPrioScheduler s(mc.ctx());
  s.push(eg.tasks[0]);
  s.push(eg.tasks[1]);
  const MemNodeId ram = p.ram_node();
  ASSERT_EQ(s.ready_tasks_count(ram), 2u);

  // The GPU worker: takes from its own node.
  const auto t = s.pop(WorkerId{std::size_t{1}});
  ASSERT_TRUE(t.has_value());
  std::string why;
  EXPECT_TRUE(s.check_invariants(&why)) << why;
  EXPECT_EQ(s.ready_tasks_count(ram), 1u);
  for (std::size_t mi = 0; mi < p.num_nodes(); ++mi) {
    const MemNodeId m{mi};
    // Every node's ready count stays ≤ pending (stale entries excluded).
    EXPECT_LE(s.ready_tasks_count(m), s.pending_count());
  }
}

}  // namespace
}  // namespace mp

// Unit tests of the MultiPrio scheduler's PUSH/POP mechanics (Algorithms 1
// and 2), the pop_condition, and the eviction mechanism.
#include <gtest/gtest.h>

#include <optional>

#include "core/multiprio.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

/// 2 CPUs on RAM + 1 GPU. δ is controlled via recorded history samples.
/// Tasks are added first; ctx() then builds the context from the finished
/// graph and records each task's δ samples into its history model.
struct World {
  struct Sample {
    TaskId task;
    ArchType arch;
    double seconds;
  };

  TaskGraph graph;
  Platform platform = test::small_platform(2, 1);
  MemNodeId ram;
  MemNodeId gpu{std::size_t{1}};
  CodeletId both;
  CodeletId cpu_only;
  CodeletId gpu_only;
  std::optional<test::ManualContext> mc;

  World()
      : ram(platform.ram_node()),
        both(graph.add_codelet("both", {ArchType::CPU, ArchType::GPU})),
        cpu_only(graph.add_codelet("conly", {ArchType::CPU})),
        gpu_only(graph.add_codelet("gonly", {ArchType::GPU})) {}

  TaskId add_task(CodeletId cl, double cpu_s, double gpu_s) {
    const DataId d = graph.add_data(next_bytes_++);
    const TaskId t = graph.submit(cl, {Access{d, AccessMode::ReadWrite}});
    if (graph.codelet(cl).can_exec(ArchType::CPU)) samples_.push_back({t, ArchType::CPU, cpu_s});
    if (graph.codelet(cl).can_exec(ArchType::GPU)) samples_.push_back({t, ArchType::GPU, gpu_s});
    return t;
  }

  SchedContext ctx() {
    mc.emplace(graph, platform, test::flat_perf());
    for (const Sample& s : samples_) mc->history.record(s.task, s.arch, s.seconds);
    return mc->ctx();
  }

  WorkerId cpu_worker() const { return platform.workers_of_node(ram)[0]; }
  WorkerId gpu_worker() const { return platform.workers_of_node(gpu)[0]; }

  std::size_t next_bytes_ = 100;
  std::vector<Sample> samples_;
};

TEST(MultiPrio, PushDuplicatesIntoAllCapableHeaps) {
  World w;
  const TaskId t = w.add_task(w.both, 10e-3, 1e-3);
  MultiPrioScheduler s(w.ctx());
  s.push(t);
  EXPECT_EQ(s.ready_tasks_count(w.ram), 1u);
  EXPECT_EQ(s.ready_tasks_count(w.gpu), 1u);
  EXPECT_TRUE(s.heap(w.ram).contains(t));
  EXPECT_TRUE(s.heap(w.gpu).contains(t));
  EXPECT_EQ(s.pending_count(), 1u);
}

TEST(MultiPrio, SingleArchTaskOnlyInItsHeap) {
  World w;
  const TaskId t = w.add_task(w.cpu_only, 10e-3, 0.0);
  MultiPrioScheduler s(w.ctx());
  s.push(t);
  EXPECT_EQ(s.ready_tasks_count(w.ram), 1u);
  EXPECT_EQ(s.ready_tasks_count(w.gpu), 0u);
}

TEST(MultiPrio, BestRemainingWorkAccumulatesOnBestArchNode) {
  World w;
  const TaskId t = w.add_task(w.both, 10e-3, 1e-3);  // GPU best
  MultiPrioScheduler s(w.ctx());
  s.push(t);
  EXPECT_DOUBLE_EQ(s.best_remaining_work(w.gpu), 1e-3);
  EXPECT_DOUBLE_EQ(s.best_remaining_work(w.ram), 0.0);
}

TEST(MultiPrio, PopByBestArchWorkerAlwaysAllowed) {
  World w;
  const TaskId t = w.add_task(w.both, 10e-3, 1e-3);
  MultiPrioScheduler s(w.ctx());
  s.push(t);
  const auto popped = s.pop(w.gpu_worker());
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, t);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_DOUBLE_EQ(s.best_remaining_work(w.gpu), 0.0);  // ledger reversed
}

TEST(MultiPrio, PopRemovesDuplicatesLazily) {
  World w;
  const TaskId t0 = w.add_task(w.both, 10e-3, 1e-3);
  const TaskId t1 = w.add_task(w.both, 1e-3, 10e-3);  // CPU best
  MultiPrioScheduler s(w.ctx());
  s.push(t0);
  s.push(t1);
  ASSERT_EQ(s.pop(w.gpu_worker()), std::optional<TaskId>(t0));
  // t0's duplicate is still in the CPU heap, but a CPU pop must skip it.
  const auto popped = s.pop(w.cpu_worker());
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, t1);
}

TEST(MultiPrio, PopConditionRejectsSlowWorkerWhenBestIsFree) {
  World w;
  // One GPU-best task; GPU has nothing else queued: a CPU worker must not
  // steal it (eviction instead).
  const TaskId t = w.add_task(w.both, 100e-3, 1e-3);
  MultiPrioScheduler s(w.ctx());
  s.push(t);
  // brw(GPU) after this push is 1 ms, not > 100 ms: condition fails.
  const auto popped = s.pop(w.cpu_worker());
  EXPECT_FALSE(popped.has_value());
  EXPECT_FALSE(s.heap(w.ram).contains(t));  // evicted from the CPU heap
  EXPECT_TRUE(s.heap(w.gpu).contains(t));   // survives in the best heap
  EXPECT_GE(s.eviction_total(), 1u);
  // The GPU worker still picks it up.
  EXPECT_EQ(s.pop(w.gpu_worker()), std::optional<TaskId>(t));
}

TEST(MultiPrio, PopConditionAllowsSlowWorkerWhenBestIsBusy) {
  World w;
  // Pile lots of GPU-best work (brw ≈ 50 ms), then a small task whose CPU
  // time (10 ms) is below the backlog: the CPU may take it.
  for (int i = 0; i < 50; ++i) (void)0;
  std::vector<TaskId> backlog;
  for (int i = 0; i < 50; ++i) backlog.push_back(w.add_task(w.both, 20e-3, 1e-3));
  const TaskId small = w.add_task(w.both, 10e-3, 1e-3);
  MultiPrioScheduler s(w.ctx());
  for (TaskId t : backlog) s.push(t);
  s.push(small);
  const auto popped = s.pop(w.cpu_worker());
  ASSERT_TRUE(popped.has_value());
}

TEST(MultiPrio, EvictionDisabledTakesGreedily) {
  World w;
  MultiPrioConfig cfg;
  cfg.use_eviction = false;
  const TaskId t = w.add_task(w.both, 100e-3, 1e-3);
  MultiPrioScheduler s(w.ctx(), cfg);
  s.push(t);
  EXPECT_EQ(s.pop(w.cpu_worker()), std::optional<TaskId>(t));
  EXPECT_EQ(s.eviction_total(), 0u);
}

TEST(MultiPrio, GainOrdersHeapPerArch) {
  World w;
  // t_A strongly CPU-favored, t_C strongly GPU-favored (Table II shape).
  const TaskId ta = w.add_task(w.both, 1e-3, 20e-3);
  const TaskId tc = w.add_task(w.both, 20e-3, 10e-3);
  MultiPrioScheduler s(w.ctx());
  s.push(ta);
  s.push(tc);
  EXPECT_EQ(s.heap(w.ram).top()->task, ta);
  EXPECT_EQ(s.heap(w.gpu).top()->task, tc);
}

TEST(MultiPrio, NodBreaksGainTies) {
  // Two identical-δ CPU-only tasks; the one releasing more successors must
  // sit on top of the heap.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("conly", {ArchType::CPU});
  std::vector<DataId> outs;
  const DataId d0 = g.add_data(64);
  const DataId d1 = g.add_data(64);
  const TaskId narrow = g.submit(cl, {Access{d0, AccessMode::Write}});
  const TaskId wide = g.submit(cl, {Access{d1, AccessMode::Write}});
  // wide releases 3 successors, narrow releases 1.
  g.submit(cl, {Access{d0, AccessMode::Read}});
  for (int i = 0; i < 3; ++i) {
    (void)i;
    g.submit(cl, {Access{d1, AccessMode::Read}});
  }
  Platform p = test::small_platform(2, 0);
  test::ManualContext mc(g, p, test::flat_perf());
  mc.history.record(narrow, ArchType::CPU, 5e-3);
  mc.history.record(wide, ArchType::CPU, 5e-3);
  MultiPrioScheduler s(mc.ctx());
  // NOD is normalized by the running max ("recorded so far"), so the very
  // first pushed task always scores 1.0; push wide first so the contrast is
  // observable (narrow then gets 1/3).
  s.push(wide);
  s.push(narrow);
  EXPECT_EQ(s.heap(p.ram_node()).top()->task, wide);
}

TEST(MultiPrio, LocalityWindowPicksLocalTask) {
  World w;
  MultiPrioConfig cfg;
  cfg.locality_n = 10;
  cfg.epsilon = 0.8;
  // Two GPU-favored tasks with close scores; t1's data is on the GPU.
  const TaskId t0 = w.add_task(w.both, 20e-3, 1e-3);
  const TaskId t1 = w.add_task(w.both, 20e-3, 1.05e-3);
  MultiPrioScheduler s(w.ctx(), cfg);
  std::vector<TransferOp> ops;
  w.mc->memory.prefetch(w.graph.task(t1).accesses[0].data, w.gpu, ops);
  s.push(t0);
  s.push(t1);
  // Without locality t0 (higher gain via earlier seq / equal) would win;
  // with the window, t1's resident data decides.
  const auto popped = s.pop(w.gpu_worker());
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, t1);
}

TEST(MultiPrio, LocalityDisabledTakesTopOfHeap) {
  World w;
  MultiPrioConfig cfg;
  cfg.use_locality = false;
  const TaskId t0 = w.add_task(w.both, 20e-3, 1e-3);
  const TaskId t1 = w.add_task(w.both, 20e-3, 1.05e-3);
  MultiPrioScheduler s(w.ctx(), cfg);
  std::vector<TransferOp> ops;
  w.mc->memory.prefetch(w.graph.task(t1).accesses[0].data, w.gpu, ops);
  s.push(t0);
  s.push(t1);
  const auto top = s.heap(w.gpu).top()->task;
  EXPECT_EQ(s.pop(w.gpu_worker()), std::optional<TaskId>(top));
}

TEST(MultiPrio, EmptyPopReturnsNothing) {
  World w;
  MultiPrioScheduler s(w.ctx());
  EXPECT_FALSE(s.pop(w.cpu_worker()).has_value());
  EXPECT_FALSE(s.pop(w.gpu_worker()).has_value());
}

TEST(MultiPrio, HasWorkHintTracksHeaps) {
  World w;
  const TaskId t = w.add_task(w.cpu_only, 5e-3, 0.0);
  MultiPrioScheduler s(w.ctx());
  EXPECT_FALSE(s.has_work_hint(w.cpu_worker()));
  s.push(t);
  EXPECT_TRUE(s.has_work_hint(w.cpu_worker()));
  EXPECT_FALSE(s.has_work_hint(w.gpu_worker()));
}

TEST(MultiPrio, CpuOnlyTaskNeverStarves) {
  World w;
  const TaskId t = w.add_task(w.cpu_only, 5e-3, 0.0);
  MultiPrioScheduler s(w.ctx());
  s.push(t);
  // CPU is the best (only) arch: pop_condition is trivially true.
  EXPECT_EQ(s.pop(w.cpu_worker()), std::optional<TaskId>(t));
}

TEST(MultiPrio, MaxTriesBoundsEvictionsPerPop) {
  World w;
  constexpr std::size_t kTries = MultiPrioScheduler::kMaxTries;
  std::vector<TaskId> ts;
  for (std::size_t i = 0; i < 2 * kTries + 4; ++i)
    ts.push_back(w.add_task(w.both, 100e-3, 1e-3));
  MultiPrioScheduler s(w.ctx());
  for (TaskId t : ts) s.push(t);
  const std::size_t before = s.eviction_total();
  EXPECT_FALSE(s.pop(w.cpu_worker()).has_value());
  // Every task is a GPU task the CPU rejects: the bound, not the heap, ends
  // the pop.
  EXPECT_EQ(s.eviction_total() - before, kTries + 1);
  EXPECT_EQ(s.ready_tasks_count(w.ram), ts.size() - (kTries + 1));
}

TEST(MultiPrioDeath, PushOfTaskSubmittedAfterConstructionTripsTheCheck) {
  World w;
  (void)w.add_task(w.both, 10e-3, 1e-3);
  MultiPrioScheduler s(w.ctx());
  const TaskId late = w.add_task(w.both, 10e-3, 1e-3);
  EXPECT_DEATH(s.push(late), "outside the graph the scheduler was built for");
}

}  // namespace
}  // namespace mp

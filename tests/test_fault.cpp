// Fault model tests: injector determinism, transient retry, abandonment,
// stragglers, fail-stop worker loss across every policy, MultiPrio retry
// accounting, the run invariants the lifecycle and the trace check at each
// transition, and the max_events stall diagnostic.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/dense/dense_builders.hpp"
#include "fault/fault_plan.hpp"
#include "fault/task_lifecycle.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

WorkerId gpu_worker(const Platform& p) {
  for (const Worker& w : p.workers())
    if (w.arch == ArchType::GPU) return w.id;
  ADD_FAILURE() << "platform has no GPU worker";
  return WorkerId{};
}

// --- FaultInjector -----------------------------------------------------------

TEST(FaultInjector, DecisionsAreDeterministicAndPerAttempt) {
  test::EdgeGraph eg(8, {});
  FaultPlan plan;
  plan.seed = 123;
  plan.transient.push_back(TransientFaultSpec{CodeletId{}, 0.5});
  const FaultInjector a(plan, eg.graph);
  const FaultInjector b(plan, eg.graph);
  bool any_true = false;
  bool any_false = false;
  bool differs_across_attempts = false;
  for (TaskId t : eg.tasks) {
    for (std::size_t at = 0; at < 4; ++at) {
      EXPECT_EQ(a.fail_attempt(t, at), b.fail_attempt(t, at));
      any_true = any_true || a.fail_attempt(t, at);
      any_false = any_false || !a.fail_attempt(t, at);
      if (at > 0 && a.fail_attempt(t, at) != a.fail_attempt(t, 0))
        differs_across_attempts = true;
    }
  }
  EXPECT_TRUE(any_true);
  EXPECT_TRUE(any_false);
  EXPECT_TRUE(differs_across_attempts);  // streams independent per attempt
}

TEST(FaultInjector, ProbabilityExtremesAndCodeletMatch) {
  TaskGraph g;
  const CodeletId always = g.add_codelet("always", {ArchType::CPU});
  const CodeletId never = g.add_codelet("never", {ArchType::CPU});
  const DataId d0 = g.add_data(8);
  const DataId d1 = g.add_data(8);
  const TaskId ta = g.submit(always, {Access{d0, AccessMode::ReadWrite}});
  const TaskId tn = g.submit(never, {Access{d1, AccessMode::ReadWrite}});
  FaultPlan plan;
  plan.transient.push_back(TransientFaultSpec{always, 1.0});
  plan.transient.push_back(TransientFaultSpec{never, 0.0});
  plan.stragglers.push_back(StragglerSpec{always, 1.0, 3.0});
  const FaultInjector inj(plan, g);
  for (std::size_t at = 0; at < 5; ++at) {
    EXPECT_TRUE(inj.fail_attempt(ta, at));
    EXPECT_FALSE(inj.fail_attempt(tn, at));
    EXPECT_DOUBLE_EQ(inj.duration_multiplier(ta, at), 3.0);
    EXPECT_DOUBLE_EQ(inj.duration_multiplier(tn, at), 1.0);
  }
}

// --- transient failures in the simulator ------------------------------------

TEST(SimFault, TransientFailuresRetryToCompletion) {
  test::EdgeGraph eg(30, {{0, 10}, {1, 11}, {10, 20}}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(3, 0);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.fault.transient.push_back(TransientFaultSpec{CodeletId{}, 0.3});
  cfg.fault.retry_budget = 20;  // abandonment essentially impossible
  const SimResult r = simulate(eg.graph, p, db, scheduler_factory("multiprio"), cfg);
  EXPECT_EQ(r.tasks_executed, 30u);
  EXPECT_EQ(r.fault.tasks_abandoned, 0u);
  EXPECT_GT(r.fault.failures_injected, 0u);
  EXPECT_EQ(r.fault.retries, r.fault.failures_injected);
  EXPECT_FALSE(r.fault.degraded);  // retried-through failures do not degrade
}

TEST(SimFault, FailedAttemptsCostTimeButNeverEnterTheTrace) {
  // One task that always fails twice, then succeeds (p = 1 on attempts is
  // impossible to express directly, so force it with budget accounting:
  // probability 1 + budget 2 abandons; instead compare makespans at p=0.3).
  test::EdgeGraph clean(12, {}, 1e9, {ArchType::CPU});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  const SimResult r0 = simulate(clean.graph, p, db, scheduler_factory("eager"));
  SimConfig cfg;
  cfg.fault.transient.push_back(TransientFaultSpec{CodeletId{}, 0.3});
  cfg.fault.retry_budget = 30;
  test::EdgeGraph again(12, {}, 1e9, {ArchType::CPU});
  const SimResult r1 = simulate(again.graph, p, db, scheduler_factory("eager"), cfg);
  ASSERT_GT(r1.fault.failures_injected, 0u);
  EXPECT_GT(r1.makespan, r0.makespan);        // wasted attempts cost time
  EXPECT_EQ(r1.tasks_executed, 12u);          // but execute exactly once each
}

TEST(SimFault, BudgetExhaustionAbandonsTaskAndDescendants) {
  test::EdgeGraph eg(4, {{0, 1}, {1, 2}}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.fault.transient.push_back(TransientFaultSpec{CodeletId{}, 1.0});
  cfg.fault.retry_budget = 2;
  const SimResult r = simulate(eg.graph, p, db, scheduler_factory("eager"), cfg);
  EXPECT_EQ(r.tasks_executed, 0u);
  EXPECT_EQ(r.fault.tasks_abandoned, 4u);  // 0 -> 1 -> 2 closure plus task 3
  // Every root burned its full budget: 1 + 2 retries each.
  EXPECT_EQ(r.fault.failures_injected, 2u * 3u);
  EXPECT_TRUE(r.fault.degraded);
}

TEST(SimFault, StragglerMultipliesDuration) {
  test::EdgeGraph eg(1, {}, 1e9, {ArchType::CPU});  // 0.1 s nominal
  Platform p = test::small_platform(1, 0);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.fault.stragglers.push_back(StragglerSpec{CodeletId{}, 1.0, 4.0});
  const SimResult r = simulate(eg.graph, p, db, scheduler_factory("eager"), cfg);
  EXPECT_EQ(r.fault.stragglers_injected, 1u);
  EXPECT_NEAR(r.makespan, 0.4, 1e-9);
  EXPECT_FALSE(r.fault.degraded);
}

// --- determinism (same seed + plan => identical result) ----------------------

TEST(SimFault, SameSeedAndPlanReproduceBitForBit) {
  test::EdgeGraph eg(40, {{0, 10}, {1, 11}, {10, 20}, {11, 21}}, 1e8);
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.noise_sigma = 0.05;
  cfg.seed = 9;
  cfg.fault.seed = 77;
  cfg.fault.transient.push_back(TransientFaultSpec{CodeletId{}, 0.2});
  cfg.fault.stragglers.push_back(StragglerSpec{CodeletId{}, 0.1, 2.5});
  cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_worker(p), 0.05});
  cfg.fault.retry_budget = 25;
  for (const char* name : {"multiprio", "eager", "dmdas"}) {
    const SimResult a = simulate(eg.graph, p, db, scheduler_factory(name), cfg);
    const SimResult b = simulate(eg.graph, p, db, scheduler_factory(name), cfg);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << name;
    EXPECT_EQ(a.tasks_executed, b.tasks_executed) << name;
    EXPECT_EQ(a.fault.failures_injected, b.fault.failures_injected) << name;
    EXPECT_EQ(a.fault.retries, b.fault.retries) << name;
    EXPECT_EQ(a.fault.stragglers_injected, b.fault.stragglers_injected) << name;
    EXPECT_EQ(a.fault.tasks_abandoned, b.fault.tasks_abandoned) << name;
  }
}

// --- fail-stop worker loss ---------------------------------------------------

TEST(SimFault, GpuLossDegradesCholeskyGracefullyForEveryScheduler) {
  // The acceptance scenario: lose the GPU a quarter into the nominal run;
  // every policy must still complete the whole Cholesky DAG on the CPUs.
  TaskGraph graph;
  dense::TileMatrix a(6, 64, /*allocate=*/false);
  a.register_handles(graph);
  dense::build_potrf(graph, a, /*expert_priorities=*/false);
  const PlatformPreset preset = test_node();

  for (const std::string& name : scheduler_names()) {
    const SimResult nominal =
        simulate(graph, preset.platform, preset.perf, scheduler_factory(name));
    ASSERT_EQ(nominal.tasks_executed, graph.num_tasks()) << name;

    SimConfig cfg;
    cfg.fault.worker_losses.push_back(
        WorkerLossSpec{gpu_worker(preset.platform), 0.25 * nominal.makespan});
    const SimResult r = simulate(graph, preset.platform, preset.perf, scheduler_factory(name), cfg);
    EXPECT_EQ(r.tasks_executed, graph.num_tasks()) << name;
    EXPECT_EQ(r.fault.tasks_abandoned, 0u) << name;
    EXPECT_EQ(r.fault.workers_lost, 1u) << name;
    EXPECT_TRUE(r.fault.degraded) << name;
    // No makespan assertion: with tiny transfer-bound tiles, losing the GPU
    // can *shorten* the run for transfer-oblivious policies.
  }
}

TEST(SimFault, LossAtTimeZeroLeavesCpusOnly) {
  test::EdgeGraph eg(10, {{0, 5}}, 1e8);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_worker(p), 0.0});
  SimEngine engine(eg.graph, p, db, cfg);
  const SimResult r = engine.run(scheduler_factory("multiprio"));
  EXPECT_EQ(r.tasks_executed, 10u);
  EXPECT_EQ(r.fault.tasks_abandoned, 0u);
  for (const TraceSegment& s : engine.trace().segments())
    EXPECT_EQ(p.worker(s.worker).arch, ArchType::CPU);
}

TEST(SimFault, MidPipelineLossDrainsPendingPops) {
  // Deep worker pipeline on the GPU: the loss must drain popped-but-unstarted
  // tasks back into the scheduler, not lose them.
  test::EdgeGraph eg(24, {}, 1e9);
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.pipeline_depth = 3;
  cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_worker(p), 0.015});
  const SimResult r = simulate(eg.graph, p, db, scheduler_factory("dmdas"), cfg);
  EXPECT_EQ(r.tasks_executed, 24u);
  EXPECT_EQ(r.fault.tasks_abandoned, 0u);
  EXPECT_GT(r.fault.retries, 0u);  // the drained pipeline re-entered the queue
}

TEST(SimFault, OrphanedTasksAreAbandonedWithDescendants) {
  // GPU-only work and the only GPU dies: everything must be abandoned, and
  // the run must still terminate cleanly.
  test::EdgeGraph eg(6, {{0, 1}, {1, 2}, {3, 4}}, 1e8, {ArchType::GPU});
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_worker(p), 0.0});
  const SimResult r = simulate(eg.graph, p, db, scheduler_factory("eager"), cfg);
  EXPECT_EQ(r.tasks_executed, 0u);
  EXPECT_EQ(r.fault.tasks_abandoned, 6u);
  EXPECT_TRUE(r.fault.degraded);
}

TEST(SimFault, EvacuationWritesDirtyDataBackToRam) {
  // A GPU task writes a handle, then the GPU dies, then a CPU task reads it:
  // the sole authoritative copy must have been written back on retirement.
  TaskGraph g;
  const CodeletId on_gpu = g.add_codelet("produce", {ArchType::GPU});
  const CodeletId on_cpu = g.add_codelet("consume", {ArchType::CPU});
  const DataId d = g.add_data(10'000'000);
  SubmitOptions o;
  o.flops = 1e9;
  g.submit(on_gpu, {Access{d, AccessMode::ReadWrite}}, o);
  g.submit(on_cpu, {Access{d, AccessMode::Read}}, o);
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_worker(p), 0.02});
  SimEngine engine(g, p, db, cfg);
  const SimResult r = engine.run(scheduler_factory("eager"));
  EXPECT_EQ(r.tasks_executed, 2u);
  EXPECT_GT(r.bytes_from_gpus, 0u);  // the evacuation writeback
  EXPECT_TRUE(engine.memory().is_valid_on(d, p.ram_node()));
}

// --- MultiPrio-specific accounting ------------------------------------------

TEST(MultiPrioFault, RepushRestoresAccountingLikeAFreshPush) {
  test::EdgeGraph eg(6, {}, 1e8);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();

  test::ManualContext mca(eg.graph, p, db);
  MultiPrioScheduler a(mca.ctx());
  test::ManualContext mcb(eg.graph, p, db);
  MultiPrioScheduler b(mcb.ctx());

  for (TaskId t : eg.tasks) a.push(t);
  for (TaskId t : eg.tasks) b.push(t);

  // A pops one task and gets it back (failed attempt); B never popped.
  // Popping from the best-arch (GPU) worker keeps the pop_condition out of
  // the picture — this test is about the push/repush ledger.
  const WorkerId gw = gpu_worker(p);
  const std::optional<TaskId> popped = a.pop(gw);
  ASSERT_TRUE(popped.has_value());
  EXPECT_FALSE(a.is_pending(*popped));
  a.repush(*popped);
  EXPECT_TRUE(a.is_pending(*popped));

  EXPECT_EQ(a.pending_count(), b.pending_count());
  for (std::size_t mi = 0; mi < p.num_nodes(); ++mi) {
    const MemNodeId m{mi};
    EXPECT_DOUBLE_EQ(a.best_remaining_work(m), b.best_remaining_work(m)) << mi;
    EXPECT_EQ(a.ready_tasks_count(m), b.ready_tasks_count(m)) << mi;
  }
  EXPECT_EQ(a.eviction_total(), b.eviction_total());

  // And the repushed task is poppable again.
  std::size_t drained = 0;
  while (a.pop(gw)) ++drained;
  EXPECT_EQ(drained, eg.tasks.size());
}

TEST(MultiPrioFault, NodeDeathRebuildsHeapsOnSurvivors) {
  test::EdgeGraph eg(8, {}, 1e8);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  test::ManualContext mc(eg.graph, p, db);
  MultiPrioScheduler sched(mc.ctx());
  for (TaskId t : eg.tasks) sched.push(t);

  const WorkerId gw = gpu_worker(p);
  const MemNodeId gpu_node = p.worker(gw).node;
  ASSERT_GT(sched.ready_tasks_count(gpu_node), 0u);

  mc.liveness.mark_dead(gw);  // engine contract: flip before notifying
  const std::vector<TaskId> orphans = sched.notify_worker_removed(gw);
  EXPECT_TRUE(orphans.empty());  // dual-arch tasks survive on the CPUs
  EXPECT_EQ(sched.pending_count(), eg.tasks.size());
  EXPECT_EQ(sched.ready_tasks_count(gpu_node), 0u);
  EXPECT_EQ(sched.heap(gpu_node).size(), 0u);
  EXPECT_DOUBLE_EQ(sched.best_remaining_work(gpu_node), 0.0);

  std::size_t drained = 0;
  while (sched.pop(WorkerId{std::size_t{0}})) ++drained;
  EXPECT_EQ(drained, eg.tasks.size());  // nothing was lost in the rebuild
}

TEST(MultiPrioFault, NodeDeathSurrendersOrphans) {
  // Half the tasks are GPU-only: after the GPU node dies they must come back
  // as orphans and leave the pending ledger.
  TaskGraph g;
  const CodeletId both = g.add_codelet("both", {ArchType::CPU, ArchType::GPU});
  const CodeletId gonly = g.add_codelet("gpu_only", {ArchType::GPU});
  std::vector<TaskId> tasks;
  for (int i = 0; i < 6; ++i) {
    const DataId d = g.add_data(1024);
    tasks.push_back(
        g.submit(i % 2 == 0 ? both : gonly, {Access{d, AccessMode::ReadWrite}}));
  }
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  test::ManualContext mc(g, p, db);
  MultiPrioScheduler sched(mc.ctx());
  for (TaskId t : tasks) sched.push(t);

  const WorkerId gw = gpu_worker(p);
  mc.liveness.mark_dead(gw);
  std::vector<TaskId> orphans = sched.notify_worker_removed(gw);
  EXPECT_EQ(orphans.size(), 3u);
  EXPECT_TRUE(std::is_sorted(orphans.begin(), orphans.end()));  // deterministic
  EXPECT_EQ(sched.pending_count(), 3u);
  for (TaskId t : orphans) EXPECT_FALSE(sched.is_pending(t));
}

TEST(MultiPrioFault, StreamLossKeepsHeapsIntact) {
  // Two GPU streams on one node: losing one is not a node death, so the
  // heaps and ledgers must stand untouched.
  test::EdgeGraph eg(6, {}, 1e8);
  Platform p;
  p.add_workers(ArchType::CPU, p.ram_node(), 2);
  const MemNodeId gpu = p.add_gpu_node(0, 10e9, 1e-6);
  p.add_workers(ArchType::GPU, gpu, 2);
  PerfDatabase db = test::flat_perf();
  test::ManualContext mc(eg.graph, p, db);
  MultiPrioScheduler sched(mc.ctx());
  for (TaskId t : eg.tasks) sched.push(t);
  const std::size_t ready_before = sched.ready_tasks_count(gpu);
  const double brw_before = sched.best_remaining_work(gpu);

  const WorkerId first_stream = p.workers_of_node(gpu).front();
  mc.liveness.mark_dead(first_stream);
  EXPECT_TRUE(sched.notify_worker_removed(first_stream).empty());
  EXPECT_EQ(sched.ready_tasks_count(gpu), ready_before);
  EXPECT_DOUBLE_EQ(sched.best_remaining_work(gpu), brw_before);
}

TEST(MultiPrioFaultDeath, PushWithNoLiveCapableNodeAborts) {
  // Both engines flip liveness and screen released tasks under their
  // push-side serialization, so a push whose every capable worker is dead
  // is an engine bug: MultiPrio aborts instead of hiding the task.
  TaskGraph g;
  const CodeletId gonly = g.add_codelet("gpu_only", {ArchType::GPU});
  const DataId d = g.add_data(64);
  const TaskId t = g.submit(gonly, {Access{d, AccessMode::ReadWrite}});
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  test::ManualContext mc(g, p, db);
  MultiPrioScheduler sched(mc.ctx());

  mc.liveness.mark_dead(gpu_worker(p));
  EXPECT_DEATH(sched.push(t), "pushed task has no live capable memory node");
}

TEST(MultiPrioFaultDeath, PushBatchWithOneUnplaceableTaskAborts) {
  // One unscreened GPU-only task in a release batch aborts the batch, even
  // though its dual-arch sibling could still run on the CPUs.
  TaskGraph g;
  const CodeletId both = g.add_codelet("both", {ArchType::CPU, ArchType::GPU});
  const CodeletId gonly = g.add_codelet("gpu_only", {ArchType::GPU});
  const DataId d0 = g.add_data(64);
  const DataId d1 = g.add_data(64);
  const TaskId tb = g.submit(both, {Access{d0, AccessMode::ReadWrite}});
  const TaskId tg = g.submit(gonly, {Access{d1, AccessMode::ReadWrite}});
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  test::ManualContext mc(g, p, db);
  MultiPrioScheduler sched(mc.ctx());

  mc.liveness.mark_dead(gpu_worker(p));
  EXPECT_DEATH(sched.push_batch({tb, tg}), "pushed task has no live capable memory node");
}

// --- run invariants, checked at the transition that can break them ----------

// A diamond 0 → {1, 2} → 3 recorded by hand.
struct DiamondTrace {
  test::EdgeGraph eg{4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}};
  Platform platform = test::small_platform(1, 1);
  Trace trace{eg.graph, platform};
  WorkerId cpu{std::size_t{0}};
};

TEST(TraceDeath, PredecessorWithNoSegmentAborts) {
  DiamondTrace d;
  d.trace.record(TraceSegment{d.eg.tasks[0], d.cpu, 0.0, 0.0, 1.0, 0.0});
  d.trace.record(TraceSegment{d.eg.tasks[1], d.cpu, 1.0, 1.0, 2.0, 0.0});
  EXPECT_DEATH(d.trace.record(TraceSegment{d.eg.tasks[3], d.cpu, 2.0, 2.0, 3.0, 0.0}),
               "predecessor never executed");
}

TEST(TraceDeath, DependencyViolatedBeyondToleranceAborts) {
  DiamondTrace d;
  d.trace.record(TraceSegment{d.eg.tasks[0], d.cpu, 0.0, 0.0, 1.0, 0.0});
  // Within the 1e-12 tolerance a successor may start as its predecessor ends.
  d.trace.record(TraceSegment{d.eg.tasks[1], d.cpu, 1.0 - 1e-13, 1.0, 2.0, 0.0});
  EXPECT_DEATH(d.trace.record(TraceSegment{d.eg.tasks[2], d.cpu, 1.0 - 1e-9, 1.0, 2.0, 0.0}),
               "dependency violated");
}

TEST(TraceDeath, TaskExecutedTwiceAborts) {
  DiamondTrace d;
  d.trace.record(TraceSegment{d.eg.tasks[0], d.cpu, 0.0, 0.0, 1.0, 0.0});
  EXPECT_DEATH(d.trace.record(TraceSegment{d.eg.tasks[0], d.cpu, 1.0, 1.0, 2.0, 0.0}),
               "task executed twice");
}

// A lifecycle over two independent tasks: `both` runs anywhere, `gpu` only on
// the GPU worker.
struct LifecycleFixture {
  TaskGraph g;
  TaskId both;
  TaskId gpu;
  Platform p = test::small_platform(1, 1);
  WorkerId cpu_w{std::size_t{0}};
  WorkerId gpu_w{std::size_t{1}};
  std::unique_ptr<test::ManualContext> mc;
  std::unique_ptr<TaskLifecycle> lifecycle;

  LifecycleFixture() {
    both = g.submit(g.add_codelet("both", {ArchType::CPU, ArchType::GPU}),
                    {Access{g.add_data(64), AccessMode::ReadWrite}});
    gpu = g.submit(g.add_codelet("gpu_only", {ArchType::GPU}),
                   {Access{g.add_data(64), AccessMode::ReadWrite}});
    mc = std::make_unique<test::ManualContext>(g, p, test::flat_perf());
    lifecycle = std::make_unique<TaskLifecycle>(mc->ctx(), FaultPlan{});
  }
};

TEST(LifecycleDeath, TaskPoppedTwiceAborts) {
  LifecycleFixture f;
  EXPECT_EQ(f.lifecycle->popped(f.both, f.cpu_w), 0u);
  EXPECT_DEATH((void)f.lifecycle->popped(f.both, f.gpu_w), "task popped twice");
}

TEST(Lifecycle, FailedAttemptHandsTheTaskBack) {
  LifecycleFixture f;
  (void)f.lifecycle->popped(f.both, f.cpu_w);
  ASSERT_TRUE(f.lifecycle->failed(f.both, f.cpu_w));  // budget grants a retry
  EXPECT_EQ(f.lifecycle->popped(f.both, f.gpu_w), 1u);
}

TEST(LifecycleDeath, WrongArchPopAborts) {
  LifecycleFixture f;
  EXPECT_DEATH((void)f.lifecycle->popped(f.gpu, f.cpu_w), "scheduler mapped task to wrong arch");
}

TEST(LifecycleDeath, RequeueWithoutPopAborts) {
  LifecycleFixture f;
  EXPECT_DEATH(f.lifecycle->requeued(f.both, f.cpu_w), "requeued task was not popped");
}

TEST(LifecycleDeath, SegmentAfterWorkerLostAborts) {
  LifecycleFixture f;
  (void)f.lifecycle->popped(f.both, f.cpu_w);
  f.lifecycle->worker_lost(f.cpu_w);
  EXPECT_DEATH(f.lifecycle->completed(TraceSegment{f.both, f.cpu_w, 0.0, 0.0, 1.0, 0.0}, 1.0),
               "segment finished on a worker after its loss");
}

TEST(LifecycleDeath, FinishWithUnsettledTaskAborts) {
  LifecycleFixture f;
  (void)f.lifecycle->popped(f.both, f.cpu_w);
  f.lifecycle->completed(TraceSegment{f.both, f.cpu_w, 0.0, 0.0, 1.0, 0.0}, 1.0);
  EXPECT_EQ(f.lifecycle->settled(), 1u);
  EXPECT_DEATH((void)f.lifecycle->finish(), "run ended with tasks neither executed nor abandoned");
  f.lifecycle->abandon(f.gpu);
  EXPECT_EQ(f.lifecycle->settled(), 2u);
  EXPECT_TRUE(f.lifecycle->finish().degraded);
}

// A broken policy: every pop hands out the first task ever pushed.
class SamePopPolicy final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void push(TaskId t) override {
    if (!first_.valid()) first_ = t;
  }
  [[nodiscard]] std::optional<TaskId> pop(WorkerId /*w*/) override {
    return first_.valid() ? std::optional<TaskId>(first_) : std::nullopt;
  }
  [[nodiscard]] std::string name() const override { return "same-pop"; }
  [[nodiscard]] std::size_t pending_count() const override { return 0; }

 private:
  TaskId first_;
};

TEST(SimFaultDeath, PolicyReturningTheSameTaskTwiceAborts) {
  test::EdgeGraph eg(4, {}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  EXPECT_DEATH((void)simulate(eg.graph, p, db,
                              [](SchedContext ctx) {
                                return std::make_unique<SamePopPolicy>(std::move(ctx));
                              }),
               "task popped twice");
}

// --- stall diagnostic (max_events safety valve) ------------------------------

TEST(SimFaultDeath, MaxEventsEmitsStallDiagnostic) {
  test::EdgeGraph eg(20, {{0, 1}, {1, 2}}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.max_events = 5;  // far too few for 20 tasks
  EXPECT_DEATH((void)simulate(eg.graph, p, db, scheduler_factory("eager"), cfg),
               "simulation stalled.*stuck total");
}

}  // namespace
}  // namespace mp
